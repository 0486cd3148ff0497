// Package smartoclock's root benchmarks regenerate every table and figure
// of the paper's evaluation. Each benchmark runs the corresponding
// experiment at a reduced-but-representative scale and reports the
// headline numbers through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints a full reproduction sweep. The CLIs (cmd/socsim, cmd/soccluster,
// cmd/socreport) run the same experiments at full scale with printed tables.
package main

import (
	"strconv"
	"testing"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/experiment"
	"smartoclock/internal/trace"
	"smartoclock/internal/workload"
)

// benchClusterCfg is the cluster emulation scale used by benches.
func benchClusterCfg(sys experiment.ClusterSystem) experiment.ClusterConfig {
	cfg := experiment.DefaultClusterConfig(sys)
	cfg.Duration = 20 * time.Minute
	cfg.Warmup = 4 * time.Minute
	return cfg
}

func BenchmarkFig01ServiceLoadPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiment.Fig1()
		if len(tbl.Rows) != 24 {
			b.Fatal("unexpected shape")
		}
	}
}

func BenchmarkFig02MicroserviceLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig2, _ := experiment.Fig2And3()
		if len(fig2.Rows) != 24 {
			b.Fatal("unexpected shape")
		}
	}
}

func BenchmarkFig03MicroserviceUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, fig3 := experiment.Fig2And3()
		if len(fig3.Rows) != 24 {
			b.Fatal("unexpected shape")
		}
	}
}

func BenchmarkFig04WebConfDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Fig4() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig05RackUtilizationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Fig5(20, 1)
		if err != nil {
			b.Fatal(err)
		}
		if v, _ := strconv.ParseFloat(tbl.FindRow("p50")[1], 64); true {
			b.ReportMetric(v, "p50-avg-util")
		}
	}
}

func BenchmarkFig06RackPowerVsLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, frac, err := experiment.Fig6(3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*frac, "naive-overlimit-%")
	}
}

func BenchmarkFig07AgingPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiment.Fig7()
		aged, _ := strconv.ParseFloat(tbl.FindRow("Always overclock")[1], 64)
		b.ReportMetric(aged, "always-oc-aged-days")
	}
}

func BenchmarkFig08PredictionRMSECDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Fig8(6, 2)
		if err != nil {
			b.Fatal(err)
		}
		p99, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
		b.ReportMetric(p99, "region1-p99-rmse-W")
	}
}

func BenchmarkFig09ServerHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig9(21); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCluster runs one system of the §V-A emulation and reports its
// headline metrics.
func benchCluster(b *testing.B, sys experiment.ClusterSystem) *experiment.ClusterResult {
	b.Helper()
	var res *experiment.ClusterResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunCluster(benchClusterCfg(sys))
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkFig12LatencyBaseline(b *testing.B) {
	res := benchCluster(b, experiment.SysBaseline)
	b.ReportMetric(res.NormP99[workload.HighLoad], "p99/slo-high")
	b.ReportMetric(float64(res.MissedSLO[workload.HighLoad]), "missed-high")
}

func BenchmarkFig12LatencyScaleOut(b *testing.B) {
	res := benchCluster(b, experiment.SysScaleOut)
	b.ReportMetric(res.NormP99[workload.HighLoad], "p99/slo-high")
	b.ReportMetric(float64(res.MissedSLO[workload.HighLoad]), "missed-high")
}

func BenchmarkFig12LatencyScaleUp(b *testing.B) {
	res := benchCluster(b, experiment.SysScaleUp)
	b.ReportMetric(res.NormP99[workload.HighLoad], "p99/slo-high")
	b.ReportMetric(float64(res.MissedSLO[workload.HighLoad]), "missed-high")
}

func BenchmarkFig12LatencySmartOClock(b *testing.B) {
	res := benchCluster(b, experiment.SysSmartOClock)
	b.ReportMetric(res.NormP99[workload.HighLoad], "p99/slo-high")
	b.ReportMetric(float64(res.MissedSLO[workload.HighLoad]), "missed-high")
}

func BenchmarkFig13InstanceCost(b *testing.B) {
	so := benchCluster(b, experiment.SysScaleOut)
	smart, err := experiment.RunCluster(benchClusterCfg(experiment.SysSmartOClock))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(so.MeanInstances, "scaleout-instances")
	b.ReportMetric(smart.MeanInstances, "smart-instances")
	b.ReportMetric(100*(1-smart.MeanInstances/so.MeanInstances), "saving-%")
}

func BenchmarkFig14Energy(b *testing.B) {
	so := benchCluster(b, experiment.SysScaleOut)
	smart, err := experiment.RunCluster(benchClusterCfg(experiment.SysSmartOClock))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(smart.TotalEnergy/so.TotalEnergy, "smart/scaleout-total")
	b.ReportMetric(smart.LCEnergy/so.LCEnergy, "smart/scaleout-lc")
}

func BenchmarkPowerConstrained(b *testing.B) {
	var results map[experiment.ClusterSystem]*experiment.ClusterResult
	var err error
	for i := 0; i < b.N; i++ {
		_, results, err = experiment.RunPowerConstrained(benchClusterCfg(experiment.SysSmartOClock), 0.80)
		if err != nil {
			b.Fatal(err)
		}
	}
	naive := results[experiment.SysNaiveOClock]
	smart := results[experiment.SysSmartOClock]
	b.ReportMetric(naive.NormP99[workload.HighLoad], "naive-p99/slo-high")
	b.ReportMetric(smart.NormP99[workload.HighLoad], "smart-p99/slo-high")
	b.ReportMetric(smart.MLThroughput/naive.MLThroughput, "ml-throughput-gain")
}

func BenchmarkOCConstrained(b *testing.B) {
	var tbl *experiment.Table
	var err error
	for i := 0; i < b.N; i++ {
		cfg := benchClusterCfg(experiment.SysSmartOClock)
		cfg.Duration = 30 * time.Minute
		cfg.Warmup = 5 * time.Minute
		tbl, err = experiment.RunOCConstrained(cfg, 0.6)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tbl.Rows) != 3 {
		b.Fatal("unexpected shape")
	}
}

// benchFleetCfg is the Table I scale used by benches.
func benchFleetCfg() experiment.FleetSimConfig {
	cfg := experiment.DefaultFleetSimConfig()
	cfg.RacksPerClass = 2
	cfg.EvalDays = 3
	return cfg
}

func BenchmarkTable1Comparison(b *testing.B) {
	var rows []experiment.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		_, rows, err = experiment.RunTable1(benchFleetCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Class == trace.HighPower {
			switch r.System {
			case baselines.NaiveOClock:
				b.ReportMetric(float64(r.CapEvents), "high-naive-caps")
			case baselines.SmartOClock:
				b.ReportMetric(float64(r.CapEvents), "high-smart-caps")
				b.ReportMetric(r.SuccessPct, "high-smart-success-%")
			case baselines.Central:
				b.ReportMetric(r.SuccessPct, "high-central-success-%")
			}
		}
	}
}

func BenchmarkFig15PredictionStrategies(b *testing.B) {
	var tbl *experiment.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiment.Fig15(12, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	dm, _ := strconv.ParseFloat(tbl.FindRow("DailyMed")[4], 64)
	weekly, _ := strconv.ParseFloat(tbl.FindRow("Weekly")[4], 64)
	b.ReportMetric(dm, "dailymed-rmse-p50")
	b.ReportMetric(weekly, "weekly-rmse-p50")
}

func BenchmarkFig16ServiceB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Fig16() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFig17ServiceC(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		_, red = experiment.Fig17()
	}
	b.ReportMetric(100*red, "peak-reduction-%")
}
