package experiment

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/trace"
	"smartoclock/internal/workload"
)

func TestTableFormatAndLookups(t *testing.T) {
	tbl := &Table{Caption: "cap", Headers: []string{"a", "b"}}
	tbl.AddRow("x", 1.5)
	tbl.AddRow("y", "str")
	out := tbl.Format()
	if !strings.Contains(out, "cap") || !strings.Contains(out, "1.500") {
		t.Fatalf("format output:\n%s", out)
	}
	if tbl.Cell(0, 1) != "1.500" || tbl.Cell(5, 0) != "" || tbl.Cell(0, 9) != "" {
		t.Fatal("Cell lookups wrong")
	}
	if row := tbl.FindRow("y"); row == nil || row[1] != "str" {
		t.Fatalf("FindRow = %v", row)
	}
	if tbl.FindRow("zz") != nil {
		t.Fatal("FindRow must miss")
	}
}

func TestFig1Shape(t *testing.T) {
	tbl := Fig1()
	if len(tbl.Rows) != 24 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Service A peaks 10am-noon: its 10:00/11:00 values must be the max.
	at := func(row, col int) float64 {
		v, err := strconv.ParseFloat(tbl.Cell(row, col), 64)
		if err != nil {
			t.Fatalf("cell %d,%d: %v", row, col, err)
		}
		return v
	}
	for h := 0; h < 24; h++ {
		if h == 10 || h == 11 {
			continue
		}
		if at(h, 1) >= at(10, 1) {
			t.Fatalf("Service A hour %d >= peak hour", h)
		}
	}
	// Services B/C have flat hourly means (spikes every hour).
	if at(3, 2) != at(15, 2) {
		t.Fatal("Service B hourly mean should be stationary")
	}
}

func TestFig2And3Shape(t *testing.T) {
	fig2, fig3 := Fig2And3()
	if len(fig2.Rows) != 24 || len(fig3.Rows) != 24 {
		t.Fatalf("rows = %d/%d", len(fig2.Rows), len(fig3.Rows))
	}
	countViolations := func(col int, load string) int {
		n := 0
		for _, row := range fig2.Rows {
			if row[1] == load && strings.HasSuffix(row[col], "*") {
				n++
			}
		}
		return n
	}
	// Baseline at high load violates most SLOs; ScaleOut violates none;
	// Overclock sits in between.
	base := countViolations(3, "High")
	oc := countViolations(4, "High")
	so := countViolations(5, "High")
	if base < 5 {
		t.Fatalf("baseline high violations = %d", base)
	}
	if oc >= base || so != 0 {
		t.Fatalf("violations base/oc/scaleout = %d/%d/%d", base, oc, so)
	}
	// Low load: no violations anywhere.
	if countViolations(3, "Low")+countViolations(4, "Low")+countViolations(5, "Low") != 0 {
		t.Fatal("low load must meet all SLOs")
	}
}

func TestFig4DeploymentGoal(t *testing.T) {
	tbl := Fig4()
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Both configurations meet the 50% deployment target: overclocking is
	// unnecessary at deployment level.
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Fatalf("deployment target missed in %v", row)
		}
	}
}

func TestFig5Monotone(t *testing.T) {
	tbl, err := Fig5(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Within each row: average <= ... and P99 >= P50.
	for _, row := range tbl.Rows {
		p50, _ := strconv.ParseFloat(row[2], 64)
		p99, _ := strconv.ParseFloat(row[3], 64)
		if p99 < p50 {
			t.Fatalf("row %v: P99 < P50", row)
		}
	}
}

func TestFig6OverLimitFraction(t *testing.T) {
	_, frac, err := Fig6(3)
	if err != nil {
		t.Fatal(err)
	}
	// Naive overclocking must exceed the limit some of the time on a
	// high-power rack, but not most of the time (paper: ~15%).
	if frac <= 0.01 || frac >= 0.5 {
		t.Fatalf("over-limit fraction = %v", frac)
	}
}

func TestFig7Ordering(t *testing.T) {
	tbl := Fig7()
	get := func(name string) float64 {
		row := tbl.FindRow(name)
		if row == nil {
			t.Fatalf("row %q missing", name)
		}
		v, _ := strconv.ParseFloat(row[1], 64)
		return v
	}
	nonOC := get("Non-overclocked")
	always := get("Always overclock")
	aware := get("Overclock-aware")
	if nonOC >= 2 {
		t.Fatalf("non-overclocked aged %v days, want < 2", nonOC)
	}
	if always <= 10 {
		t.Fatalf("always-overclock aged %v days, want > 10", always)
	}
	if aware > 5.5 || aware <= nonOC {
		t.Fatalf("overclock-aware aged %v days", aware)
	}
}

func TestFig8LowRMSE(t *testing.T) {
	tbl, err := Fig8(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		p99, _ := strconv.ParseFloat(row[3], 64)
		if p99 <= 0 || p99 > 100 {
			t.Fatalf("region %s P99 RMSE = %v W, want small", row[0], p99)
		}
	}
}

func TestFig9DominantChanges(t *testing.T) {
	tbl, err := Fig9(21)
	if err != nil {
		t.Fatal(err)
	}
	dominant := map[string]bool{}
	for _, row := range tbl.Rows {
		dominant[row[7]] = true
	}
	if len(dominant) < 2 {
		t.Fatalf("dominant server never changes: %v", dominant)
	}
}

func TestFig15DailyMedWins(t *testing.T) {
	tbl, err := Fig15(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	rmse := func(name string) float64 {
		row := tbl.FindRow(name)
		if row == nil {
			t.Fatalf("row %q missing", name)
		}
		v, _ := strconv.ParseFloat(row[4], 64)
		return v
	}
	dm := rmse("DailyMed")
	for _, other := range []string{"FlatMed", "FlatMax", "Weekly", "DailyMax"} {
		if rmse(other) < dm {
			t.Fatalf("DailyMed RMSE %v not best vs %s %v", dm, other, rmse(other))
		}
	}
	// FlatMax over-predicts: positive mean error at p10 already.
	row := tbl.FindRow("FlatMax")
	p10, _ := strconv.ParseFloat(row[1], 64)
	if p10 <= 0 {
		t.Fatalf("FlatMax p10 error = %v, want positive (over-prediction)", p10)
	}
}

func TestFig16Calibration(t *testing.T) {
	tbl := Fig16()
	row := tbl.FindRow("equal-util")
	if row == nil {
		t.Fatal("equal-util row missing")
	}
	if !strings.Contains(row[3], "+28% load") {
		t.Fatalf("equal-util row = %v", row)
	}
}

func TestFig17Reduction(t *testing.T) {
	_, red := Fig17()
	if red < 0.1 || red > 0.35 {
		t.Fatalf("peak reduction = %v, want ~0.16-0.25", red)
	}
}

// smokeFleetCfg returns the smallest fleet sim that exercises everything.
func smokeFleetCfg() FleetSimConfig {
	cfg := DefaultFleetSimConfig()
	cfg.RacksPerClass = 1
	cfg.EvalDays = 1
	return cfg
}

func TestTable1SmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	tbl, rows, err := RunTable1(smokeFleetCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 5 systems x 3 classes", len(rows))
	}
	if len(tbl.Rows) != 15 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
	byKey := map[string]Table1Row{}
	for _, r := range rows {
		byKey[r.Class.String()+"/"+r.System.String()] = r
	}
	// Structural invariants that hold even at smoke scale:
	for _, class := range []trace.ClusterClass{trace.HighPower, trace.MediumPower, trace.LowPower} {
		naive := byKey[class.String()+"/"+baselines.NaiveOClock.String()]
		smart := byKey[class.String()+"/"+baselines.SmartOClock.String()]
		nofb := byKey[class.String()+"/"+baselines.NoFeedback.String()]
		if naive.Requests == 0 || smart.Requests == 0 {
			t.Fatalf("%s: no overclocking demand simulated", class)
		}
		if naive.SuccessPct < 1 {
			t.Fatalf("%s: naive success = %v", class, naive.SuccessPct)
		}
		if smart.SuccessPct < nofb.SuccessPct-1e-9 {
			t.Fatalf("%s: exploration must not reduce success: smart %v < nofeedback %v",
				class, smart.SuccessPct, nofb.SuccessPct)
		}
		if smart.NormPerf <= 1.0 {
			t.Fatalf("%s: SmartOClock perf %v, want above turbo baseline", class, smart.NormPerf)
		}
	}
	// High-power: naive causes at least as many caps as SmartOClock.
	naiveHi := byKey["High-Power/NaiveOClock"]
	smartHi := byKey["High-Power/SmartOClock"]
	if naiveHi.CapEvents < smartHi.CapEvents {
		t.Fatalf("high-power: naive caps %d < smart caps %d", naiveHi.CapEvents, smartHi.CapEvents)
	}
}

// smokeClusterCfg returns a small but complete cluster emulation config.
func smokeClusterCfg(sys ClusterSystem) ClusterConfig {
	cfg := DefaultClusterConfig(sys)
	cfg.Duration = 14 * time.Minute
	cfg.Warmup = 3 * time.Minute
	cfg.SocialNetServers = 9 // 4 low, 4 medium, 1 high
	cfg.MLServers = 4
	cfg.SpareServers = 4
	return cfg
}

func TestRunClusterBaseline(t *testing.T) {
	res, err := RunCluster(smokeClusterCfg(SysBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanInstances != 9 {
		t.Fatalf("baseline instances = %v, must stay at initial count", res.MeanInstances)
	}
	if res.TotalEnergy <= 0 || res.MLThroughput <= 0.9 {
		t.Fatalf("energy/throughput: %v/%v", res.TotalEnergy, res.MLThroughput)
	}
	if res.NormP99[workload.HighLoad] <= res.NormP99[workload.LowLoad] {
		t.Fatal("high load must have worse tails than low load")
	}
}

func TestRunClusterSmartBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulation")
	}
	base, err := RunCluster(smokeClusterCfg(SysBaseline))
	if err != nil {
		t.Fatal(err)
	}
	smart, err := RunCluster(smokeClusterCfg(SysSmartOClock))
	if err != nil {
		t.Fatal(err)
	}
	bMiss := base.MissedSLO[workload.HighLoad] + base.MissedSLO[workload.MediumLoad]
	sMiss := smart.MissedSLO[workload.HighLoad] + smart.MissedSLO[workload.MediumLoad]
	if sMiss >= bMiss {
		t.Fatalf("SmartOClock misses %d >= baseline %d", sMiss, bMiss)
	}
	if smart.NormP99[workload.HighLoad] >= base.NormP99[workload.HighLoad] {
		t.Fatal("SmartOClock must improve the high-load tail")
	}
}

// TestRunClusterDeterministic runs each config twice. The observed run on a
// tightened rack makes the sOAs reject requests and report them to the WIs,
// so its event trace also pins the order the sOAs tick in. A minute tick is
// longer than every control cadence, each of which must clamp to one tick.
func TestRunClusterDeterministic(t *testing.T) {
	constrained := smokeClusterCfg(SysSmartOClock)
	constrained.RackLimitScale = 0.8
	constrained.Observe = true
	minuteTick := smokeClusterCfg(SysSmartOClock)
	minuteTick.Tick = time.Minute
	for name, cfg := range map[string]ClusterConfig{
		"default":     smokeClusterCfg(SysSmartOClock),
		"constrained": constrained,
		"minute tick": minuteTick,
	} {
		a, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalEnergy != b.TotalEnergy || a.MeanInstances != b.MeanInstances {
			t.Fatalf("%s: non-deterministic: %v/%v vs %v/%v", name,
				a.TotalEnergy, a.MeanInstances, b.TotalEnergy, b.MeanInstances)
		}
		if !cfg.Observe {
			continue
		}
		var ta, tb strings.Builder
		if err := a.Trace.WriteJSONL(&ta); err != nil {
			t.Fatal(err)
		}
		if err := b.Trace.WriteJSONL(&tb); err != nil {
			t.Fatal(err)
		}
		if ta.String() != tb.String() {
			t.Errorf("%s: event trace differs between identical runs", name)
		}
	}
}

func TestRunClusterValidation(t *testing.T) {
	for name, mutate := range map[string]func(*ClusterConfig){
		"zero tick":           func(c *ClusterConfig) { c.Tick = 0 },
		"duration below tick": func(c *ClusterConfig) { c.Duration = c.Tick / 2 },
		"no SocialNet":        func(c *ClusterConfig) { c.SocialNetServers = 0 },
		"negative ML":         func(c *ClusterConfig) { c.MLServers = -1 },
		"negative spares":     func(c *ClusterConfig) { c.SpareServers = -1 },
	} {
		cfg := smokeClusterCfg(SysBaseline)
		mutate(&cfg)
		if _, err := RunCluster(cfg); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}

	// Empty ML and spare groups and an all-warmup run are valid: every
	// mean stays a number. MLThroughput is 0 with no ML servers, and a run
	// that measures nothing reports zero instances and misses.
	noML := func(sys ClusterSystem) ClusterConfig {
		cfg := smokeClusterCfg(sys)
		cfg.MLServers, cfg.SpareServers = 0, 0
		return cfg
	}
	allWarmup := smokeClusterCfg(SysSmartOClock)
	allWarmup.Warmup = allWarmup.Duration
	for name, cfg := range map[string]ClusterConfig{
		"ScaleOut, no ML":    noML(SysScaleOut),
		"SmartOClock, no ML": noML(SysSmartOClock),
		"all warmup":         allWarmup,
	} {
		res, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scalars := []float64{res.MeanInstances, res.TotalEnergy, res.LCEnergy, res.MLThroughput, res.MissedTickFrac}
		for _, m := range []map[workload.LoadLevel]float64{res.NormP99, res.NormAvg, res.MeanInstancesByLevel, res.ServerEnergy} {
			for _, v := range m {
				scalars = append(scalars, v)
			}
		}
		for _, v := range scalars {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite result %+v", name, res)
			}
		}
		if cfg.MLServers == 0 && res.MLThroughput != 0 {
			t.Errorf("%s: MLThroughput = %v with no ML servers, want 0", name, res.MLThroughput)
		}
		if cfg.Warmup == cfg.Duration && (res.MeanInstances != 0 || res.MissedTickFrac != 0) {
			t.Errorf("%s: instances %v, missed %v with nothing measured, want 0", name, res.MeanInstances, res.MissedTickFrac)
		}
	}
}

func TestClusterSystemStrings(t *testing.T) {
	if SysBaseline.String() != "Baseline" || SysSmartOClock.String() != "SmartOClock" ||
		SysNaiveOClock.String() != "NaiveOClock" {
		t.Fatal("system names wrong")
	}
	if len(ClusterSystems()) != 4 {
		t.Fatal("ClusterSystems must return 4")
	}
}

func TestRunFig12To14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulation x4")
	}
	fig12, fig13, fig14, results, err := RunFig12To14(smokeClusterCfg(SysBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig12.Rows) != 4 || len(fig13.Rows) != 4 || len(fig14.Rows) != 4 {
		t.Fatal("each figure must have one row per system")
	}
	if len(results) != 4 {
		t.Fatal("results map incomplete")
	}
	// ScaleOut normalizes its own totals to 1.
	row := fig14.FindRow("ScaleOut")
	if row == nil || row[4] != "1.000" {
		t.Fatalf("ScaleOut total norm row = %v", row)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	cfg := smokeFleetCfg()
	tbl, err := RunAblationTemplates(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("template ablation rows = %d", len(tbl.Rows))
	}
	tbl, err = RunAblationExploreStep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("explore ablation rows = %d", len(tbl.Rows))
	}
	// Disabled exploration must not beat the default step on success.
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		return v
	}
	disabled := parse(tbl.FindRow("disabled")[2])
	def := parse(tbl.FindRow("40")[2])
	if disabled > def+1e-9 {
		t.Fatalf("disabled exploration success %v beats default %v", disabled, def)
	}
	tbl, err = RunAblationWarnThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("warn ablation rows = %d", len(tbl.Rows))
	}
}

func TestServiceAExtraLoad(t *testing.T) {
	extra := ServiceAExtraLoad()
	if extra < 0.2 || extra > 0.35 {
		t.Fatalf("Service A extra load = %v, want ≈0.25-0.28", extra)
	}
}

func TestDatacenterRebalance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	cfg := smokeFleetCfg()
	cfg.EvalDays = 2
	tbl, err := RunDatacenterRebalance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		return v
	}
	even := parse(tbl.FindRow("even-split")[3])
	rebal := parse(tbl.FindRow("rebalanced")[3])
	if rebal < even {
		t.Fatalf("rebalancing must not reduce success: %v -> %v", even, rebal)
	}
	// The hot rack receives a larger limit than the quiet one.
	hotL, _ := strconv.ParseFloat(tbl.FindRow("rebalanced")[1], 64)
	quietL, _ := strconv.ParseFloat(tbl.FindRow("rebalanced")[2], 64)
	if hotL <= quietL {
		t.Fatalf("headroom did not move toward demand: hot %v quiet %v", hotL, quietL)
	}
}

// TestUnknownTemplateStrategyFails checks that a misspelled strategy is
// refused before any rack is simulated, instead of quietly running the
// default predictor. The fleet is sized so that running it would take
// minutes: only a check ahead of the fan-out returns in time.
func TestUnknownTemplateStrategyFails(t *testing.T) {
	cfg := DefaultFleetSimConfig()
	cfg.TemplateStrategy = "dailymedian"
	cfg.RacksPerClass = 1000
	runs := map[string]func() error{
		"RunTable1": func() error { _, _, err := RunTable1(cfg); return err },
		"RunTable1Observed": func() error {
			_, _, _, err := RunTable1Observed(cfg)
			return err
		},
		"runHighPower": func() error {
			// One misspelled strategy among valid ones fails the whole sweep.
			variants := []FleetSimConfig{cfg, cfg, cfg}
			variants[0].TemplateStrategy = "dailymed"
			variants[2].TemplateStrategy = "weekly"
			_, err := runHighPower(cfg, variants, baselines.NoFeedback)
			return err
		},
		"RunDatacenterRebalance": func() error { _, err := RunDatacenterRebalance(cfg); return err },
	}
	for name, run := range runs {
		err := run()
		if err == nil || !strings.Contains(err.Error(), `"dailymedian"`) {
			t.Errorf("%s with TemplateStrategy %q: err = %v, want an unknown-strategy error", name, cfg.TemplateStrategy, err)
		}
	}
}
