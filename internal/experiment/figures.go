package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/parallel"
	"smartoclock/internal/predict"
	"smartoclock/internal/stats"
	"smartoclock/internal/trace"
	"smartoclock/internal/workload"
)

// figStart is a Monday at midnight, the anchor for all trace-driven
// figures.
var figStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// Fig1 reproduces the load pattern of three services on a typical weekday
// (normalized to each service's peak), sampled hourly with 5-minute
// resolution underneath.
func Fig1() *Table {
	services := []trace.ServiceProfile{trace.ServiceA(), trace.ServiceB(), trace.ServiceC()}
	day := figStart.Add(24 * time.Hour) // Tuesday
	tbl := &Table{
		Caption: "Fig 1: Load pattern on a typical weekday (normalized to each service's peak)",
		Headers: []string{"Hour", "ServiceA", "ServiceB", "ServiceC"},
	}
	// Peak per service over the day at 5-minute sampling.
	peaks := make([]float64, len(services))
	for si, svc := range services {
		for m := 0; m < 24*12; m++ {
			u := svc.UtilAt(day.Add(time.Duration(m)*5*time.Minute), nil)
			if u > peaks[si] {
				peaks[si] = u
			}
		}
	}
	for h := 0; h < 24; h++ {
		row := []any{fmt.Sprintf("%02d:00", h)}
		for si, svc := range services {
			// Report the hourly mean: Services B and C peak for ~5 minutes
			// at the top and bottom of each hour, so their mean sits well
			// below 1 while Service A's broad peak saturates it.
			sum := 0.0
			for m := 0; m < 12; m++ {
				sum += svc.UtilAt(day.Add(time.Duration(h)*time.Hour+time.Duration(m)*5*time.Minute), nil)
			}
			row = append(row, sum/12/peaks[si])
		}
		tbl.AddRow(row...)
	}
	return tbl
}

// Fig2And3 reproduces the SocialNet characterization: per-service P99
// latency (Fig 2) and CPU utilization (Fig 3) under three loads in the
// Baseline (1×turbo), Overclock (1×max OC) and ScaleOut (2×turbo)
// environments.
func Fig2And3() (fig2, fig3 *Table) {
	hw := machine.DefaultConfig()
	fig2 = &Table{
		Caption: "Fig 2: SocialNet P99 latency (ms); SLO = 5x unloaded latency; * marks SLO violation",
		Headers: []string{"Service", "Load", "SLOms", "Baseline", "Overclock", "ScaleOut"},
	}
	fig3 = &Table{
		Caption: "Fig 3: SocialNet CPU utilization",
		Headers: []string{"Service", "Load", "Baseline", "Overclock", "ScaleOut"},
	}
	type env struct {
		freq, instances int
	}
	envs := []env{{hw.TurboMHz, 1}, {hw.MaxOCMHz, 1}, {hw.TurboMHz, 2}}
	for _, svc := range workload.SocialNet() {
		for _, level := range workload.Levels() {
			rps := level.RPS(svc, hw.TurboMHz)
			lat := make([]string, len(envs))
			util := make([]any, len(envs))
			for ei, e := range envs {
				d := workload.NewDeployment(svc, e.instances)
				res := d.Step(time.Second, rps, e.freq, hw.TurboMHz, nil)
				mark := ""
				if res.SLOvio {
					mark = "*"
				}
				lat[ei] = fmt.Sprintf("%.2f%s", res.P99MS, mark)
				util[ei] = res.Util
			}
			fig2.AddRow(svc.Name, level.String(), svc.SLOms(), lat[0], lat[1], lat[2])
			fig3.AddRow(append([]any{svc.Name, level.String()}, util...)...)
		}
	}
	return fig2, fig3
}

// Fig4 reproduces the WebConf deployment-level observation: two VMs at 10%
// and 80% load; overclocking the hot VM is unnecessary when the
// deployment-level utilization already meets the target.
func Fig4() *Table {
	hw := machine.DefaultConfig()
	w := workload.NewWebConf(1000)
	lowRPS := w.RPSAtUtil(0.10, hw.TurboMHz, hw.TurboMHz)
	highRPS := w.RPSAtUtil(0.80, hw.TurboMHz, hw.TurboMHz)
	tbl := &Table{
		Caption: "Fig 4: WebConf VM and deployment-level CPU utilization (target 50%)",
		Headers: []string{"Config", "VM1util", "VM2util", "DeploymentUtil", "MeetsTarget"},
	}
	for _, oc := range []bool{false, true} {
		freq := hw.TurboMHz
		name := "Baseline"
		if oc {
			freq = hw.MaxOCMHz
			name = "Overclock-VM2"
		}
		u1 := w.Util(lowRPS, hw.TurboMHz, hw.TurboMHz)
		u2 := w.Util(highRPS, freq, hw.TurboMHz)
		dep := workload.DeploymentUtil([]float64{u1, u2})
		tbl.AddRow(name, u1, u2, dep, dep <= 0.5)
	}
	return tbl
}

// Fig5 reproduces the CDF of average, median and P99 rack power
// utilization across a generated fleet (the paper's 7.1k racks scaled
// down).
func Fig5(racks int, seed int64) (*Table, error) {
	cfg := trace.DefaultFleetConfig(figStart, 14*24*time.Hour)
	cfg.Seed = seed
	cfg.Regions = []string{"Fleet"}
	cfg.RacksPerRegion = racks
	// The broad fleet skews toward lightly loaded racks (§III-Q2: half
	// the racks average below ~66%); the Table I simulation uses an even
	// class mix instead.
	cfg.ClassMix = map[trace.ClusterClass]float64{
		trace.HighPower: 0.2, trace.MediumPower: 0.35, trace.LowPower: 0.45,
	}
	// Stream rack by rack: each worker generates one rack, reduces it to
	// three stats and drops the trace, so figure-scale fleets never hold
	// more than O(workers) racks in memory.
	type rackStats struct {
		a, m, p float64
		err     error
	}
	outs := parallel.Map(cfg.NumRacks(), parallel.Options{}, func(i int) rackStats {
		fr, err := trace.GenFleetRack(cfg, i)
		if err != nil {
			return rackStats{err: err}
		}
		a, m, p := fr.UtilizationStats()
		return rackStats{a: a, m: m, p: p}
	})
	var avgs, meds, p99s []float64
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		avgs = append(avgs, o.a)
		meds = append(meds, o.m)
		p99s = append(p99s, o.p)
	}
	tbl := &Table{
		Caption: fmt.Sprintf("Fig 5: CDF of rack power utilization across %d racks", cfg.NumRacks()),
		Headers: []string{"CDF", "Average", "P50", "P99"},
	}
	for _, q := range []float64{10, 25, 50, 75, 90, 99} {
		tbl.AddRow(fmt.Sprintf("p%.0f", q),
			stats.Percentile(avgs, q), stats.Percentile(meds, q), stats.Percentile(p99s, q))
	}
	return tbl, nil
}

// Fig6 reproduces one rack's power over five weekdays, with and without
// naive overclocking, against the rack limit. It returns the table plus
// the fraction of time naive overclocking exceeds the limit (the paper
// reports ~15% on constrained racks).
func Fig6(seed int64) (*Table, float64, error) {
	cfg := trace.DefaultRackGenConfig("fig6", figStart, 7*24*time.Hour)
	cfg.TargetP99Util = trace.HighPower.TargetP99Util()
	rack, err := trace.GenRack(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, 0, err
	}
	base := rack.RackPower()
	ocCost := cfg.HW.OCCoreCost()
	over := 0
	total := 0
	tbl := &Table{
		Caption: fmt.Sprintf("Fig 6: Rack power over 5 weekdays (limit %.0f W), hourly max", rack.LimitWatts),
		Headers: []string{"Time", "BaselineW", "WithOverclockW", "OverLimit"},
	}
	for i := 0; i < base.Len(); i++ {
		ts := base.TimeAt(i)
		c := trace.ClockOf(ts)
		if c.Weekend {
			continue
		}
		// Overclock demand from the rack's user-facing VMs.
		demand := 0.0
		for _, st := range rack.Servers {
			for j := range st.Spec.VMs {
				if vm := &st.Spec.VMs[j]; wantsOC(vm, c, 0.5) {
					demand += float64(vm.Cores) * ocCost * 0.6
				}
			}
		}
		withOC := base.Values[i] + demand
		total++
		if withOC > rack.LimitWatts {
			over++
		}
		if ts.Minute() == 0 && ts.Hour()%3 == 0 {
			tbl.AddRow(ts.Format("Mon 15:04"), base.Values[i], withOC, withOC > rack.LimitWatts)
		}
	}
	frac := 0.0
	if total > 0 {
		frac = float64(over) / float64(total)
	}
	return tbl, frac, nil
}

// Fig7 reproduces the CPU aging comparison over a 5-day diurnal trace:
// expected aging, non-overclocked, always-overclock and overclock-aware
// (25% of time at the daily peak).
func Fig7() *Table {
	model := lifetime.DefaultAgingModel()
	hw := machine.DefaultConfig()
	vr := hw.VoltageRatio(hw.MaxOCMHz)
	diurnal := trace.ServiceProfile{
		Name: "diurnal", Pattern: trace.PatternDiurnal,
		BaseUtil: 0.10, PeakUtil: 0.66, WeekendFactor: 1,
	}
	simulate := func(ocHour func(h int) bool) time.Duration {
		w := lifetime.NewWear(model)
		for d := 0; d < 5; d++ {
			for h := 0; h < 24; h++ {
				ts := figStart.Add(time.Duration(d*24+h) * time.Hour)
				ratio := 1.0
				if ocHour(h) {
					ratio = vr
				}
				w.Add(time.Hour, diurnal.UtilAt(ts, nil), ratio)
			}
		}
		return w.Aged()
	}
	days := func(d time.Duration) float64 { return d.Hours() / 24 }
	tbl := &Table{
		Caption: "Fig 7: CPU ageing over a 5-day diurnal trace",
		Headers: []string{"Policy", "AgedDays", "OCFraction"},
	}
	tbl.AddRow("Expected ageing", 5.0, "-")
	tbl.AddRow("Non-overclocked", days(simulate(func(int) bool { return false })), "0%")
	tbl.AddRow("Always overclock", days(simulate(func(int) bool { return true })), "100%")
	tbl.AddRow("Overclock-aware", days(simulate(func(h int) bool { return h >= 10 && h < 16 })), "25%")
	return tbl
}

// Fig8 reproduces the CDF of DailyMed rack-power prediction RMSE across
// regions: templates are fitted on week one and scored on week two.
func Fig8(racksPerRegion int, seed int64) (*Table, error) {
	// Two training weeks (so the weekend template has four samples and a
	// robust median) and one evaluation week. Anomalous days stay in
	// training: Fig 8 measures steady-state predictability; predictor
	// robustness to outliers is Fig 15's story.
	cfg := trace.DefaultFleetConfig(figStart, 21*24*time.Hour)
	cfg.Seed = seed
	cfg.RacksPerRegion = racksPerRegion
	cfg.RackTemplate.OutlierWithinDays = 14
	split := figStart.Add(14 * 24 * time.Hour)
	// Stream: one rack per worker, reduced to (region, RMSE). Folding in
	// rack-index order keeps each region's RMSE list in generation order.
	type rackRMSE struct {
		region string
		rmse   float64
		err    error
	}
	outs := parallel.Map(cfg.NumRacks(), parallel.Options{}, func(i int) rackRMSE {
		fr, err := trace.GenFleetRack(cfg, i)
		if err != nil {
			return rackRMSE{err: err}
		}
		total := fr.RackPower()
		train := total.Slice(figStart, split)
		test := total.Slice(split, total.End())
		ev, err := predict.Evaluate(predict.NewDailyMed(), train, test)
		if err != nil {
			return rackRMSE{err: err}
		}
		return rackRMSE{region: fr.Region, rmse: ev.RMSE}
	})
	byRegion := map[string][]float64{}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		byRegion[o.region] = append(byRegion[o.region], o.rmse)
	}
	tbl := &Table{
		Caption: "Fig 8: CDF of rack power prediction RMSE (W) per region (DailyMed)",
		Headers: []string{"Region", "p50", "p90", "p99"},
	}
	for _, region := range cfg.Regions {
		rs := byRegion[region]
		tbl.AddRow(region, stats.Percentile(rs, 50), stats.Percentile(rs, 90), stats.Percentile(rs, 99))
	}
	return tbl, nil
}

// Fig9 reproduces the normalized power of six servers within one rack over
// a week (4-hour sampling), showing heterogeneous profiles and a changing
// dominant server.
func Fig9(seed int64) (*Table, error) {
	cfg := trace.DefaultRackGenConfig("fig9", figStart, 7*24*time.Hour)
	cfg.Servers = 6
	rack, err := trace.GenRack(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	// Normalize to the max across all servers and times.
	maxP := 0.0
	for _, s := range rack.Servers {
		if m := s.Power.Max(); m > maxP {
			maxP = m
		}
	}
	tbl := &Table{
		Caption: "Fig 9: Normalized power of six servers in one rack (4-hour samples)",
		Headers: []string{"Time", "SrvA", "SrvB", "SrvC", "SrvD", "SrvE", "SrvF", "Dominant"},
	}
	steps := rack.Servers[0].Power.Len()
	stride := int(4 * time.Hour / cfg.Step)
	for i := 0; i < steps; i += stride {
		row := []any{rack.Servers[0].Power.TimeAt(i).Format("Mon 15:04")}
		best, bestP := 0, 0.0
		for si, s := range rack.Servers {
			v := s.Power.Values[i] / maxP
			row = append(row, v)
			if s.Power.Values[i] > bestP {
				bestP = s.Power.Values[i]
				best = si
			}
		}
		row = append(row, string(rune('A'+best)))
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// Fig15 reproduces the comparison of template-creation strategies: the
// distribution of mean prediction error (signed; positive = over-predicts)
// and RMSE per strategy across a generated fleet.
func Fig15(racks int, seed int64) (*Table, error) {
	cfg := trace.DefaultFleetConfig(figStart, 14*24*time.Hour)
	cfg.Seed = seed
	cfg.Regions = []string{"Fleet"}
	cfg.RacksPerRegion = racks
	// Outlier days in the training week are what separate Weekly (which
	// replays them) from DailyMed (whose per-day median rejects them).
	cfg.RackTemplate.OutlierDayProb = 0.5
	cfg.RackTemplate.OutlierWithinDays = 7
	split := figStart.Add(7 * 24 * time.Hour)
	// Stream: each worker generates its rack and reduces it to per-strategy
	// evaluations; the trace is dropped before the next rack starts.
	type rackEvals struct {
		evs []predict.Evaluation
		err error
	}
	outs := parallel.Map(cfg.NumRacks(), parallel.Options{}, func(i int) rackEvals {
		fr, err := trace.GenFleetRack(cfg, i)
		if err != nil {
			return rackEvals{err: err}
		}
		total := fr.RackPower()
		train := total.Slice(figStart, split)
		test := total.Slice(split, total.End())
		evs, err := predict.EvaluateAll(train, test)
		return rackEvals{evs: evs, err: err}
	})
	errs := map[string][]float64{}
	rmses := map[string][]float64{}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		for _, ev := range o.evs {
			errs[ev.Strategy] = append(errs[ev.Strategy], ev.MeanErr)
			rmses[ev.Strategy] = append(rmses[ev.Strategy], ev.RMSE)
		}
	}
	tbl := &Table{
		Caption: "Fig 15: Power prediction per strategy (signed mean error W; positive = over-prediction)",
		Headers: []string{"Strategy", "ErrP10", "ErrP50", "ErrP90", "RMSEp50", "RMSEp99"},
	}
	for _, p := range predict.All() {
		name := p.Name()
		tbl.AddRow(name,
			stats.Percentile(errs[name], 10),
			stats.Percentile(errs[name], 50),
			stats.Percentile(errs[name], 90),
			stats.Percentile(rmses[name], 50),
			stats.Percentile(rmses[name], 99))
	}
	return tbl, nil
}

// Fig16 reproduces the production Service B experiment: CPU utilization vs
// request rate with and without overclocking, plus the extra load served
// at equal utilization.
func Fig16() *Table {
	hw := machine.DefaultConfig()
	w := workload.NewWebConf(2000)
	tbl := &Table{
		Caption: "Fig 16: Service B CPU utilization vs request rate",
		Headers: []string{"RPS", "BaselineUtil", "OverclockUtil", "UtilReduction"},
	}
	for rps := 600.0; rps <= 1800; rps += 200 {
		b := w.Util(rps, hw.TurboMHz, hw.TurboMHz)
		o := w.Util(rps, hw.MaxOCMHz, hw.TurboMHz)
		tbl.AddRow(fmt.Sprintf("%.0f", rps), b, o, fmt.Sprintf("%.0f%%", 100*(1-o/b)))
	}
	peakUtil := w.Util(1800, hw.TurboMHz, hw.TurboMHz)
	extra := w.RPSAtUtil(peakUtil, hw.MaxOCMHz, hw.TurboMHz)/1800 - 1
	tbl.AddRow("equal-util", peakUtil, peakUtil, fmt.Sprintf("+%.0f%% load", 100*extra))
	return tbl
}

// ServiceAExtraLoad reproduces §V-C's Service A synthetic-traffic result:
// the additional load fraction the service's VMs absorb when overclocked
// at their provisioning utilization target (the paper reports 25%).
func ServiceAExtraLoad() float64 {
	hw := machine.DefaultConfig()
	w := workload.NewWebConf(1000)
	target := 0.8 // provisioning target utilization
	base := w.RPSAtUtil(target, hw.TurboMHz, hw.TurboMHz)
	oc := w.RPSAtUtil(target, hw.MaxOCMHz, hw.TurboMHz)
	return oc/base - 1
}

// Fig17 reproduces the Service C experiment: 5-minute utilization peaks
// over a weekday with and without overclocking, and the peak reduction.
func Fig17() (*Table, float64) {
	hw := machine.DefaultConfig()
	svc := trace.ServiceC()
	w := workload.NewWebConf(1000)
	day := figStart.Add(24 * time.Hour)
	var basePeaks, ocPeaks []float64
	for h := 8; h < 20; h++ {
		baseMax, ocMax := 0.0, 0.0
		for m := 0; m < 12; m++ {
			ts := day.Add(time.Duration(h)*time.Hour + time.Duration(m)*5*time.Minute)
			load := svc.UtilAt(ts, nil) // offered load fraction
			rps := load * w.CapacityRPSAtTurbo
			if u := w.Util(rps, hw.TurboMHz, hw.TurboMHz); u > baseMax {
				baseMax = u
			}
			if u := w.Util(rps, hw.MaxOCMHz, hw.TurboMHz); u > ocMax {
				ocMax = u
			}
		}
		basePeaks = append(basePeaks, baseMax)
		ocPeaks = append(ocPeaks, ocMax)
	}
	tbl := &Table{
		Caption: "Fig 17: Service C 5-minute utilization peaks over a weekday",
		Headers: []string{"Hour", "BaselinePeak", "OverclockPeak"},
	}
	for i := range basePeaks {
		tbl.AddRow(fmt.Sprintf("%02d:00", 8+i), basePeaks[i], ocPeaks[i])
	}
	reduction := 1 - stats.Mean(ocPeaks)/stats.Mean(basePeaks)
	return tbl, reduction
}
