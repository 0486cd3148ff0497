package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/core"
	"smartoclock/internal/parallel"
	"smartoclock/internal/predict"
	"smartoclock/internal/stats"
	"smartoclock/internal/timeseries"
	"smartoclock/internal/trace"
)

// The ablation studies isolate the design choices DESIGN.md calls out:
// the template-creation strategy behind admission control, the exploration
// step size, and the rack warning threshold. Each runs SmartOClock on
// High-Power racks (where every mechanism is stressed) and reports capping
// events, overclocking success and normalized performance.

// ablationPoint is one configuration's result.
type ablationPoint struct {
	label    string
	caps     int
	success  float64
	normPerf float64
}

// runHighPowerSmart runs SmartOClock over High-Power racks.
func runHighPowerSmart(cfg FleetSimConfig) (ablationPoint, error) {
	return runHighPower(cfg, baselines.SmartOClock)
}

// runHighPower runs one system over the High-Power racks of a fleet
// generated from cfg and aggregates the Table I metrics.
func runHighPower(cfg FleetSimConfig, sys baselines.System) (ablationPoint, error) {
	days := cfg.TrainDays + cfg.EvalDays
	fcfg := trace.DefaultFleetConfig(fleetStart, time.Duration(days)*24*time.Hour)
	fcfg.Seed = cfg.Seed
	fcfg.Regions = []string{"Ablation"}
	fcfg.RacksPerRegion = cfg.RacksPerClass
	fcfg.Step = cfg.Step
	fcfg.ClassMix = map[trace.ClusterClass]float64{trace.HighPower: 1}
	// Anomalous days land in the training window: they are precisely what
	// separates per-day aggregation from raw replay (§IV-B).
	fcfg.RackTemplate.OutlierDayProb = 0.6
	fcfg.RackTemplate.OutlierWithinDays = cfg.TrainDays
	// The single-class mix means every index is a High-Power rack.
	outs, err := streamRacks(cfg, oneSystem(&fcfg, fcfg.NumRacks(), sys))
	if err != nil {
		return ablationPoint{}, err
	}
	agg := foldRacks(outs)
	pt := ablationPoint{caps: agg.caps}
	if agg.requests > 0 {
		pt.success = 100 * float64(agg.successes) / float64(agg.requests)
	}
	if agg.perfN > 0 {
		pt.normPerf = agg.perfSum / float64(agg.perfN)
	}
	return pt, nil
}

// RunAblationTemplates compares the template strategies behind admission
// control (§IV-B) in the NoFeedback regime, isolating admission from
// exploration. Two findings: over-predicting templates (FlatMax, and
// DailyMax to a lesser degree) strangle admission outright, while
// under-predicting ones (FlatMed) are partially rescued by the
// decentralized budget-enforcement loop — evidence for the paper's Q5
// argument that local enforcement makes the system robust to prediction
// error. Prediction quality itself is measured directly in Fig 15.
func RunAblationTemplates(base FleetSimConfig) (*Table, error) {
	tbl := &Table{
		Caption: "Ablation: power-template strategy for admission control (NoFeedback regime, High-Power racks)",
		Headers: []string{"Template", "CapEvents", "Success", "Norm.Performance"},
	}
	strategies := []string{"dailymed", "dailymax", "flatmed", "flatmax", "weekly"}
	pts, err := sweepAblation(base, len(strategies), func(i int) (ablationPoint, error) {
		cfg := base
		cfg.TemplateStrategy = strategies[i]
		return runHighPower(cfg, baselines.NoFeedback)
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		tbl.AddRow(strategies[i], pt.caps, fmt.Sprintf("%.0f%%", pt.success), fmt.Sprintf("%.3f", pt.normPerf))
	}
	return tbl, nil
}

// sweepAblation runs independent configuration points concurrently and
// returns their results in sweep order; the first error wins.
func sweepAblation(base FleetSimConfig, n int, run func(i int) (ablationPoint, error)) ([]ablationPoint, error) {
	type out struct {
		pt  ablationPoint
		err error
	}
	outs := parallel.Map(n, fleetOpts(base), func(i int) out {
		pt, err := run(i)
		return out{pt, err}
	})
	pts := make([]ablationPoint, n)
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		pts[i] = o.pt
	}
	return pts, nil
}

// RunAblationExploreStep sweeps the exploration increment (§IV-D): zero
// disables exploration entirely (the NoFeedback regime), small steps
// converge slowly, large steps overshoot into warnings.
func RunAblationExploreStep(base FleetSimConfig) (*Table, error) {
	tbl := &Table{
		Caption: "Ablation: exploration step size (SmartOClock, High-Power racks)",
		Headers: []string{"StepWatts", "CapEvents", "Success", "Norm.Performance"},
	}
	steps := []float64{-1, 20, 40, 80, 160}
	pts, err := sweepAblation(base, len(steps), func(i int) (ablationPoint, error) {
		cfg := base
		cfg.ExploreStepWatts = steps[i]
		return runHighPowerSmart(cfg)
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		label := fmt.Sprintf("%.0f", steps[i])
		if steps[i] < 0 {
			label = "disabled"
		}
		tbl.AddRow(label, pt.caps, fmt.Sprintf("%.0f%%", pt.success), fmt.Sprintf("%.3f", pt.normPerf))
	}
	return tbl, nil
}

// RunAblationWarnThreshold sweeps the rack warning threshold: warning too
// late (0.99) degenerates toward NoWarning; warning too early (0.85)
// suppresses exploration and success.
func RunAblationWarnThreshold(base FleetSimConfig) (*Table, error) {
	tbl := &Table{
		Caption: "Ablation: rack warning threshold (SmartOClock, High-Power racks)",
		Headers: []string{"WarnFraction", "CapEvents", "Success", "Norm.Performance"},
	}
	fractions := []float64{0.85, 0.90, 0.95, 0.99}
	pts, err := sweepAblation(base, len(fractions), func(i int) (ablationPoint, error) {
		cfg := base
		cfg.WarnFraction = fractions[i]
		return runHighPowerSmart(cfg)
	})
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		tbl.AddRow(fmt.Sprintf("%.2f", fractions[i]), pt.caps, fmt.Sprintf("%.0f%%", pt.success), fmt.Sprintf("%.3f", pt.normPerf))
	}
	return tbl, nil
}

// RunDatacenterRebalance evaluates the hierarchy-composition extension:
// a DatacenterAgent reassigns rack power limits in proportion to each
// rack's overclocking demand before the racks run SmartOClock, versus the
// provider default of even (static) limits. The setup skews demand: one
// High-Power rack full of overclock-hungry services next to a quiet
// Low-Power rack — rebalancing should move headroom toward the demand.
func RunDatacenterRebalance(base FleetSimConfig) (*Table, error) {
	if _, err := predictorFor(base.TemplateStrategy); err != nil {
		return nil, err
	}
	days := base.TrainDays + base.EvalDays
	gen := func(name string, profiles []trace.ServiceProfile, servers int, seedOff int64) (*trace.RackTrace, error) {
		rcfg := trace.DefaultRackGenConfig(name, fleetStart, time.Duration(days)*24*time.Hour)
		rcfg.Step = base.Step
		rcfg.Profiles = profiles
		rcfg.Servers = servers
		return trace.GenRack(rcfg, rand.New(rand.NewSource(base.Seed+seedOff)))
	}
	// The hot rack hosts 28 servers of user-facing services with overclock
	// demand; the quiet rack is half-populated with batch/ML tenants that
	// never ask — the density asymmetry a provider's even split ignores.
	catalog := trace.Catalog()
	var userFacing, batch []trace.ServiceProfile
	for _, p := range catalog {
		switch p.Pattern {
		case trace.PatternSpiky, trace.PatternBroadPeak, trace.PatternDiurnal:
			userFacing = append(userFacing, p)
		default:
			batch = append(batch, p)
		}
	}
	hot, err := gen("hot", userFacing, 28, 0)
	if err != nil {
		return nil, err
	}
	quiet, err := gen("quiet", batch, 14, 1)
	if err != nil {
		return nil, err
	}
	// A tight shared budget: 5% above the racks' combined P99 draw, so
	// headroom placement matters.
	totalBudget := 1.05 * (stats.P99(hot.RackPower().Values) + stats.P99(quiet.RackPower().Values))

	run := func(hotLimit, quietLimit float64) (success float64, caps int) {
		pairs := []struct {
			rt    *trace.RackTrace
			limit float64
		}{{hot, hotLimit}, {quiet, quietLimit}}
		results := parallel.Map(len(pairs), fleetOpts(base), func(i int) rackMetrics {
			rt := *pairs[i].rt // shallow copy so the limit override is local
			rt.LimitWatts = pairs[i].limit
			return runSystem(prepareRack(&rt, base), baselines.SmartOClock, base, "", 0).m
		})
		var agg rackMetrics
		for _, m := range results {
			agg.accumulate(m)
		}
		if agg.requests > 0 {
			success = 100 * float64(agg.successes) / float64(agg.requests)
		}
		return success, agg.caps
	}

	// Static even split of the shared budget.
	evenSuccess, evenCaps := run(totalBudget/2, totalBudget/2)

	// DatacenterAgent: limits proportional to training-week demand.
	trainEnd := fleetStart.Add(time.Duration(base.TrainDays) * 24 * time.Hour)
	dc := core.NewDatacenterAgent("dc", totalBudget)
	for _, fr := range []*trace.RackTrace{hot, quiet} {
		total := fr.RackPower().Slice(fleetStart, trainEnd)
		powerTpl := timeseries.BuildWeekTemplate(total, timeseries.ReduceMedian)
		trainTicks := base.TrainDays * int(24*time.Hour/base.Step)
		rec := predict.NewOCRecorder(fleetStart, base.Step)
		for t := 0; t < trainTicks; t++ {
			demand := 0
			ts := fleetStart.Add(time.Duration(t) * base.Step)
			for _, st := range fr.Servers {
				for i := range st.Spec.VMs {
					if vm := &st.Spec.VMs[i]; wantsOC(vm, ts, base.OCThreshold) {
						demand += vm.Cores
					}
				}
			}
			rec.Record(demand, 0)
		}
		dc.SetRackProfile(fr.Name, core.ServerProfile{
			Power:      powerTpl,
			OC:         rec.Template(),
			OCCoreCost: fr.Servers[0].Spec.HW.OCCoreCost(),
		})
	}
	// Use the busiest-hour assignment as the static reallocation (a
	// provider would install per-slot limits; one representative slot
	// keeps the comparison simple). Rack baselines fluctuate above their
	// median, so each rack keeps a variance floor at its P99 draw —
	// demand-proportional splitting alone would cap the quiet rack's own
	// tenants on ordinary noise.
	limits := dc.RackLimitsAt(fleetStart.Add(7*24*time.Hour + 11*time.Hour))
	quietLimit := limits[quiet.Name]
	if floor := 1.02 * stats.P99(quiet.RackPower().Values); quietLimit < floor {
		quietLimit = floor
	}
	hotLimit := totalBudget - quietLimit
	rebalSuccess, rebalCaps := run(hotLimit, quietLimit)

	tbl := &Table{
		Caption: "Extension: datacenter-level rack-limit rebalancing (SmartOClock on a hot + quiet rack pair)",
		Headers: []string{"Assignment", "HotRackLimitW", "QuietRackLimitW", "Success", "CapEvents"},
	}
	tbl.AddRow("even-split", totalBudget/2, totalBudget/2,
		fmt.Sprintf("%.0f%%", evenSuccess), evenCaps)
	tbl.AddRow("rebalanced", hotLimit, quietLimit,
		fmt.Sprintf("%.0f%%", rebalSuccess), rebalCaps)
	return tbl, nil
}
