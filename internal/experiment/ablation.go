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

// ablation is one of the design-choice studies DESIGN.md calls out: sys
// runs under each config variant over the same High-Power racks, where
// every mechanism is stressed, and each variant's capping events,
// overclocking success and normalized performance become one table row.
type ablation struct {
	caption, knob string
	sys           baselines.System
	labels        []string
	variants      []FleetSimConfig
}

// add appends the variant base with set applied to it.
func (a *ablation) add(label string, base FleetSimConfig, set func(*FleetSimConfig)) {
	set(&base)
	a.labels = append(a.labels, label)
	a.variants = append(a.variants, base)
}

// table runs the study over the racks of base and formats its rows.
func (a *ablation) table(base FleetSimConfig) (*Table, error) {
	pts, err := runHighPower(base, a.variants, a.sys)
	if err != nil {
		return nil, err
	}
	tbl := &Table{Caption: a.caption, Headers: []string{a.knob, "CapEvents", "Success", "Norm.Performance"}}
	for i, agg := range pts {
		tbl.AddRow(a.labels[i], agg.caps, fmt.Sprintf("%.0f%%", agg.successPct()), fmt.Sprintf("%.3f", agg.normPerf()))
	}
	return tbl, nil
}

// highPowerFleetConfig is the ablations' fleet: High-Power racks only, with
// anomalous days in the training window — precisely what separates per-day
// aggregation from raw replay (§IV-B).
func highPowerFleetConfig(base FleetSimConfig) trace.FleetConfig {
	fcfg := table1FleetConfig(base, trace.HighPower, 0)
	fcfg.Regions = []string{"Ablation"}
	fcfg.RackTemplate.OutlierDayProb = 0.6
	fcfg.RackTemplate.OutlierWithinDays = base.TrainDays
	return fcfg
}

// runHighPower runs sys under each of variants over the High-Power racks of
// base in one fan-out whose units are racks, and returns each variant's
// metrics folded in rack order. The racks come from base alone, so every
// variant must keep base's Seed, RacksPerClass, Step and day counts.
func runHighPower(base FleetSimConfig, variants []FleetSimConfig, sys baselines.System) ([]rackMetrics, error) {
	for _, v := range variants {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	fcfg := highPowerFleetConfig(base)
	n := fcfg.NumRacks()
	outs, err := streamRacks(fleetOpts(base), fleetUnits(&fcfg, n, 0, variants, sys))
	if err != nil {
		return nil, err
	}
	pts := make([]rackMetrics, len(variants))
	for v := range pts {
		pts[v] = foldRacks(outs[v*n : (v+1)*n])
	}
	return pts, nil
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
	return templateAblation(base).table(base)
}

// templateAblation gives each strategy its own prep key, so a unit prepares
// its rack once per strategy.
func templateAblation(base FleetSimConfig) *ablation {
	a := &ablation{knob: "Template", sys: baselines.NoFeedback,
		caption: "Ablation: power-template strategy for admission control (NoFeedback regime, High-Power racks)"}
	for _, s := range []string{"dailymed", "dailymax", "flatmed", "flatmax", "weekly"} {
		a.add(s, base, func(c *FleetSimConfig) { c.TemplateStrategy = s })
	}
	return a
}

// RunAblationExploreStep sweeps the exploration increment (§IV-D): disabled
// exploration is the NoFeedback regime, small steps converge slowly, large
// steps overshoot into warnings.
func RunAblationExploreStep(base FleetSimConfig) (*Table, error) {
	return exploreStepAblation(base).table(base)
}

func exploreStepAblation(base FleetSimConfig) *ablation {
	a := &ablation{knob: "StepWatts", sys: baselines.SmartOClock,
		caption: "Ablation: exploration step size (SmartOClock, High-Power racks)"}
	a.add("disabled", base, func(c *FleetSimConfig) { c.ExploreStepWatts = -1 })
	for _, w := range []float64{20, 40, 80, 160} {
		a.add(fmt.Sprintf("%.0f", w), base, func(c *FleetSimConfig) { c.ExploreStepWatts = w })
	}
	return a
}

// RunAblationWarnThreshold sweeps the rack warning threshold: warning too
// late (0.99) degenerates toward NoWarning; warning too early (0.85)
// suppresses exploration and success.
func RunAblationWarnThreshold(base FleetSimConfig) (*Table, error) {
	return warnAblation(base).table(base)
}

func warnAblation(base FleetSimConfig) *ablation {
	a := &ablation{knob: "WarnFraction", sys: baselines.SmartOClock,
		caption: "Ablation: rack warning threshold (SmartOClock, High-Power racks)"}
	for _, f := range []float64{0.85, 0.90, 0.95, 0.99} {
		a.add(fmt.Sprintf("%.2f", f), base, func(c *FleetSimConfig) { c.WarnFraction = f })
	}
	return a
}

// RunDatacenterRebalance evaluates the hierarchy-composition extension:
// a DatacenterAgent reassigns rack power limits in proportion to each
// rack's overclocking demand before the racks run SmartOClock, versus the
// provider default of even (static) limits. The setup skews demand: one
// High-Power rack full of overclock-hungry services next to a quiet
// Low-Power rack — rebalancing should move headroom toward the demand.
func RunDatacenterRebalance(base FleetSimConfig) (*Table, error) {
	if err := base.Validate(); err != nil {
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
			return runSystem(prepareRack(&rt, base.prepKey()), baselines.SmartOClock, base, "", 0).m
		})
		var agg rackMetrics
		for _, m := range results {
			agg.accumulate(m)
		}
		return agg.successPct(), agg.caps
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
