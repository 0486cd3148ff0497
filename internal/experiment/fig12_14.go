package experiment

import (
	"errors"
	"fmt"

	"smartoclock/internal/parallel"
	"smartoclock/internal/workload"
)

// MergeClusterObservations folds the per-system observations of a sweep
// into one, in the given system order — the same fixed fold order that keeps
// the fleet sweep deterministic. Runs without observability (Observe false)
// contribute nothing.
func MergeClusterObservations(systems []ClusterSystem, results map[ClusterSystem]*ClusterResult) *FleetObservation {
	parts := make([]*FleetObservation, 0, len(systems))
	for _, sys := range systems {
		if r := results[sys]; r != nil {
			parts = append(parts, &r.FleetObservation)
		}
	}
	return mergeObservations(parts...)
}

// runClusters runs one emulation per config, at most workers at a time,
// and returns the results in config order. Each emulation owns its entire
// world — servers, racks, rng — so the runs need no coordination. It is the
// only cluster fan-out: every sweep below is a list of configs.
func runClusters(workers int, cfgs []ClusterConfig) ([]*ClusterResult, error) {
	errs := make([]error, len(cfgs))
	results := parallel.Map(len(cfgs), parallel.Options{Workers: workers}, func(i int) *ClusterResult {
		res, err := RunCluster(cfgs[i])
		errs[i] = err
		return res
	})
	return results, errors.Join(errs...)
}

// runSystems runs base once per system and keys the results by system.
func runSystems(base ClusterConfig, systems []ClusterSystem) (map[ClusterSystem]*ClusterResult, error) {
	cfgs := make([]ClusterConfig, len(systems))
	for i, sys := range systems {
		cfgs[i] = base
		cfgs[i].System = sys
	}
	results, err := runClusters(base.Workers, cfgs)
	bySystem := make(map[ClusterSystem]*ClusterResult, len(systems))
	for i, res := range results {
		bySystem[systems[i]] = res
	}
	return bySystem, err
}

// RunFig12To14 executes the four cluster systems and assembles the three
// result tables of §V-A: latency (Fig 12), cost (Fig 13) and energy
// (Fig 14).
func RunFig12To14(base ClusterConfig) (fig12, fig13, fig14 *Table, results map[ClusterSystem]*ClusterResult, err error) {
	results, err = runSystems(base, ClusterSystems())
	if err != nil {
		return nil, nil, nil, nil, err
	}

	fig12 = &Table{
		Caption: "Fig 12: SocialNet latency normalized to SLO (P99 of per-tick samples / mean), with missed SLO counts",
		Headers: []string{"System", "P99.Low", "P99.Med", "P99.High", "Avg.High", "Missed.Low", "Missed.Med", "Missed.High"},
	}
	fig13 = &Table{
		Caption: "Fig 13: Average concurrently active SocialNet instances",
		Headers: []string{"System", "Instances", "Inst.Low", "Inst.Med", "Inst.High"},
	}
	fig14 = &Table{
		Caption: "Fig 14: Energy, normalized to Baseline per-server and to ScaleOut for totals",
		Headers: []string{"System", "PerSrv.Low", "PerSrv.Med", "PerSrv.High", "TotalNorm", "LatencyCriticalNorm"},
	}
	baseRes := results[SysBaseline]
	scaleOutRes := results[SysScaleOut]
	for _, sys := range ClusterSystems() {
		r := results[sys]
		fig12.AddRow(sys.String(),
			r.NormP99[workload.LowLoad], r.NormP99[workload.MediumLoad], r.NormP99[workload.HighLoad],
			r.NormAvg[workload.HighLoad],
			r.MissedSLO[workload.LowLoad], r.MissedSLO[workload.MediumLoad], r.MissedSLO[workload.HighLoad])
		fig13.AddRow(sys.String(), r.MeanInstances,
			r.MeanInstancesByLevel[workload.LowLoad],
			r.MeanInstancesByLevel[workload.MediumLoad],
			r.MeanInstancesByLevel[workload.HighLoad])
		norm := func(lvl workload.LoadLevel) float64 {
			if baseRes.ServerEnergy[lvl] == 0 {
				return 0
			}
			return r.ServerEnergy[lvl] / baseRes.ServerEnergy[lvl]
		}
		totalNorm, lcNorm := 0.0, 0.0
		if scaleOutRes.TotalEnergy > 0 {
			totalNorm = r.TotalEnergy / scaleOutRes.TotalEnergy
		}
		if scaleOutRes.LCEnergy > 0 {
			lcNorm = r.LCEnergy / scaleOutRes.LCEnergy
		}
		fig14.AddRow(sys.String(),
			norm(workload.LowLoad), norm(workload.MediumLoad), norm(workload.HighLoad),
			totalNorm, lcNorm)
	}
	return fig12, fig13, fig14, results, nil
}

// RunPowerConstrained reproduces §V-A's power-constrained experiment:
// NaiveOClock vs SmartOClock under a reduced rack limit, reporting
// SocialNet tail latency, MLTrain throughput and capping events.
func RunPowerConstrained(base ClusterConfig, limitScale float64) (*Table, map[ClusterSystem]*ClusterResult, error) {
	cfg := base
	cfg.RackLimitScale = limitScale
	results, err := runSystems(cfg, []ClusterSystem{SysNaiveOClock, SysSmartOClock})
	if err != nil {
		return nil, nil, err
	}
	tbl := &Table{
		Caption: fmt.Sprintf("Power-constrained (rack limit x%.2f): NaiveOClock vs SmartOClock", limitScale),
		Headers: []string{"System", "P99.Med", "P99.High", "MLThroughput", "CapEvents", "Missed.High"},
	}
	for _, sys := range []ClusterSystem{SysNaiveOClock, SysSmartOClock} {
		r := results[sys]
		tbl.AddRow(sys.String(), r.NormP99[workload.MediumLoad], r.NormP99[workload.HighLoad],
			r.MLThroughput, r.CapEvents, r.MissedSLO[workload.HighLoad])
	}
	return tbl, results, nil
}

// RunOCConstrained reproduces §V-A's overclocking-constrained experiment:
// the overclocking budget is reduced to 75/50/25% of its initial value and
// reactive vs proactive corrective scale-out are compared on the fraction
// of time with missed SLOs.
func RunOCConstrained(base ClusterConfig, initialBudget float64) (*Table, error) {
	tbl := &Table{
		Caption: "Overclocking-constrained: fraction of time with missed SLOs",
		Headers: []string{"BudgetPct", "Reactive", "Proactive"},
	}
	// The 3x2 (budget, corrective-policy) grid flattens into independent
	// emulations; results come back in grid order.
	pcts := []float64{0.75, 0.50, 0.25}
	var cfgs []ClusterConfig
	for _, pct := range pcts {
		for _, proactive := range []bool{false, true} {
			cfg := base
			cfg.System = SysSmartOClock
			cfg.OCBudgetScale = initialBudget * pct
			cfg.Proactive = proactive
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runClusters(base.Workers, cfgs)
	if err != nil {
		return nil, err
	}
	for i, pct := range pcts {
		reactive, proactive := results[2*i], results[2*i+1]
		tbl.AddRow(fmt.Sprintf("%.0f%%", pct*100),
			fmt.Sprintf("%.1f%%", 100*reactive.MissedTickFrac), fmt.Sprintf("%.1f%%", 100*proactive.MissedTickFrac))
	}
	return tbl, nil
}
