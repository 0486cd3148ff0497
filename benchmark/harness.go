package main

import (
	"fmt"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/experiment"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/power"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
	"smartoclock/internal/trace"
)

// The layer harness re-drives the fleet simulation's rack loop from
// outside: it regenerates the racks the end-to-end workloads stream, builds
// hosts, templates, agents and the rack manager through exported
// constructors only, and wraps every call into a layer in a span. Nothing
// under internal/ knows it is being timed. Span names are
// "<layer>.<call>"; per-tick calls are batched into one span per layer per
// tick carrying the call count.

// harnessStart is a Monday midnight like the fleet experiments use, so
// weekday templates line up with training data.
var harnessStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// harnessConfig is one fleet shape the harness replays.
type harnessConfig struct {
	fcfg                trace.FleetConfig
	trainDays, evalDays int
}

// fleetStreamHarness mirrors the fleet-stream workload's rack recipe.
func fleetStreamHarness(seed int64, sz sizes) harnessConfig {
	const trainDays, evalDays = 2, 1
	fcfg := trace.DefaultFleetConfig(harnessStart, (trainDays+evalDays)*24*time.Hour)
	fcfg.Seed = seed
	fcfg.Regions = []string{"Scale"}
	fcfg.RacksPerRegion = sz.FleetRacks
	fcfg.RackTemplate.Servers = sz.FleetServers
	return harnessConfig{fcfg, trainDays, evalDays}
}

// table1Harness mirrors a Table I shard's rack recipe (the high-power
// class): full-density racks and the long training window.
func table1Harness(seed int64, sz sizes) harnessConfig {
	days := sz.TableTrainDays + sz.TableEvalDays
	fcfg := trace.DefaultFleetConfig(harnessStart, time.Duration(days)*24*time.Hour)
	fcfg.Seed = seed
	fcfg.Regions = []string{"SimRegion"}
	fcfg.RacksPerRegion = sz.TableRacksPerClass
	fcfg.ClassMix = map[trace.ClusterClass]float64{trace.HighPower: 1}
	return harnessConfig{fcfg, sz.TableTrainDays, sz.TableEvalDays}
}

// rackFixture is what a harness rack leaves behind: the assembled control
// plane in its end-of-run state, for the micro-measurements that need a
// warm agent rather than a fresh one.
type rackFixture struct {
	hosts []*cluster.Server
	soas  []*core.SOA
	goa   *core.GOA
	rack  *power.Rack
	bcfg  lifetime.BudgetConfig
	start time.Time // evaluation start
	now   time.Time // last tick
}

// rackOutcome is the simulated output of one harness rack. It must not
// depend on whether spans were recorded.
type rackOutcome struct {
	granted, rejected, capEvents int
}

// ocDemand is the number of cores asking to overclock on a server at ts:
// the user-facing VMs whose service utilization is above threshold — the
// same signal the fleet simulation derives its requests from.
func ocDemand(spec trace.ServerSpec, ts time.Time, threshold float64) (demand, calls int) {
	for _, vm := range spec.VMs {
		switch vm.Service.Pattern {
		case trace.PatternSpiky, trace.PatternBroadPeak, trace.PatternDiurnal:
			calls++
			if vm.Service.UtilAt(ts, nil) >= threshold {
				demand += vm.Cores
			}
		}
	}
	if demand > spec.HW.Cores {
		demand = spec.HW.Cores
	}
	return demand, calls
}

// harnessRack drives rack idx of hc through every fleet layer, recording
// spans into log (nil records nothing) under trace id `traceID`.
func harnessRack(log *spanLog, hc harnessConfig, idx, traceID int) (rackOutcome, *rackFixture, error) {
	step := hc.fcfg.Step
	fleetCfg := experiment.DefaultFleetSimConfig()
	evalStart := harnessStart.Add(time.Duration(hc.trainDays) * 24 * time.Hour)
	perDay := int(24 * time.Hour / step)
	trainTicks, evalTicks := hc.trainDays*perDay, hc.evalDays*perDay

	root := log.begin("experiment.rack", 0, traceID)
	defer func() { log.end(root, 1) }()

	sp := log.begin("trace.gen_rack", root, traceID)
	fr, err := trace.GenFleetRack(hc.fcfg, idx)
	log.end(sp, 1)
	if err != nil {
		return rackOutcome{}, nil, err
	}
	rt := fr.RackTrace
	n := len(rt.Servers)

	sp = log.begin("cluster.new_server", root, traceID)
	hosts := make([]*cluster.Server, n)
	members := make([]power.Server, n)
	for i, st := range rt.Servers {
		hosts[i] = cluster.NewServer(st.Spec.Name, st.Spec.HW, 0)
		members[i] = hosts[i]
	}
	log.end(sp, n)

	// Overclock demand per server over training then evaluation.
	sp = log.begin("trace.util_at", root, traceID)
	demand := make([][]int, n)
	utilCalls := 0
	for i, st := range rt.Servers {
		demand[i] = make([]int, trainTicks+evalTicks)
		for t := range demand[i] {
			d, calls := ocDemand(st.Spec, harnessStart.Add(time.Duration(t)*step), fleetCfg.OCThreshold)
			demand[i][t] = d
			utilCalls += calls
		}
	}
	log.end(sp, utilCalls)

	rack := power.NewRack(power.DefaultRackConfig(rt.Name, rt.LimitWatts), members...)
	goa := core.NewGOA(rt.Name, rt.LimitWatts)

	// Template training: one power template and one overclock template per
	// server from the training window.
	powerTpls := make([]*timeseries.WeekTemplate, n)
	for i, st := range rt.Servers {
		sp = log.begin("timeseries.slice", root, traceID)
		train := st.Power.Slice(harnessStart, evalStart)
		log.end(sp, 1)

		sp = log.begin("predict.daily_fit", root, traceID)
		p := predict.NewDailyMed()
		p.Fit(train)
		tpl := p.Template()
		log.end(sp, 1)

		sp = log.begin("predict.oc_template", root, traceID)
		rec := predict.NewOCRecorder(harnessStart, step)
		for _, d := range demand[i][:trainTicks] {
			rec.Record(d, 0)
		}
		oc := rec.Template()
		log.end(sp, 1)

		powerTpls[i] = tpl
		goa.SetProfile(st.Spec.Name, core.ServerProfile{Power: tpl, OC: oc, OCCoreCost: st.Spec.HW.OCCoreCost()})
	}
	sp = log.begin("core.goa_budget_templates", root, traceID)
	budgets := goa.BudgetTemplates(step)
	log.end(sp, 1)

	// Server agents, configured the way the fleet simulation configures
	// SmartOClock (one 5-minute tick stands for ~10 exploration rounds).
	sp = log.begin("core.new_soa", root, traceID)
	base := core.DefaultSOAConfig()
	base.ProfileStep = step
	base.ExploreConfirm = step
	base.ExploitTime = 6 * step
	base.InitialBackoff = step
	base.MaxBackoff = 12 * step
	base.ExploreStepWatts = 40
	base.DefaultOCHorizon = 15 * time.Minute
	base.AdmissionUtil = 0.7
	base.BufferWatts = 15
	oracle := func(extra float64) bool { return rack.Power()+extra <= rt.LimitWatts }
	bcfg := lifetime.BudgetConfig{Epoch: 7 * 24 * time.Hour, Fraction: fleetCfg.OCBudgetFraction, CarryOver: true, MaxCarryOver: 1}
	soas := make([]*core.SOA, n)
	for i, st := range rt.Servers {
		scfg := baselines.SOAConfig(baselines.SmartOClock, base, oracle)
		soas[i] = core.NewSOA(scfg, hosts[i], lifetime.NewCoreBudgets(bcfg, st.Spec.HW.Cores, evalStart), rt.LimitWatts/float64(n), evalStart)
		soas[i].SetAssignedBudget(budgets[st.Spec.Name])
		soas[i].SetPowerTemplate(powerTpls[i])
	}
	log.end(sp, n)

	var now time.Time
	rack.Subscribe(func(ev power.Event) {
		for _, a := range soas {
			a.OnRackEvent(now, ev)
		}
	})

	for t := 0; t < evalTicks; t++ {
		now = evalStart.Add(time.Duration(t) * step)

		sp = log.begin("cluster.set_util", root, traceID)
		for i, st := range rt.Servers {
			u := st.Util.Values[trainTicks+t]
			for c := 0; c < hosts[i].NumCores(); c++ {
				hosts[i].SetCoreUtil(c, u)
			}
		}
		log.end(sp, n)

		sp = log.begin("core.soa_request", root, traceID)
		calls := 0
		for i := range rt.Servers {
			d := demand[i][trainTicks+t]
			prev := 0
			if s, active := soas[i].Sessions()["oc"]; active {
				prev = len(s.Cores)
			}
			if d == prev {
				continue
			}
			if prev > 0 {
				soas[i].Stop(now, "oc")
				calls++
			}
			if d > 0 {
				soas[i].Request(now, core.Request{VM: "oc", Cores: d, TargetMHz: hosts[i].MaxOCMHz(), Priority: core.PriorityMetric})
				calls++
			}
		}
		log.end(sp, calls)

		sp = log.begin("core.soa_tick", root, traceID)
		for _, a := range soas {
			a.Tick(now)
		}
		log.end(sp, n)

		sp = log.begin("power.rack_tick", root, traceID)
		rack.Tick(now)
		log.end(sp, 1)
	}

	out := rackOutcome{capEvents: rack.CapEvents()}
	for _, a := range soas {
		out.granted += a.Granted()
		out.rejected += a.Rejected()
	}
	return out, &rackFixture{hosts: hosts, soas: soas, goa: goa, rack: rack, bcfg: bcfg, start: evalStart, now: now}, nil
}

// harnessPass drives racks [0, racks) of hc, traced or not, and returns the
// summed outcome, the wall time and the last rack's fixture.
func harnessPass(log *spanLog, hc harnessConfig, racks, traceBase int) (rackOutcome, time.Duration, *rackFixture, error) {
	var sum rackOutcome
	var fx *rackFixture
	start := time.Now()
	for i := 0; i < racks; i++ {
		out, f, err := harnessRack(log, hc, i, traceBase+i)
		if err != nil {
			return sum, 0, nil, fmt.Errorf("harness rack %d: %w", i, err)
		}
		sum.granted += out.granted
		sum.rejected += out.rejected
		sum.capEvents += out.capEvents
		fx = f
	}
	return sum, time.Since(start), fx, nil
}
