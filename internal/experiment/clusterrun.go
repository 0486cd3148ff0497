package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/autoscale"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/power"
	"smartoclock/internal/stats"
	"smartoclock/internal/workload"
)

// ClusterSystem identifies a system under test in the cluster emulation
// (§V-A).
type ClusterSystem int

const (
	// SysBaseline neither scales out nor up.
	SysBaseline ClusterSystem = iota
	// SysScaleOut scales instance counts on observed tail latency.
	SysScaleOut
	// SysScaleUp overclocks on observed tail latency, no admission control.
	SysScaleUp
	// SysSmartOClock runs the full platform: WI agents, sOAs, gOA.
	SysSmartOClock
	// SysNaiveOClock grants all overclock requests (power-constrained
	// comparison).
	SysNaiveOClock
)

// String returns the system name.
func (s ClusterSystem) String() string {
	switch s {
	case SysBaseline:
		return "Baseline"
	case SysScaleOut:
		return "ScaleOut"
	case SysScaleUp:
		return "ScaleUp"
	case SysSmartOClock:
		return "SmartOClock"
	case SysNaiveOClock:
		return "NaiveOClock"
	default:
		return fmt.Sprintf("ClusterSystem(%d)", int(s))
	}
}

// ClusterSystems returns the four systems of Fig 12-14 in plot order.
func ClusterSystems() []ClusterSystem {
	return []ClusterSystem{SysBaseline, SysScaleOut, SysScaleUp, SysSmartOClock}
}

// ClusterConfig parameterizes the 36-server emulation.
type ClusterConfig struct {
	Seed     int64
	Start    time.Time
	Duration time.Duration
	Tick     time.Duration
	Warmup   time.Duration

	SocialNetServers int // latency-critical apps, one per server
	MLServers        int // throughput-optimized neighbours
	SpareServers     int // scale-out targets (second rack in the paper)
	HW               machine.Config
	CoresPerService  int // cores per microservice VM; an app replica is 8 of them

	// RackLimitScale shrinks the main rack's limit for power-constrained
	// experiments (1 = generous headroom).
	RackLimitScale float64
	// OCBudgetScale is the fraction of the run each core may spend
	// overclocked (2 = effectively unlimited; the overclocking-
	// constrained experiment lowers it).
	OCBudgetScale float64
	// Proactive selects proactive vs reactive corrective scale-out.
	Proactive bool
	// ProvisionDelay is how long a newly created replica takes to boot
	// and become ready — the minutes-long VM startup that motivates
	// overclocking as the faster lever (§I).
	ProvisionDelay time.Duration

	System ClusterSystem

	// Workers bounds how many independent cluster emulations run
	// concurrently in the multi-system sweeps (RunFig12To14,
	// RunPowerConstrained, RunOCConstrained); <= 0 selects GOMAXPROCS.
	// A single RunCluster is inherently serial — one shared rack state —
	// so the system sweep is the sharding unit. Results are identical for
	// any worker count: each run owns its own rng seeded from cfg.Seed.
	Workers int

	// Observe attaches a metrics registry and event tracer to the run and
	// returns the frozen snapshot and trace in ClusterResult. Every run
	// carries a system label so sweep results merge without collisions.
	Observe bool
	// RecordEvery, when positive and Observe is set, samples the registry
	// into per-interval time series at this sim-time cadence.
	RecordEvery time.Duration
	// TraceOnly restricts the event trace to these components; empty
	// records everything.
	TraceOnly []obs.Component
}

// DefaultClusterConfig mirrors the paper's testbed: 36 overclockable
// servers (28 + 8 across two racks), 14 SocialNet instance groups (apps)
// and 14 MLTrain servers. The paper's "instance" is one SocialNet app
// replica; autoscaling starts at 14 instances.
func DefaultClusterConfig(system ClusterSystem) ClusterConfig {
	return ClusterConfig{
		Seed:             1,
		Start:            time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC),
		Duration:         40 * time.Minute,
		Tick:             time.Second,
		Warmup:           8 * time.Minute,
		SocialNetServers: 14,
		MLServers:        14,
		SpareServers:     8,
		HW:               machine.DefaultConfig(),
		CoresPerService:  4,
		RackLimitScale:   1,
		OCBudgetScale:    2,
		Proactive:        true,
		ProvisionDelay:   90 * time.Second,
		System:           system,
	}
}

// appLoadLevel assigns the paper's Low/Medium/High grouping across the 14
// apps: 5 low, 5 medium, 4 high.
func appLoadLevel(app, total int) workload.LoadLevel {
	third := total / 3
	switch {
	case app < third+1:
		return workload.LowLoad
	case app < 2*third+2:
		return workload.MediumLoad
	default:
		return workload.HighLoad
	}
}

// appReplica is one full SocialNet app instance: one VM per microservice,
// all on one server.
type appReplica struct {
	name      string
	server    *cluster.Server
	vms       []*cluster.VM        // one per service
	instances []*workload.Instance // queueing state per service
	slot      *spareSlot           // nil for the primary replica
	readyAt   time.Time            // serves load only once booted
}

// ready reports whether the replica has finished provisioning.
func (r *appReplica) ready(now time.Time) bool { return !now.Before(r.readyAt) }

// spareSlot is a 32-core (8 services × 4 cores) allocation on a spare
// server; each spare holds two.
type spareSlot struct {
	server    *cluster.Server
	firstCore int
	used      bool
}

// appState is one SocialNet app under test.
type appState struct {
	id       int
	level    workload.LoadLevel
	services []workload.Microservice
	gens     []*workload.LoadGen
	replicas []*appReplica
	ctrl     autoscale.Controller
	wi       *core.GlobalWI

	// lastNorm is the most recent end-to-end normalized tail, updated
	// every tick (controllers act on it from the first tick).
	lastNorm float64
	// Measurement accumulators (post-warmup): streaming P99 of the
	// per-tick normalized tail (O(1) memory for arbitrarily long runs)
	// plus the running mean of the normalized average latency.
	p99Est    *stats.P2Quantile
	avgSum    float64
	avgCount  int
	sloMisses int
}

// ClusterResult aggregates one run.
type ClusterResult struct {
	System ClusterSystem
	// NormP99/NormAvg: per load level, averaged across that level's apps:
	// the P99 (mean) of per-tick app latency samples normalized to SLOs.
	NormP99 map[workload.LoadLevel]float64
	NormAvg map[workload.LoadLevel]float64
	// MissedSLO counts (app, tick) pairs with a violated SLO.
	MissedSLO map[workload.LoadLevel]int
	// MeanInstances is the average number of concurrently active app
	// replicas (the paper's VM instances, Fig 13); MeanInstancesByLevel
	// splits it per load class.
	MeanInstances        float64
	MeanInstancesByLevel map[workload.LoadLevel]float64
	// ServerEnergy is mean per-home-server energy per load level in
	// joules (Fig 14); TotalEnergy covers every server; LCEnergy covers
	// only latency-critical servers (home + spares).
	ServerEnergy map[workload.LoadLevel]float64
	TotalEnergy  float64
	LCEnergy     float64
	// MLThroughput is mean normalized MLTrain throughput (1 = turbo).
	MLThroughput float64
	// CapEvents on the main rack.
	CapEvents int
	// OCRequests/OCRejections across all sOAs.
	OCRequests, OCRejections int
	// MissedTickFrac is the fraction of measured ticks with at least one
	// SLO violation anywhere.
	MissedTickFrac float64
	// Metrics and Trace are set when ClusterConfig.Observe is true; Series
	// additionally requires RecordEvery.
	Metrics *metrics.Snapshot
	Trace   *obs.Tracer
	Series  *metrics.Recording
}

// RunCluster executes the 36-server emulation for one system.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	if cfg.Tick <= 0 || cfg.Duration < cfg.Tick {
		return nil, fmt.Errorf("experiment: bad tick/duration %v/%v", cfg.Tick, cfg.Duration)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	turbo := cfg.HW.TurboMHz
	maxOC := cfg.HW.MaxOCMHz
	services := workload.SocialNet()
	coresPerReplica := cfg.CoresPerService * len(services)

	// Observability: one registry and tracer per run; every series carries
	// the system label so sweep snapshots merge without identity collisions.
	var reg *metrics.Registry
	var tracer *obs.Tracer
	var recorder *metrics.Recorder
	var sysLabels []metrics.Label
	if cfg.Observe {
		reg = metrics.NewRegistry()
		tracer = newShardTracer(cfg.TraceOnly)
		sysLabels = []metrics.Label{metrics.L("system", cfg.System.String())}
		if cfg.RecordEvery > 0 {
			recorder = metrics.NewRecorder(reg, cfg.Start, cfg.RecordEvery)
		}
	}

	// --- Servers -----------------------------------------------------------
	var mlServers, snServers, spares []*cluster.Server
	for i := 0; i < cfg.MLServers; i++ {
		mlServers = append(mlServers, cluster.NewServer(fmt.Sprintf("ml-%02d", i), cfg.HW, 1))
	}
	for i := 0; i < cfg.SocialNetServers; i++ {
		snServers = append(snServers, cluster.NewServer(fmt.Sprintf("sn-%02d", i), cfg.HW, 0))
	}
	for i := 0; i < cfg.SpareServers; i++ {
		spares = append(spares, cluster.NewServer(fmt.Sprintf("sp-%02d", i), cfg.HW, 0))
	}
	if reg != nil {
		for _, s := range append(append(append([]*cluster.Server{}, snServers...), mlServers...), spares...) {
			s.Instrument(reg, sysLabels...)
		}
	}

	mls := make([]*workload.MLTrain, len(mlServers))
	for i, s := range mlServers {
		mls[i] = workload.NewMLTrain(100)
		for c := 0; c < s.NumCores(); c++ {
			s.SetCoreUtil(c, mls[i].Util)
		}
	}

	// Replicas prefer empty spare servers: operators spread instances
	// across servers for resiliency (§III-Q2), so a scale-out usually
	// activates a whole server — idle and static power included. Only
	// when every spare already hosts a replica does placement double up.
	var slots []*spareSlot
	for pass := 0; ; pass++ {
		off := pass * coresPerReplica
		added := false
		for _, s := range spares {
			if off+coresPerReplica <= s.NumCores() {
				slots = append(slots, &spareSlot{server: s, firstCore: off})
				added = true
			}
		}
		if !added || pass >= 1 {
			break // two passes: anti-affinity first, then one double-up
		}
	}
	takeSlot := func() *spareSlot {
		for _, sl := range slots {
			if !sl.used {
				sl.used = true
				return sl
			}
		}
		return nil
	}

	// --- Apps ----------------------------------------------------------------
	var now time.Time
	buildReplica := func(app *appState, server *cluster.Server, firstCore int, slot *spareSlot) (*appReplica, error) {
		r := &appReplica{
			name:   fmt.Sprintf("app%02d-r%d", app.id, len(app.replicas)),
			server: server,
			slot:   slot,
		}
		if slot != nil {
			r.readyAt = now.Add(cfg.ProvisionDelay) // booting a VM takes minutes
		}
		for si, svc := range services {
			vm, err := cluster.PlaceVM(server, fmt.Sprintf("%s-%s", r.name, svc.Name),
				cfg.CoresPerService, firstCore+si*cfg.CoresPerService)
			if err != nil {
				return nil, err
			}
			r.vms = append(r.vms, vm)
			r.instances = append(r.instances, workload.NewInstance(svc))
		}
		return r, nil
	}

	ascfg := autoscale.DefaultConfig(turbo, maxOC, cfg.HW.StepMHz)
	ascfg.MaxInst = 3
	// Vertical scaling acts at DVFS speed (milliseconds in the paper), far
	// faster than VM creation.
	ascfgUp := ascfg
	ascfgUp.Cooldown = 15 * time.Second

	var apps []*appState
	for i := 0; i < cfg.SocialNetServers; i++ {
		app := &appState{
			id: i, level: appLoadLevel(i, cfg.SocialNetServers),
			services: services, p99Est: stats.NewP2Quantile(0.99),
		}
		// Time-varying load: a steady base with square transient peaks
		// (Fig 1's Services B/C shape compressed to emulation scale).
		// Peak offered load corresponds to the level's Fig 2 operating
		// point; the base leaves headroom at turbo.
		var baseRho, spikeFactor float64
		switch app.level {
		case workload.LowLoad:
			baseRho, spikeFactor = 0.35, 1
		case workload.MediumLoad:
			baseRho, spikeFactor = 0.50, 1.55
		default:
			baseRho, spikeFactor = 0.65, 1.36
		}
		for _, svc := range services {
			app.gens = append(app.gens, &workload.LoadGen{
				BaseRPS:     baseRho * svc.CapacityRPS(turbo, turbo),
				BurstProb:   cfg.Tick.Seconds() / (5 * 60),
				BurstFactor: 1.05,
				BurstLen:    int(30 / cfg.Tick.Seconds()),
				NoiseSD:     0.04,
				SpikeFactor: spikeFactor,
				SpikePeriod: 15 * time.Minute,
				SpikeLen:    5 * time.Minute,
				SpikePhase:  time.Duration(i) * 15 * time.Minute / 14,
			})
		}
		r, err := buildReplica(app, snServers[i], 0, nil)
		if err != nil {
			return nil, err
		}
		app.replicas = []*appReplica{r}
		switch cfg.System {
		case SysBaseline:
			app.ctrl = autoscale.NewBaseline(ascfg)
		case SysScaleOut:
			app.ctrl = autoscale.NewScaleOut(ascfg)
		case SysScaleUp:
			app.ctrl = autoscale.NewScaleUp(ascfgUp)
		case SysSmartOClock, SysNaiveOClock:
			mp := core.DefaultMetricPolicy()
			sc := core.DefaultScaleOutConfig()
			sc.MaxInstances = 3
			sc.Proactive = cfg.Proactive
			// The WI agent works on SLO-normalized latency: SLO = 1.
			app.wi = core.NewGlobalWI(1, &mp, nil, sc)
			if reg != nil {
				app.wi.Instrument(reg, tracer, fmt.Sprintf("app%02d", app.id), sysLabels...)
			}
		}
		apps = append(apps, app)
	}

	// --- Racks -----------------------------------------------------------------
	// One representative workload tick to estimate steady power, then set
	// the main rack's limit with a margin.
	for _, app := range apps {
		r := app.replicas[0]
		for si := range services {
			res := r.instances[si].Step(cfg.Tick, app.gens[si].BaseRPS, turbo, turbo, nil)
			r.vms[si].SetUtil(res.Util)
			r.instances[si].Reset()
		}
	}
	mainServers := make([]power.Server, 0, len(mlServers)+len(snServers))
	est := 0.0
	for _, s := range mlServers {
		mainServers = append(mainServers, s)
		est += s.Power()
	}
	for _, s := range snServers {
		mainServers = append(mainServers, s)
		est += s.Power()
	}
	// §VI: the production cluster "provisioned adequate power to avoid
	// capping; the limits are lowered for power management evaluations" —
	// RackLimitScale < 1 does exactly that.
	mainLimit := cfg.RackLimitScale * est * 1.25
	mainRack := power.NewRack(power.DefaultRackConfig("rack-main", mainLimit), mainServers...)
	if reg != nil {
		mainRack.Instrument(reg, tracer, sysLabels...)
	}

	var spareRack *power.Rack
	if len(spares) > 0 {
		spareServers := make([]power.Server, 0, len(spares))
		for _, s := range spares {
			spareServers = append(spareServers, s)
		}
		limit := float64(len(spares)) * cluster.NewServer("est", cfg.HW, 0).Machine().MaxPower(maxOC) * 1.05
		spareRack = power.NewRack(power.DefaultRackConfig("rack-spare", limit), spareServers...)
		if reg != nil {
			spareRack.Instrument(reg, tracer, sysLabels...)
		}
	}

	// --- SmartOClock control plane ------------------------------------------------
	usesSOA := cfg.System == SysSmartOClock || cfg.System == SysNaiveOClock
	soas := make(map[string]*core.SOA)
	appByReplica := make(map[string]*appState)
	var goa *core.GOA
	if usesSOA {
		goa = core.NewGOA("rack-main", mainLimit)
		soaCfg := core.DefaultSOAConfig()
		soaCfg.ProfileStep = time.Minute
		soaCfg.ExploreConfirm = 30 * time.Second
		soaCfg.ExploitTime = 5 * time.Minute
		soaCfg.ExhaustionWindow = 5 * time.Minute
		soaCfg.DefaultOCHorizon = 5 * time.Minute
		soaCfg.AdmissionUtil = 0.6
		if cfg.System == SysNaiveOClock {
			soaCfg.Naive = true
		}
		bcfg := lifetime.BudgetConfig{
			Epoch:     24 * time.Hour,
			Fraction:  cfg.OCBudgetScale * cfg.Duration.Hours() / 24,
			CarryOver: false,
		}
		mkSOA := func(s *cluster.Server, even float64) {
			budgets := lifetime.NewCoreBudgets(bcfg, s.NumCores(), cfg.Start)
			a := core.NewSOA(soaCfg, s, budgets, even, cfg.Start)
			if reg != nil {
				a.Instrument(reg, tracer, sysLabels...)
			}
			a.OnReject = func(vm string, reason core.RejectReason) {
				if app, ok := appByReplica[vm]; ok && app.wi != nil {
					app.wi.ReportRejection(vm, reason)
				}
			}
			soas[s.Name()] = a
			a.OnExhaustionSoon = func(kind core.ExhaustionKind, at time.Time) {
				// Only the apps whose sessions are consuming this
				// server's budget need to take corrective action.
				for vm := range a.Sessions() {
					if app, ok := appByReplica[vm]; ok && app.wi != nil {
						app.wi.ReportExhaustion(kind, at)
					}
				}
			}
		}
		evenMain := mainLimit / float64(len(mainServers))
		for _, s := range snServers {
			mkSOA(s, evenMain)
		}
		for _, s := range mlServers {
			mkSOA(s, evenMain)
		}
		if spareRack != nil {
			evenSpare := spareRack.Config().LimitWatts / float64(len(spares))
			for _, s := range spares {
				mkSOA(s, evenSpare)
			}
		}
		mainRack.Subscribe(func(ev power.Event) {
			for _, s := range snServers {
				soas[s.Name()].OnRackEvent(now, ev)
			}
			for _, s := range mlServers {
				soas[s.Name()].OnRackEvent(now, ev)
			}
		})
	}
	for _, app := range apps {
		appByReplica[app.replicas[0].name] = app
	}

	// --- Main loop ------------------------------------------------------------------
	ticks := int(cfg.Duration / cfg.Tick)
	warmupTicks := int(cfg.Warmup / cfg.Tick)
	controlEvery := int((5 * time.Second) / cfg.Tick)
	if controlEvery < 1 {
		controlEvery = 1
	}
	budgetEvery := int((30 * time.Second) / cfg.Tick)
	rackEvery := int(time.Second / cfg.Tick)
	if rackEvery < 1 {
		rackEvery = 1
	}

	replicaTotal := 0
	replicaByLevel := map[workload.LoadLevel]int{}
	replicaTicks := 0
	measStartEnergy := map[*cluster.Server]float64{}
	measuredTicks := 0
	// Spare servers are charged only while hosting replicas: an unused
	// spare returns to the provider's pool and is not this workload's
	// cost, which is exactly why fewer scale-outs save energy (Fig 14).
	spareActiveEnergy := 0.0
	spareHasActive := func(sp *cluster.Server) bool {
		for _, sl := range slots {
			if sl.server == sp && sl.used {
				return true
			}
		}
		return false
	}

	allServers := append(append(append([]*cluster.Server{}, snServers...), mlServers...), spares...)

	for t := 0; t < ticks; t++ {
		now = cfg.Start.Add(time.Duration(t) * cfg.Tick)
		measuring := t >= warmupTicks
		if t == warmupTicks {
			for _, s := range allServers {
				measStartEnergy[s] = s.Energy()
			}
		}

		// 1. Workload step. The app-level metric is end-to-end: a request
		// traverses the microservice chain, so the app's latency is the
		// sum of per-service latencies and its SLO the sum of per-service
		// SLOs.
		for _, app := range apps {
			sumP99, sumAvg, sumSLO := 0.0, 0.0, 0.0
			ready := app.replicas[:0:0]
			for _, r := range app.replicas {
				if r.ready(now) {
					ready = append(ready, r)
				}
			}
			if len(ready) == 0 {
				ready = app.replicas[:1] // the primary always serves
			}
			for si, svc := range services {
				rps := app.gens[si].RPSAt(now, rng)
				per := rps / float64(len(ready))
				svcP99, svcAvg := 0.0, 0.0
				for _, r := range ready {
					freq := r.vms[si].Freq()
					res := r.instances[si].Step(cfg.Tick, per, freq, turbo, rng)
					r.vms[si].SetUtil(res.Util)
					if res.P99MS > svcP99 {
						svcP99 = res.P99MS
					}
					svcAvg += res.AvgMS
				}
				svcAvg /= float64(len(ready))
				sumP99 += svcP99
				sumAvg += svcAvg
				sumSLO += svc.SLOms()
			}
			e2eNorm := sumP99 / sumSLO
			app.lastNorm = e2eNorm
			missed := e2eNorm > 1
			if app.wi != nil {
				for _, r := range app.replicas {
					app.wi.Observe(r.name, core.InstanceMetrics{P99MS: e2eNorm})
				}
			}
			if measuring {
				app.p99Est.Add(e2eNorm)
				app.avgSum += sumAvg / sumSLO
				app.avgCount++
				if missed {
					app.sloMisses++
				}
			}
		}
		if measuring {
			measuredTicks++
		}

		// 2. Control decisions. WI agents decide every tick (overclocking
		// reacts at millisecond scale, §IV-D); autoscale controllers keep
		// the coarser cadence of VM automation.
		if t%controlEvery == 0 || usesSOA {
			for _, app := range apps {
				// Decisions react to the current state: bursts last far
				// longer than a control period, so the latest value
				// catches them without replaying pre-action latency.
				p99 := app.lastNorm
				switch {
				case app.ctrl != nil:
					if t%controlEvery != 0 {
						continue
					}
					dec := app.ctrl.Control(now, p99, 1)
					scaleApp(app, dec.Instances, takeSlot, buildReplica, appByReplica)
					if cfg.System == SysScaleUp {
						for _, r := range app.replicas {
							for _, vm := range r.vms {
								for _, c := range vm.Cores {
									vm.Server.SetDesiredFreq(c, dec.FreqMHz)
								}
							}
						}
					}
				case app.wi != nil:
					dir := app.wi.Decide(now)
					scaleApp(app, dir.Instances, takeSlot, buildReplica, appByReplica)
					for _, r := range app.replicas {
						if !r.ready(now) {
							continue // cannot overclock a booting VM
						}
						soa := soas[r.server.Name()]
						if soa == nil {
							continue
						}
						_, active := soa.Sessions()[r.name]
						want := dir.Overclock[r.name]
						if want && !active {
							cores := replicaCores(r)
							soa.Request(now, core.Request{
								VM: r.name, Cores: len(cores), TargetMHz: maxOC,
								Priority: core.PriorityMetric, PreferredCores: cores,
							})
						} else if !want && active {
							soa.Stop(now, r.name)
						}
					}
				}
			}
		}

		// 3. sOA ticks, budget refresh, rack managers.
		if usesSOA && t%rackEvery == 0 {
			for _, a := range soas {
				a.Tick(now)
			}
		}
		if usesSOA && cfg.System == SysSmartOClock && t > 0 && t%budgetEvery == 0 {
			refreshBudgets(goa, snServers, mlServers, soas, now)
		}
		if t%rackEvery == 0 {
			mainRack.Tick(now)
			if spareRack != nil {
				spareRack.Tick(now)
			}
		}

		// 4. Advance hardware.
		for _, s := range snServers {
			s.Advance(cfg.Tick)
		}
		for i, s := range mlServers {
			mls[i].Step(cfg.Tick, s.EffectiveFreq(0), turbo)
			s.Advance(cfg.Tick)
		}
		for _, s := range spares {
			s.Advance(cfg.Tick)
			if measuring && spareHasActive(s) {
				spareActiveEnergy += s.Power() * cfg.Tick.Seconds()
			}
		}
		if measuring {
			for _, app := range apps {
				replicaTotal += len(app.replicas)
				replicaByLevel[app.level] += len(app.replicas)
			}
			replicaTicks++
		}

		// 5. Telemetry recording at the tick's end boundary.
		if recorder != nil {
			recorder.Tick(now.Add(cfg.Tick))
		}
	}

	// --- Aggregate --------------------------------------------------------------
	res := &ClusterResult{
		System:               cfg.System,
		NormP99:              map[workload.LoadLevel]float64{},
		NormAvg:              map[workload.LoadLevel]float64{},
		MissedSLO:            map[workload.LoadLevel]int{},
		MeanInstancesByLevel: map[workload.LoadLevel]float64{},
		ServerEnergy:         map[workload.LoadLevel]float64{},
		CapEvents:            mainRack.CapEvents(),
	}
	counts := map[workload.LoadLevel]int{}
	for _, app := range apps {
		res.NormP99[app.level] += app.p99Est.Value()
		if app.avgCount > 0 {
			res.NormAvg[app.level] += app.avgSum / float64(app.avgCount)
		}
		res.MissedSLO[app.level] += app.sloMisses
		counts[app.level]++
	}
	for lvl, n := range counts {
		if n > 0 {
			res.NormP99[lvl] /= float64(n)
			res.NormAvg[lvl] /= float64(n)
		}
	}
	if replicaTicks > 0 {
		res.MeanInstances = float64(replicaTotal) / float64(replicaTicks)
		for lvl, total := range replicaByLevel {
			res.MeanInstancesByLevel[lvl] = float64(total) / float64(replicaTicks) / float64(counts[lvl])
		}
	}
	energyCount := map[workload.LoadLevel]int{}
	for i, s := range snServers {
		lvl := appLoadLevel(i, cfg.SocialNetServers)
		res.ServerEnergy[lvl] += s.Energy() - measStartEnergy[s]
		energyCount[lvl]++
	}
	for lvl, n := range energyCount {
		if n > 0 {
			res.ServerEnergy[lvl] /= float64(n)
		}
	}
	for _, s := range snServers {
		res.TotalEnergy += s.Energy() - measStartEnergy[s]
		res.LCEnergy += s.Energy() - measStartEnergy[s]
	}
	for _, s := range mlServers {
		res.TotalEnergy += s.Energy() - measStartEnergy[s]
	}
	res.TotalEnergy += spareActiveEnergy
	res.LCEnergy += spareActiveEnergy
	mlSum := 0.0
	for _, ml := range mls {
		mlSum += ml.MeanThroughput() / 100
	}
	res.MLThroughput = mlSum / float64(len(mls))
	for _, a := range soas {
		res.OCRequests += a.Granted() + a.Rejected()
		res.OCRejections += a.Rejected()
	}
	if measuredTicks > 0 {
		// Mean over apps of the fraction of measured time in violation —
		// the §V-A overclocking-constrained metric ("misses the SLO for
		// x% of time").
		total := 0.0
		for _, app := range apps {
			total += float64(app.sloMisses) / float64(measuredTicks)
		}
		res.MissedTickFrac = total / float64(len(apps))
	}
	if reg != nil {
		res.Metrics = reg.Snapshot()
		res.Trace = tracer
		if recorder != nil {
			res.Series = recorder.Recording()
		}
	}
	return res, nil
}

// replicaCores flattens a replica's VM core lists.
func replicaCores(r *appReplica) []int {
	var cores []int
	for _, vm := range r.vms {
		cores = append(cores, vm.Cores...)
	}
	return cores
}

// scaleApp grows or shrinks an app's replica set using spare-server slots.
func scaleApp(app *appState, want int, takeSlot func() *spareSlot,
	build func(*appState, *cluster.Server, int, *spareSlot) (*appReplica, error),
	byName map[string]*appState) {
	if want < 1 {
		want = 1
	}
	for len(app.replicas) < want {
		sl := takeSlot()
		if sl == nil {
			return
		}
		r, err := build(app, sl.server, sl.firstCore, sl)
		if err != nil {
			sl.used = false
			return
		}
		app.replicas = append(app.replicas, r)
		byName[r.name] = app
	}
	for len(app.replicas) > want {
		last := app.replicas[len(app.replicas)-1]
		if last.slot == nil {
			return // never remove the primary
		}
		for _, vm := range last.vms {
			vm.SetUtil(0)
		}
		last.slot.used = false
		delete(byName, last.name)
		if app.wi != nil {
			app.wi.Forget(last.name)
		}
		app.replicas = app.replicas[:len(app.replicas)-1]
	}
}

// refreshBudgets recomputes heterogeneous budgets from each sOA's recent
// profile window — the cluster-scale analogue of the weekly template
// exchange (§IV-C) compressed to the emulation's time scale.
func refreshBudgets(goa *core.GOA, snServers, mlServers []*cluster.Server, soas map[string]*core.SOA, now time.Time) {
	all := append(append([]*cluster.Server{}, snServers...), mlServers...)
	isSN := map[string]bool{}
	for _, s := range snServers {
		isSN[s.Name()] = true
	}
	for _, s := range all {
		p := recentProfile(soas[s.Name()], s, s.Machine().Config().OCCoreCost())
		if isSN[s.Name()] && p.Requested < 16 {
			// Latency-critical servers keep a floor reserve: their load
			// waves are phase-shifted, so demand can arrive on servers
			// that were quiet during the profiling window.
			p.Requested = 16
		}
		goa.SetProfile(s.Name(), flatProfile(p))
	}
	budgets := goa.BudgetsAt(now)
	for _, s := range all {
		if b, ok := budgets[s.Name()]; ok && b > 0 {
			soas[s.Name()].SetStaticBudget(b, true)
		}
	}
}
