package experiment

import (
	"errors"
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

var clusterSystemNames = [...]string{"Baseline", "ScaleOut", "ScaleUp", "SmartOClock", "NaiveOClock"}

// String returns the system name.
func (s ClusterSystem) String() string {
	if s >= 0 && int(s) < len(clusterSystemNames) {
		return clusterSystemNames[s]
	}
	return fmt.Sprintf("ClusterSystem(%d)", int(s))
}

// runsAgents reports whether the system runs WI agents and sOAs.
func (s ClusterSystem) runsAgents() bool {
	return s == SysSmartOClock || s == SysNaiveOClock
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

	// RackLimitScale shrinks the main rack's limit for power-constrained
	// experiments (1 = generous headroom).
	RackLimitScale float64
	// OCBudgetScale is the fraction of the run each core may spend
	// overclocked (2 = effectively unlimited; the overclocking-
	// constrained experiment lowers it).
	OCBudgetScale float64
	// Proactive selects proactive vs reactive corrective scale-out.
	Proactive bool

	System ClusterSystem

	// Workers bounds how many emulations the sweeps (RunFig12To14,
	// RunPowerConstrained, RunOCConstrained) run at once; <= 0 selects
	// GOMAXPROCS. One emulation is serial and owns its rng, so results are
	// identical for any worker count.
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

const (
	// coresPerService is the cores of one microservice VM; an app replica
	// is one VM per service.
	coresPerService = 4
	// provisionDelay is how long a newly created replica takes to boot and
	// become ready — the minutes-long VM startup that motivates
	// overclocking as the faster lever (§I).
	provisionDelay = 90 * time.Second
)

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
		RackLimitScale:   1,
		OCBudgetScale:    2,
		Proactive:        true,
		System:           system,
	}
}

// Validate reports whether the configuration is runnable, the hardware and
// the per-core lifetime budget it derives included.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Tick <= 0 || c.Duration < c.Tick:
		return fmt.Errorf("experiment: bad tick/duration %v/%v", c.Tick, c.Duration)
	case c.SocialNetServers < 1:
		return fmt.Errorf("experiment: cluster needs SocialNet servers, got %d", c.SocialNetServers)
	case c.MLServers < 0 || c.SpareServers < 0:
		return fmt.Errorf("experiment: negative ML/spare server count %d/%d", c.MLServers, c.SpareServers)
	case c.RackLimitScale <= 0:
		return fmt.Errorf("experiment: cluster RackLimitScale = %v, must be positive", c.RackLimitScale)
	}
	return errors.Join(c.HW.Validate(), c.budgetConfig().Validate())
}

// budgetConfig is the per-core overclock time budget: a daily allowance that
// adds up to OCBudgetScale of the run.
func (c ClusterConfig) budgetConfig() lifetime.BudgetConfig {
	return lifetime.BudgetConfig{Epoch: 24 * time.Hour, Fraction: c.OCBudgetScale * c.Duration.Hours() / 24}
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

// serverRole is what a server in the emulation hosts.
type serverRole int

const (
	roleSocialNet serverRole = iota // one app's primary replica
	roleML                          // an MLTrain neighbour
	roleSpare                       // scale-out replicas, on the spare rack
)

// clusterServer is one row of the server table and a slot of its rack's
// rig; its sOA is nil unless the system runs sOAs.
type clusterServer struct {
	*rigServer[*cluster.Server]
	role        serverRole
	startEnergy float64           // Energy() when measurement starts
	ml          *workload.MLTrain // ML servers only
	usedSlots   int               // spare servers: slots hosting a replica
}

// appReplica is one full SocialNet app instance: one VM per microservice,
// all on one server.
type appReplica struct {
	name      string
	host      *clusterServer
	vms       []*cluster.VM        // one per service
	instances []*workload.Instance // queueing state per service
	slot      *spareSlot           // nil for the primary replica
	readyAt   time.Time            // serves load only once booted
	wantOC    bool                 // the WI's verdict at the latest decision
}

// ready reports whether the replica has finished provisioning.
func (r *appReplica) ready(now time.Time) bool { return !now.Before(r.readyAt) }

// spareSlot is a 32-core (8 services × 4 cores) allocation on a spare
// server; each spare holds two.
type spareSlot struct {
	host      *clusterServer
	firstCore int
	used      bool
}

// appState is one SocialNet app under test.
type appState struct {
	id       int
	level    workload.LoadLevel
	gens     []*workload.LoadGen
	replicas []*appReplica
	ctrl     autoscale.Controller
	wi       *core.GlobalWI

	// lastNorm is the most recent end-to-end normalized tail, updated
	// every tick (controllers act on it from the first tick).
	lastNorm float64
	// Measurement accumulators (post-warmup): streaming P99 of the
	// per-tick normalized tail (O(1) memory for arbitrarily long runs)
	// plus the running sum of the normalized average latency.
	p99Est    *stats.P2Quantile
	avgSum    float64
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
	// MLThroughput is mean normalized MLTrain throughput (1 = turbo); 0
	// with no ML servers.
	MLThroughput float64
	// CapEvents on the main rack.
	CapEvents int
	// OCRequests/OCRejections across all sOAs.
	OCRequests, OCRejections int
	// MissedTickFrac is the mean over apps of the fraction of measured
	// ticks in which the app missed its SLO.
	MissedTickFrac float64
	// FleetObservation's Metrics and Trace are set when
	// ClusterConfig.Observe is true; Series additionally requires
	// RecordEvery. Provenance is always nil.
	FleetObservation
}

// RunCluster executes the 36-server emulation for one system.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	r, err := runCluster(cfg)
	if err != nil {
		return nil, err
	}
	return r.result(), nil
}

// runCluster validates cfg and runs its emulation to the end.
func runCluster(cfg ClusterConfig) (*clusterRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r, err := newClusterRun(cfg)
	if err != nil {
		return nil, err
	}
	ticks := int(cfg.Duration / cfg.Tick)
	for t := 0; t < ticks; t++ {
		r.tick(t)
	}
	return r, nil
}

// clusterRun is one system's emulation: the server table, the apps and
// racks built over it, the observers and the measurement accumulators.
type clusterRun struct {
	cfg      ClusterConfig
	rng      *rand.Rand
	services []workload.Microservice

	// servers is the table, SocialNet then ML then spare servers: the
	// order sOAs are booted and ticked in and hardware advances in. App i's
	// primary replica lives on servers[i].
	servers   []*clusterServer
	slots     []*spareSlot
	apps      []*appState
	byReplica map[string]*appState // replica name → app, for sOA callbacks
	// main and spare are the racks' rigs. Only main boots a gOA, and only
	// for SmartOClock; spare is nil without spare servers.
	main, spare *rig[*cluster.Server]

	observer

	warmupTicks, controlEvery, budgetEvery, rackEvery int

	now               time.Time
	replicaTotal      int
	replicaByLevel    map[workload.LoadLevel]int
	spareActiveEnergy float64
}

// everyTicks converts a cadence to a whole number of ticks, at least one.
func everyTicks(period, tick time.Duration) int {
	return max(1, int(period/tick))
}

// newClusterRun builds the emulation in the order its observers see it:
// servers, apps, racks, then the SmartOClock control plane.
func newClusterRun(cfg ClusterConfig) (*clusterRun, error) {
	r := &clusterRun{
		cfg:            cfg,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		services:       workload.SocialNet(),
		byReplica:      map[string]*appState{},
		warmupTicks:    int(cfg.Warmup / cfg.Tick),
		controlEvery:   everyTicks(5*time.Second, cfg.Tick),
		budgetEvery:    everyTicks(30*time.Second, cfg.Tick),
		rackEvery:      everyTicks(time.Second, cfg.Tick),
		replicaByLevel: map[workload.LoadLevel]int{},
	}
	// One observer per run; every series carries the system label so sweep
	// snapshots merge without identity collisions.
	if cfg.Observe {
		r.observer = newObserver(observeKnobs{
			observe: true, only: cfg.TraceOnly, recordEvery: cfg.RecordEvery, start: cfg.Start,
			labels: []metrics.Label{metrics.L("system", cfg.System.String())},
		})
	}
	r.buildServers()
	if err := r.buildApps(); err != nil {
		return nil, err
	}
	r.buildRacks()
	if cfg.System.runsAgents() {
		r.bootAgents()
	}
	return r, nil
}

// buildServers fills the server table and the spare slots. ML servers
// start fully busy with MLTrain.
func (r *clusterRun) buildServers() {
	for _, g := range []struct {
		prefix         string
		n, capPriority int
		role           serverRole
	}{
		{"sn", r.cfg.SocialNetServers, 0, roleSocialNet},
		{"ml", r.cfg.MLServers, 1, roleML},
		{"sp", r.cfg.SpareServers, 0, roleSpare},
	} {
		for i := 0; i < g.n; i++ {
			srv := cluster.NewServer(fmt.Sprintf("%s-%02d", g.prefix, i), r.cfg.HW, g.capPriority)
			s := &clusterServer{rigServer: newRigServer(srv, r.cfg.HW.OCCoreCost(), 0), role: g.role}
			if g.role == roleML {
				s.ml = workload.NewMLTrain(100)
				for c := 0; c < s.srv.NumCores(); c++ {
					s.srv.SetCoreUtil(c, s.ml.Util)
				}
			}
			r.servers = append(r.servers, s)
		}
	}

	// Replicas prefer empty spare servers: operators spread instances
	// across servers for resiliency (§III-Q2), so a scale-out usually
	// activates a whole server — idle and static power included. Only
	// when every spare already hosts a replica does placement double up.
	coresPerReplica := coresPerService * len(r.services)
	for pass := 0; pass < 2; pass++ { // anti-affinity, then one double-up
		off := pass * coresPerReplica
		for _, s := range r.servers {
			if s.role == roleSpare && off+coresPerReplica <= s.srv.NumCores() {
				r.slots = append(r.slots, &spareSlot{host: s, firstCore: off})
			}
		}
	}
}

// buildApps creates one SocialNet app per SocialNet server, with its load
// generators, primary replica and controller (an autoscaler, or a WI agent
// for the systems that run sOAs).
func (r *clusterRun) buildApps() error {
	turbo := r.cfg.HW.TurboMHz
	ascfg := autoscale.DefaultConfig(turbo, r.cfg.HW.MaxOCMHz, r.cfg.HW.StepMHz)
	ascfg.MaxInst = 3
	// Vertical scaling acts at DVFS speed (milliseconds in the paper), far
	// faster than VM creation.
	ascfgUp := ascfg
	ascfgUp.Cooldown = 15 * time.Second

	for i := 0; i < r.cfg.SocialNetServers; i++ {
		app := &appState{id: i, level: appLoadLevel(i, r.cfg.SocialNetServers), p99Est: stats.NewP2Quantile(0.99)}
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
		for _, svc := range r.services {
			app.gens = append(app.gens, &workload.LoadGen{
				BaseRPS:     baseRho * svc.CapacityRPS(turbo, turbo),
				BurstProb:   r.cfg.Tick.Seconds() / (5 * 60),
				BurstFactor: 1.05,
				BurstLen:    int(30 / r.cfg.Tick.Seconds()),
				NoiseSD:     0.04,
				SpikeFactor: spikeFactor,
				SpikePeriod: 15 * time.Minute,
				SpikeLen:    5 * time.Minute,
				SpikePhase:  time.Duration(i) * 15 * time.Minute / 14,
			})
		}
		if err := r.addReplica(app, nil); err != nil {
			return err
		}
		switch r.cfg.System {
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
			sc.Proactive = r.cfg.Proactive
			// The WI agent works on SLO-normalized latency: SLO = 1.
			app.wi = core.NewGlobalWI(1, &mp, nil, sc)
			if r.reg != nil {
				app.wi.Instrument(r.reg, r.tracer, fmt.Sprintf("app%02d", app.id), r.labels...)
			}
		}
		r.apps = append(r.apps, app)
	}
	return nil
}

// buildRacks assembles a rig over each rack; every sOA they boot shares one
// recipe. The main rack's limit is a margin over the steady power one
// representative workload tick estimates.
func (r *clusterRun) buildRacks() {
	soaCfg := rigSOAConfig()
	soaCfg.ExhaustionWindow = 5 * time.Minute
	soaCfg.AdmissionUtil = 0.6
	soaCfg.Naive = r.cfg.System == SysNaiveOClock
	bcfg := r.cfg.budgetConfig()
	newRig := func(name string, limit float64, servers []*rigServer[*cluster.Server]) *rig[*cluster.Server] {
		rg := &rig[*cluster.Server]{limit: limit, soaCfg: soaCfg, bcfg: bcfg, start: r.cfg.Start,
			servers: servers, observer: r.observer, soaLabels: r.labels}
		rg.assembleRack(power.DefaultRackConfig(name, limit))
		return rg
	}
	turbo := r.cfg.HW.TurboMHz
	for _, app := range r.apps {
		rep := app.replicas[0]
		for si := range r.services {
			res := rep.instances[si].Step(r.cfg.Tick, app.gens[si].BaseRPS, turbo, turbo, nil)
			rep.vms[si].SetUtil(res.Util)
			rep.instances[si].Reset()
		}
	}
	// The main rack lists its ML servers before its SocialNet ones, the
	// reverse of the table order the sOAs tick in. Capping walks the
	// members in this order, so it decides which server is throttled first.
	var mainServers, spareServers []*rigServer[*cluster.Server]
	est := 0.0
	for _, role := range []serverRole{roleML, roleSocialNet} {
		for _, s := range r.servers {
			if s.role == role {
				mainServers = append(mainServers, s.rigServer)
				est += s.srv.Power()
			}
		}
	}
	for _, s := range r.servers {
		if s.role == roleSpare {
			spareServers = append(spareServers, s.rigServer)
		}
	}
	// §VI: the production cluster "provisioned adequate power to avoid
	// capping; the limits are lowered for power management evaluations" —
	// RackLimitScale < 1 does exactly that.
	r.main = newRig("rack-main", r.cfg.RackLimitScale*est*1.25, mainServers)
	if len(spareServers) > 0 {
		limit := float64(len(spareServers)) * machine.New(r.cfg.HW).MaxPower(r.cfg.HW.MaxOCMHz) * 1.05
		r.spare = newRig("rack-spare", limit, spareServers)
	}
}

// bootAgents boots the main rack's gOA for SmartOClock, then an sOA on every
// server in table order. NaiveOClock grants every request and splits no
// budget (§V), so it runs no gOA. Each sOA's rejections and exhaustion
// warnings reach the WI agents of the apps on its server; main-rack events
// reach the main rack's sOAs.
func (r *clusterRun) bootAgents() {
	if r.cfg.System == SysSmartOClock {
		r.main.bootGOA()
	}
	for _, s := range r.servers {
		rg := r.main
		if s.role == roleSpare {
			rg = r.spare
		}
		rg.boot(s.rigServer, r.cfg.Start)
		a := s.soa
		a.OnReject = func(vm string, reason core.RejectReason) {
			if app := r.byReplica[vm]; app != nil && app.wi != nil {
				app.wi.ReportRejection(vm, reason)
			}
		}
		a.OnExhaustionSoon = func(kind core.ExhaustionKind, at time.Time) {
			// Only apps whose sessions consume this server's budget must act.
			for vm := range a.Sessions() {
				if app := r.byReplica[vm]; app != nil && app.wi != nil {
					app.wi.ReportExhaustion(kind, at)
				}
			}
		}
	}
	r.main.rack.Subscribe(func(ev power.Event) {
		for _, s := range r.servers {
			if s.role != roleSpare {
				s.soa.OnRackEvent(r.now, ev)
			}
		}
	})
}

// addReplica places a new replica of app: the primary (slot nil) on the
// app's own SocialNet server, serving at once, or a scale-out replica that
// claims slot and boots for provisionDelay first.
func (r *clusterRun) addReplica(app *appState, slot *spareSlot) error {
	rep := &appReplica{name: fmt.Sprintf("app%02d-r%d", app.id, len(app.replicas)), host: r.servers[app.id], slot: slot}
	firstCore := 0
	if slot != nil {
		rep.host, firstCore = slot.host, slot.firstCore
		rep.readyAt = r.now.Add(provisionDelay) // booting a VM takes minutes
	}
	for si, svc := range r.services {
		vm, err := cluster.PlaceVM(rep.host.srv, fmt.Sprintf("%s-%s", rep.name, svc.Name),
			coresPerService, firstCore+si*coresPerService)
		if err != nil {
			return err
		}
		rep.vms = append(rep.vms, vm)
		rep.instances = append(rep.instances, workload.NewInstance(svc))
	}
	if slot != nil {
		slot.used = true
		slot.host.usedSlots++
	}
	app.replicas = append(app.replicas, rep)
	r.byReplica[rep.name] = app
	return nil
}

// freeSlot returns the first free spare slot, or nil.
func (r *clusterRun) freeSlot() *spareSlot {
	for _, sl := range r.slots {
		if !sl.used {
			return sl
		}
	}
	return nil
}

// scaleApp grows or shrinks an app's replica set using spare slots. The
// primary is never removed.
func (r *clusterRun) scaleApp(app *appState, want int) {
	want = max(want, 1)
	for len(app.replicas) < want {
		if sl := r.freeSlot(); sl == nil || r.addReplica(app, sl) != nil {
			return
		}
	}
	for len(app.replicas) > want {
		last := app.replicas[len(app.replicas)-1]
		if last.slot == nil {
			return
		}
		for _, vm := range last.vms {
			vm.SetUtil(0)
		}
		last.slot.used = false
		last.slot.host.usedSlots--
		delete(r.byReplica, last.name)
		if app.wi != nil {
			app.wi.Forget(last.name)
		}
		app.replicas = app.replicas[:len(app.replicas)-1]
	}
}

// tick advances the emulation by one step: workload, control decisions,
// agents and racks, hardware, then telemetry at the tick's end boundary.
func (r *clusterRun) tick(t int) {
	r.now = r.cfg.Start.Add(time.Duration(t) * r.cfg.Tick)
	measuring := t >= r.warmupTicks
	if t == r.warmupTicks {
		for _, s := range r.servers {
			s.startEnergy = s.srv.Energy()
		}
	}
	r.stepWorkload(measuring)
	r.decide(t)
	r.stepAgentsAndRacks(t)
	r.advance(measuring)
	if r.recorder != nil {
		r.recorder.Tick(r.now.Add(r.cfg.Tick))
	}
}

// stepWorkload serves one tick of load. A request traverses the whole
// microservice chain, so an app's latency and SLO are its services' sums.
func (r *clusterRun) stepWorkload(measuring bool) {
	for _, app := range r.apps {
		ready := 0 // at least the primary, which never boots
		for _, rep := range app.replicas {
			if rep.ready(r.now) {
				ready++
			}
		}
		sumP99, sumAvg, sumSLO := 0.0, 0.0, 0.0
		for si, svc := range r.services {
			per := app.gens[si].RPSAt(r.now, r.rng) / float64(ready)
			svcP99, svcAvg := 0.0, 0.0
			for _, rep := range app.replicas {
				if !rep.ready(r.now) {
					continue
				}
				res := rep.instances[si].Step(r.cfg.Tick, per, rep.vms[si].Freq(), r.cfg.HW.TurboMHz, r.rng)
				rep.vms[si].SetUtil(res.Util)
				if res.P99MS > svcP99 {
					svcP99 = res.P99MS
				}
				svcAvg += res.AvgMS
			}
			sumP99 += svcP99
			sumAvg += svcAvg / float64(ready)
			sumSLO += svc.SLOms()
		}
		app.lastNorm = sumP99 / sumSLO
		if app.wi != nil {
			for _, rep := range app.replicas {
				app.wi.Observe(rep.name, core.InstanceMetrics{P99MS: app.lastNorm})
			}
		}
		if measuring {
			app.p99Est.Add(app.lastNorm)
			app.avgSum += sumAvg / sumSLO
			if app.lastNorm > 1 {
				app.sloMisses++
			}
		}
	}
}

// decide acts on each app's latest tail: bursts outlast a control period,
// so it catches them without replaying pre-action latency. Autoscalers keep
// the coarse cadence of VM automation; WI agents decide every tick
// (overclocking reacts at millisecond scale, §IV-D).
func (r *clusterRun) decide(t int) {
	for _, app := range r.apps {
		if app.ctrl != nil {
			if t%r.controlEvery != 0 {
				continue
			}
			dec := app.ctrl.Control(r.now, app.lastNorm, 1)
			r.scaleApp(app, dec.Instances)
			for _, rep := range app.replicas {
				for _, vm := range rep.vms {
					for _, c := range vm.Cores {
						vm.Server.SetDesiredFreq(c, dec.FreqMHz) // turbo but for ScaleUp
					}
				}
			}
			continue
		}
		// The directive is a view the WI owns: read every verdict before
		// scaleApp's Forget or a Request's rejection report changes it.
		dir := app.wi.Decide(r.now)
		for _, rep := range app.replicas {
			rep.wantOC = dir.Overclock(rep.name)
		}
		r.scaleApp(app, dir.Instances)
		for _, rep := range app.replicas {
			if !rep.ready(r.now) {
				continue // cannot overclock a booting VM
			}
			_, active := rep.host.soa.Sessions()[rep.name]
			if rep.wantOC && !active {
				var cores []int
				for _, vm := range rep.vms {
					cores = append(cores, vm.Cores...)
				}
				rep.host.soa.Request(r.now, core.Request{
					VM: rep.name, Cores: len(cores), TargetMHz: r.cfg.HW.MaxOCMHz,
					Priority: core.PriorityMetric, PreferredCores: cores,
				})
			} else if !rep.wantOC && active {
				rep.host.soa.Stop(r.now, rep.name)
			}
		}
	}
}

// stepAgentsAndRacks ticks the sOAs in table order (a tick emits events and
// reports rejections), refreshes SmartOClock's budgets and ticks the racks.
func (r *clusterRun) stepAgentsAndRacks(t int) {
	if t%r.rackEvery == 0 && r.cfg.System.runsAgents() {
		for _, s := range r.servers {
			s.soa.Tick(r.now)
		}
	}
	if r.cfg.System == SysSmartOClock && t > 0 && t%r.budgetEvery == 0 {
		r.refreshBudgets()
	}
	if t%r.rackEvery == 0 {
		r.main.rack.Tick(r.now)
		if r.spare != nil {
			r.spare.rack.Tick(r.now)
		}
	}
}

// refreshBudgets recomputes heterogeneous budgets from each main-rack
// sOA's recent profile window — the cluster-scale analogue of the weekly
// template exchange (§IV-C) compressed to the emulation's time scale.
func (r *clusterRun) refreshBudgets() {
	for _, s := range r.servers {
		if s.role == roleSpare {
			continue
		}
		p := recentProfile(s.soa, s.srv.Name(), s.coreCost)
		if s.role == roleSocialNet && p.Requested < 16 {
			// Latency-critical servers keep a floor reserve: their load
			// waves are phase-shifted, so demand can arrive on servers
			// that were quiet during the profiling window.
			p.Requested = 16
		}
		r.main.goa.SetProfile(s.srv.Name(), flatProfile(p))
	}
	budgets := r.main.goa.BudgetsAt(r.now)
	for _, s := range r.servers {
		if b := budgets[s.srv.Name()]; b > 0 { // spares have no budget
			s.soa.SetStaticBudget(b, true)
		}
	}
}

// advance moves the hardware one tick and accrues the measured instance
// and spare-energy totals.
func (r *clusterRun) advance(measuring bool) {
	for _, s := range r.servers {
		if s.ml != nil {
			s.ml.Step(r.cfg.Tick, s.srv.EffectiveFreq(0), r.cfg.HW.TurboMHz)
		}
		s.srv.Advance(r.cfg.Tick)
		// Spare servers are charged only while hosting replicas: an unused
		// spare returns to the provider's pool and is not this workload's
		// cost, which is exactly why fewer scale-outs save energy (Fig 14).
		if measuring && s.usedSlots > 0 {
			r.spareActiveEnergy += s.srv.Power() * r.cfg.Tick.Seconds()
		}
	}
	if measuring {
		for _, app := range r.apps {
			r.replicaTotal += len(app.replicas)
			r.replicaByLevel[app.level] += len(app.replicas)
		}
	}
}

// result aggregates the run's measurements.
func (r *clusterRun) result() *ClusterResult {
	res := &ClusterResult{
		System:               r.cfg.System,
		NormP99:              map[workload.LoadLevel]float64{},
		NormAvg:              map[workload.LoadLevel]float64{},
		MissedSLO:            map[workload.LoadLevel]int{},
		MeanInstancesByLevel: map[workload.LoadLevel]float64{},
		ServerEnergy:         map[workload.LoadLevel]float64{},
		CapEvents:            r.main.rack.CapEvents(),
	}
	// With no measured tick every numerator below is zero, so dividing by
	// one keeps those means at zero.
	measured := float64(max(1, int(r.cfg.Duration/r.cfg.Tick)-r.warmupTicks))
	counts := map[workload.LoadLevel]int{}
	missedFrac := 0.0
	for _, app := range r.apps {
		res.NormP99[app.level] += app.p99Est.Value()
		res.MissedSLO[app.level] += app.sloMisses
		counts[app.level]++
		res.NormAvg[app.level] += app.avgSum / measured
		// The §V-A overclocking-constrained metric: "misses the SLO for x%
		// of time".
		missedFrac += float64(app.sloMisses) / measured
	}
	mlSum := 0.0
	for i, s := range r.servers {
		used := s.srv.Energy() - s.startEnergy
		switch s.role {
		case roleSocialNet:
			res.ServerEnergy[r.apps[i].level] += used
			res.TotalEnergy += used
			res.LCEnergy += used
		case roleML:
			res.TotalEnergy += used
			mlSum += s.ml.MeanThroughput() / 100
		}
		if s.soa != nil {
			res.OCRequests += s.soa.Granted() + s.soa.Rejected()
			res.OCRejections += s.soa.Rejected()
		}
	}
	res.TotalEnergy += r.spareActiveEnergy
	res.LCEnergy += r.spareActiveEnergy
	for lvl, n := range counts {
		res.NormP99[lvl] /= float64(n)
		res.NormAvg[lvl] /= float64(n)
		res.ServerEnergy[lvl] /= float64(n)
	}
	res.MeanInstances = float64(r.replicaTotal) / measured
	for lvl, total := range r.replicaByLevel {
		res.MeanInstancesByLevel[lvl] = float64(total) / measured / float64(counts[lvl])
	}
	res.MissedTickFrac = missedFrac / float64(len(r.apps))
	if n := r.cfg.MLServers; n > 0 {
		res.MLThroughput = mlSum / float64(n)
	}
	res.FleetObservation = r.freeze()
	return res
}
