package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/alert"
	"smartoclock/internal/chaos"
	"smartoclock/internal/core"
	"smartoclock/internal/invariant"
	"smartoclock/internal/machine"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/power"
	"smartoclock/internal/sim"
	"smartoclock/internal/store"
)

// ChaosConfig parameterizes the fault-injection experiment: a rack of
// sOA-managed servers whose control plane (profile reports, budget pushes,
// rack warning/cap notifications) runs over a lossy, delaying, duplicating
// transport, with a gOA outage window and sOA crash/restart faults on top.
// It reproduces the paper's gOA-unavailability ablation (§VI): when budgets
// go stale the sOAs must fall back to exploration/exploitation, and
// decentralized enforcement must keep every safety invariant intact.
type ChaosConfig struct {
	Seed     int64
	Start    time.Time
	Duration time.Duration
	// Tick is the control cadence: workload updates, sOA ticks, rack
	// manager ticks and invariant checks all run at this period.
	Tick    time.Duration
	Servers int
	HW      machine.Config

	// Message-level faults (see chaos.Config).
	DropProb  float64
	DupProb   float64
	DelayProb float64
	MaxDelay  time.Duration
	BaseDelay time.Duration

	// GOAOutageStart/GOAOutage define the gOA unavailability window as an
	// offset into the run: budget pushes stop and assignments go stale.
	GOAOutageStart time.Duration
	GOAOutage      time.Duration
	// SOACrashes is how many sOA crash/restart faults to inject; each
	// loses the agent's in-memory state (sessions, exploration surplus,
	// assigned budget) for up to MaxCrashDown. Per-core lifetime budgets
	// are durable, as production wear accounting would be.
	SOACrashes   int
	MaxCrashDown time.Duration
	// WarmRestart restores each crashed sOA from its last durable
	// checkpoint instead of rebuilding it cold, and CheckpointEvery is the
	// checkpoint cadence (mirrored onto the chaos.Plan). A longer cadence
	// means staler restored state. Ignored unless both are set.
	WarmRestart     bool
	CheckpointEvery time.Duration

	// Control-plane cadences.
	ProfileEvery time.Duration // sOA → gOA profile reports
	BudgetEvery  time.Duration // gOA → sOA budget pushes

	// BudgetEpoch/OCBudgetFraction set the per-core overclock time budget.
	BudgetEpoch      time.Duration
	OCBudgetFraction float64
	// RackLimitScale scales the rack limit relative to the estimated
	// baseline-plus-half-overclock draw (<1 makes warnings and caps part
	// of normal operation, which is the regime worth testing).
	RackLimitScale float64
	// EnforcementGrace is how long rack power may exceed the limit before
	// the invariant fires — the enforcement-latency window within which
	// warnings and prioritized capping must restore safety.
	EnforcementGrace time.Duration

	// RecordEvery samples the registry into per-interval time series at
	// this sim-time cadence; the recording also feeds the default alert
	// rules after the run. Zero disables recording (and alerting).
	RecordEvery time.Duration
	// TraceOnly restricts the event trace to these components; empty
	// records everything.
	TraceOnly []obs.Component
}

// DefaultChaosConfig returns the profile used by `socsim -chaos` and the
// chaos regression test: 25% message loss, delays up to 30 s, duplicates,
// a 1-hour gOA outage in the middle of a 3-hour run, and 6 sOA crashes.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:             1,
		Start:            time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC),
		Duration:         3 * time.Hour,
		Tick:             5 * time.Second,
		Servers:          8,
		HW:               machine.DefaultConfig(),
		DropProb:         0.25,
		DupProb:          0.05,
		DelayProb:        0.20,
		MaxDelay:         30 * time.Second,
		BaseDelay:        50 * time.Millisecond,
		GOAOutageStart:   time.Hour,
		GOAOutage:        time.Hour,
		SOACrashes:       6,
		MaxCrashDown:     10 * time.Minute,
		ProfileEvery:     2 * time.Minute,
		BudgetEvery:      time.Minute,
		BudgetEpoch:      time.Hour,
		OCBudgetFraction: 0.25,
		RackLimitScale:   0.90,
		EnforcementGrace: 15 * time.Second,
		RecordEvery:      30 * time.Second,
	}
}

// Validate reports whether the configuration is runnable.
func (c ChaosConfig) Validate() error {
	switch {
	case c.Tick <= 0 || c.Duration < c.Tick:
		return fmt.Errorf("experiment: bad chaos tick/duration %v/%v", c.Tick, c.Duration)
	case c.Servers <= 0:
		return fmt.Errorf("experiment: chaos needs servers, got %d", c.Servers)
	case c.ProfileEvery <= 0 || c.BudgetEvery <= 0:
		return fmt.Errorf("experiment: non-positive control cadence")
	case c.BudgetEpoch <= 0 || c.OCBudgetFraction <= 0:
		return fmt.Errorf("experiment: bad OC budget %v/%v", c.BudgetEpoch, c.OCBudgetFraction)
	case c.EnforcementGrace < c.Tick:
		return fmt.Errorf("experiment: EnforcementGrace %v below one tick %v", c.EnforcementGrace, c.Tick)
	}
	return nil
}

// ChaosResult aggregates one chaos run.
type ChaosResult struct {
	Ticks     int
	Transport chaos.Stats
	// CapEvents/Warnings from the rack manager — nonzero means
	// enforcement actually had work to do during the run.
	CapEvents int
	Warnings  int
	// Overclocking activity, to prove the run wasn't vacuously safe.
	Requests int
	Granted  int
	// Crashes injected and restarts completed within the run.
	Crashes  int
	Restarts int
	// Checkpoints taken and warm restores applied (warm-restart mode only;
	// a restart with no checkpoint yet falls back to a cold boot).
	Checkpoints  int
	WarmRestores int
	// StaleBudgetTicks counts (server, tick) pairs where the sOA ran on a
	// gOA assignment older than 2× the push cadence (or none at all) —
	// the stale-budget epochs the exploration fallback has to cover.
	StaleBudgetTicks int
	// InvariantChecks is how many checker passes ran; Violations is what
	// they found (empty on a healthy run).
	InvariantChecks int64
	Violations      []invariant.Violation
	// Err is non-nil when invariants were violated, naming every recorded
	// violation with its tick, rack and invariant.
	Err error
	// Metrics and Trace are the run's observability output: chaos runs are
	// single-shard, so the snapshot is the one registry frozen at the end
	// and the trace is already in emission order.
	Metrics *metrics.Snapshot
	Trace   *obs.Tracer
	// Series is the continuous recording (nil when RecordEvery is zero);
	// Alerts are the default risk rules evaluated over it after the run.
	Series *metrics.Recording
	Alerts []alert.Alert
}

// soaCheckpoint is the chaos rig's checkpoint payload: the agent snapshot
// plus the slot's budget-freshness bookkeeping that must survive with it.
type soaCheckpoint struct {
	SOA      *core.SOAState `json:"soa"`
	Budget   float64        `json:"budget"`
	BudgetAt time.Time      `json:"budget_at"`
}

// squareWaveDemand reports whether server i of n wants to overclock at the
// given offset into the run: 20-minute square waves, 9 minutes on (~45%
// duty), phase-shifted evenly across the servers.
func squareWaveDemand(i, n int, since time.Duration) bool {
	const period = 20 * time.Minute
	phase := time.Duration(i) * period / time.Duration(n)
	return (since+phase)%period < 9*time.Minute
}

// partialOCLimit sizes a rack limit with headroom for some, not all, servers
// to overclock at once: scale × (current draw + half the all-server
// overclock delta).
func partialOCLimit(servers []*rigServer, scale float64) float64 {
	est := 0.0
	for _, s := range servers {
		est += s.srv.Power()
	}
	s0 := servers[0]
	fullOC := float64(len(servers)) * s0.srv.OCDeltaWatts(len(s0.vmCores), s0.srv.MaxOCMHz(), 0.9)
	return scale * (est + 0.5*fullOC)
}

// RunChaos executes the fault-injection experiment.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Start, cfg.Seed)
	end := cfg.Start.Add(cfg.Duration)

	// --- Transport with fault injection -----------------------------------
	var outages []chaos.Window
	if cfg.GOAOutage > 0 {
		outages = append(outages, chaos.Window{
			Agent: "goa",
			From:  cfg.Start.Add(cfg.GOAOutageStart),
			To:    cfg.Start.Add(cfg.GOAOutageStart + cfg.GOAOutage),
		})
	}
	tr := chaos.NewTransport(chaos.Config{
		Seed:      cfg.Seed + 1,
		DropProb:  cfg.DropProb,
		DupProb:   cfg.DupProb,
		DelayProb: cfg.DelayProb,
		MaxDelay:  cfg.MaxDelay,
		BaseDelay: cfg.BaseDelay,
		Outages:   outages,
	}, eng, agent.NewBus())

	// Chaos runs are always observed: a single shard on the real
	// discrete-event engine, so telemetry costs nothing measurable and the
	// trace documents the fault story tick by tick.
	reg := metrics.NewRegistry()
	tracer := newShardTracer(cfg.TraceOnly)
	tr.Instrument(reg, tracer)
	var recorder *metrics.Recorder
	if cfg.RecordEvery > 0 {
		recorder = metrics.NewRecorder(reg, cfg.Start, cfg.RecordEvery)
	}

	// --- Servers and workload ---------------------------------------------
	// Each server hosts one latency-critical VM spanning half its cores;
	// overclock demand arrives in phase-shifted square waves, deliberately
	// exceeding the per-epoch overclock time budget so the
	// lifetime-exhaustion path runs too.
	servers := make([]*rigServer, cfg.Servers)
	for i := range servers {
		servers[i] = newRigServer(fmt.Sprintf("ch-%02d", i), cfg.HW, cfg.HW.Cores/2)
	}
	demandAt := func(i int, now time.Time) bool {
		return squareWaveDemand(i, cfg.Servers, now.Sub(cfg.Start))
	}
	utilRng := rand.New(rand.NewSource(cfg.Seed + 2))
	setUtil := func(i int, now time.Time) {
		base := 0.35 + 0.05*utilRng.Float64()
		hot := base
		if demandAt(i, now) {
			hot = 0.80 + 0.10*utilRng.Float64()
		}
		servers[i].setUtil(hot, base)
	}
	for i := range servers {
		setUtil(i, cfg.Start)
	}

	// --- The rack's control plane: volatile sOAs over durable ledgers ------
	soaCfg := rigSOAConfig()
	soaCfg.InitialBackoff = time.Minute
	soaCfg.MaxBackoff = 15 * time.Minute
	soaCfg.ExhaustionWindow = 5 * time.Minute
	soaCfg.AdmissionUtil = 0.7
	rg := &rig{
		goaID:   "goa",
		limit:   partialOCLimit(servers, cfg.RackLimitScale),
		soaCfg:  soaCfg,
		bcfg:    rigBudgetConfig(cfg.BudgetEpoch, cfg.OCBudgetFraction),
		start:   cfg.Start,
		servers: servers,
		reg:     reg,
		tracer:  tracer,
	}
	rg.assemble("rack-chaos")

	// Every message travels the faulty transport, rack notifications
	// included: a lost warning means the sOA keeps exploring and gets capped
	// again — safe but slower, exactly the decentralized-enforcement story.
	// Bursts cross in one batched call; the transport draws its fault rng per
	// message in batch order, so results match unbatched sends byte for byte.
	deliver := func(m agent.Message) { rg.deliver(eng.Now(), m) }
	tr.Register(rg.goaID, deliver)
	agentNames := make([]string, len(servers))
	for i, s := range servers {
		tr.Register(s.agentID, deliver)
		agentNames[i] = s.agentID
	}
	rg.rack.Subscribe(func(ev power.Event) { _ = agent.SendAll(tr, rg.rackEventFanout(ev)) })

	// --- Crash/restart plan ------------------------------------------------
	res := &ChaosResult{}
	plan := chaos.GenPlan(cfg.Seed+3, agentNames, cfg.Start.Add(5*time.Minute),
		cfg.Duration-15*time.Minute, cfg.SOACrashes, cfg.MaxCrashDown)
	plan.WarmRestart = cfg.WarmRestart
	plan.CheckpointEvery = cfg.CheckpointEvery
	// ckpts holds each agent's last encoded checkpoint envelope.
	ckpts := make(map[string][]byte, len(servers))
	if plan.WarmRestart && plan.CheckpointEvery > 0 {
		eng.Every(cfg.Start.Add(plan.CheckpointEvery), plan.CheckpointEvery, func(now time.Time) {
			for _, s := range servers {
				if s.soa == nil {
					continue // crashed agents keep their previous checkpoint
				}
				data, err := store.Encode(now, &soaCheckpoint{SOA: s.volatileState(), Budget: s.budget, BudgetAt: s.budgetAt})
				if err == nil {
					ckpts[s.agentID] = data
					res.Checkpoints++
				}
			}
		})
	}
	plan.Schedule(eng, tr,
		func(name string) {
			if s := rg.byAgent[name]; s.soa != nil { // else already down (overlapping faults)
				s.crash()
				res.Crashes++
			}
		},
		func(name string) {
			s := rg.byAgent[name]
			if s.soa != nil {
				return
			}
			rg.boot(s, eng.Now())
			if data := ckpts[name]; plan.WarmRestart && data != nil {
				// Warm restart: restore the rebooted agent from its last
				// checkpoint. A decode/restore failure degrades to the cold
				// boot that already happened — never worse than cold.
				var ck soaCheckpoint
				if _, err := store.Decode(data, &ck); err == nil {
					if err := s.soa.Restore(ck.SOA); err == nil {
						s.budget, s.budgetAt = ck.Budget, ck.BudgetAt
						res.WarmRestores++
					}
				}
			}
			res.Restarts++
		})

	// --- Invariants --------------------------------------------------------
	checker := invariant.NewChecker()
	checker.Instrument(reg, tracer)
	rg.watch(checker, cfg.EnforcementGrace)
	rg.watchLedgers(checker, 12*cfg.Tick)

	// --- Periodic control planes -------------------------------------------
	// sOA → gOA profile reports (staggered one tick apart per server).
	for i, s := range servers {
		eng.Every(cfg.Start.Add(cfg.ProfileEvery+time.Duration(i)*cfg.Tick), cfg.ProfileEvery, func(now time.Time) {
			if msg, ok := rg.profileReport(s, now); ok {
				_ = tr.Send(msg)
			}
		})
	}
	// gOA → sOA budget pushes. While the gOA is down it computes nothing.
	eng.Every(cfg.Start.Add(cfg.BudgetEvery), cfg.BudgetEvery, func(now time.Time) {
		if !tr.Down(rg.goaID) {
			_ = agent.SendAll(tr, rg.budgetPushes(now))
		}
	})

	// --- Main control tick -------------------------------------------------
	staleAfter := 2 * cfg.BudgetEvery
	eng.Every(cfg.Start.Add(cfg.Tick), cfg.Tick, func(now time.Time) {
		res.Ticks++
		for i, s := range servers {
			setUtil(i, now)
			if s.soa == nil {
				continue // crashed: nobody to ask, VM runs at turbo
			}
			rg.stepServer(s, now, demandAt(i, now))
			fresh := s.budgetAt
			if fresh.IsZero() {
				fresh = cfg.Start // no push since boot: stale once the run is old enough
			}
			if now.Sub(fresh) > staleAfter {
				res.StaleBudgetTicks++
			}
		}
		rg.tickRack(now, cfg.Tick)
		checker.Check(now)
		// The callback fires at Start+k*Tick, so `now` is already the
		// tick's end boundary.
		if recorder != nil {
			recorder.Tick(now)
		}
	})

	eng.Run(end)

	// --- Aggregate ---------------------------------------------------------
	res.Transport = tr.Stats()
	res.CapEvents = rg.rack.CapEvents()
	res.Warnings = rg.rack.Warnings()
	res.Requests = rg.requests
	res.Granted = rg.granted
	res.InvariantChecks = checker.Checks()
	res.Violations = checker.Violations()
	res.Err = checker.Err()
	res.Metrics = reg.Snapshot()
	res.Trace = tracer
	if recorder != nil {
		res.Series = recorder.Recording()
		res.Alerts = alert.Eval(res.Series, alert.DefaultRules(), tracer)
	}
	return res, nil
}

// Format renders the chaos run as a report table.
func (r *ChaosResult) Format() string {
	tbl := &Table{
		Caption: "Chaos: fault-injected SmartOClock run (gOA outage + lossy control plane)",
		Headers: []string{"Metric", "Value"},
	}
	tbl.AddRow("ticks", r.Ticks)
	tbl.AddRow("messages sent", r.Transport.Sent)
	tbl.AddRow("messages lost", fmt.Sprintf("%d (%.1f%%)", r.Transport.Dropped+r.Transport.Outage, 100*r.Transport.LossFraction()))
	tbl.AddRow("messages duplicated", r.Transport.Duplicated)
	tbl.AddRow("messages delayed", r.Transport.Delayed)
	tbl.AddRow("sOA crashes / restarts", fmt.Sprintf("%d / %d", r.Crashes, r.Restarts))
	if r.Checkpoints > 0 || r.WarmRestores > 0 {
		tbl.AddRow("checkpoints / warm restores", fmt.Sprintf("%d / %d", r.Checkpoints, r.WarmRestores))
	}
	tbl.AddRow("stale-budget server-ticks", r.StaleBudgetTicks)
	tbl.AddRow("oc requests (granted)", fmt.Sprintf("%d (%d)", r.Requests, r.Granted))
	tbl.AddRow("rack warnings / cap events", fmt.Sprintf("%d / %d", r.Warnings, r.CapEvents))
	tbl.AddRow("invariant checks", r.InvariantChecks)
	tbl.AddRow("invariant violations", len(r.Violations))
	tbl.AddRow("alerts fired", len(r.Alerts))
	return tbl.Format()
}
