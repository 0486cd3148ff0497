package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/alert"
	"smartoclock/internal/chaos"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/invariant"
	"smartoclock/internal/machine"
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
	case c.BudgetEpoch <= 0 || c.OCBudgetFraction <= 0:
		return fmt.Errorf("experiment: bad OC budget %v/%v", c.BudgetEpoch, c.OCBudgetFraction)
	case c.EnforcementGrace < c.Tick:
		return fmt.Errorf("experiment: EnforcementGrace %v below one tick %v", c.EnforcementGrace, c.Tick)
	case c.RackLimitScale <= 0:
		return fmt.Errorf("experiment: chaos RackLimitScale = %v, must be positive", c.RackLimitScale)
	}
	return errors.Join(c.HW.Validate(), c.transportConfig().Validate())
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
	// FleetObservation is the run's observability output: chaos runs are
	// single-shard, so the snapshot is the one registry frozen at the end
	// and the trace is already in emission order. Series is nil when
	// RecordEvery is zero, and Provenance is always nil.
	FleetObservation
	// Alerts are the default risk rules evaluated over Series after the run.
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

// setSquareWaveUtil draws a square-wave server's utilization: its VM's cores
// run hot while it wants to overclock, and everything else runs at rest.
func setSquareWaveUtil(s *rigServer[*cluster.Server], rng *rand.Rand, want bool) {
	rest := 0.35 + 0.05*rng.Float64()
	vm := rest
	if want {
		vm = 0.80 + 0.10*rng.Float64()
	}
	setUtil(s, vm, rest)
}

// partialOCLimit sizes a rack limit with headroom for some, not all, servers
// to overclock at once: scale × (current draw + half the all-server
// overclock delta).
func partialOCLimit(servers []*rigServer[*cluster.Server], scale float64) float64 {
	est := 0.0
	for _, s := range servers {
		est += s.srv.Power()
	}
	s0 := servers[0]
	fullOC := float64(len(servers)) * s0.srv.OCDeltaWatts(len(s0.vmCores), s0.srv.MaxOCMHz(), 0.9)
	return scale * (est + 0.5*fullOC)
}

// transportConfig is the run's fault model: the message faults plus the gOA
// outage window.
func (c ChaosConfig) transportConfig() chaos.Config {
	var outages []chaos.Window
	if c.GOAOutage > 0 {
		from := c.Start.Add(c.GOAOutageStart)
		outages = []chaos.Window{{Agent: "goa", From: from, To: from.Add(c.GOAOutage)}}
	}
	return chaos.Config{
		Seed:      c.Seed + 1,
		DropProb:  c.DropProb,
		DupProb:   c.DupProb,
		DelayProb: c.DelayProb,
		MaxDelay:  c.MaxDelay,
		BaseDelay: c.BaseDelay,
		Outages:   outages,
	}
}

// wireRig and scheduleRigMessages are the sim-transport wiring the chaos and
// zoo drivers share. They belong to the drivers, since the rig has no clock
// and no transport, and each driver calls them where it used to register
// these pieces itself, which keeps the engine's registration order.
//
// wireRig registers rg's gOA and sOAs on tr and sends each rack event's
// fan-out across it. Every message travels the faulty transport, rack
// notifications included: a lost warning means the sOA keeps exploring and
// gets capped again — safe but slower, exactly the decentralized-enforcement
// story. Bursts cross in one batched call; the transport draws its fault rng
// per message in batch order, so results match unbatched sends byte for byte.
func wireRig(eng *sim.Engine, tr *chaos.Transport, rg *rig[*cluster.Server]) {
	deliver := func(m agent.Message) { rg.deliver(eng.Now(), m) }
	tr.Register(rg.goaID, deliver)
	for _, s := range rg.servers {
		tr.Register(s.agentID, deliver)
	}
	rg.rack.Subscribe(func(ev power.Event) { _ = agent.SendAll(tr, rg.rackEventFanout(ev)) })
}

// scheduleRigMessages registers rg's periodic sends on tr: sOA → gOA profile
// reports, staggered one tick apart per server, and gOA → sOA budget pushes,
// which a downed gOA does not compute.
func scheduleRigMessages(eng *sim.Engine, tr *chaos.Transport, rg *rig[*cluster.Server], tick time.Duration) {
	for i, s := range rg.servers {
		eng.Every(rg.start.Add(rigProfileEvery+time.Duration(i)*tick), rigProfileEvery, func(now time.Time) {
			if msg, ok := rg.profileReport(s, now); ok {
				_ = tr.Send(msg)
			}
		})
	}
	eng.Every(rg.start.Add(rigBudgetEvery), rigBudgetEvery, func(now time.Time) {
		if !tr.Down(rg.goaID) {
			_ = agent.SendAll(tr, rg.budgetPushes(now))
		}
	})
}

// chaosRun is one fault-injection run: the rig on the faulty transport, the
// crash/restart plan with its checkpoint store, and the result it fills.
type chaosRun struct {
	cfg     ChaosConfig
	eng     *sim.Engine
	tr      *chaos.Transport
	rg      *rig[*cluster.Server]
	utilRng *rand.Rand
	checker *invariant.Checker
	// ckpts holds each agent's last encoded checkpoint envelope.
	ckpts map[string][]byte
	res   *ChaosResult
}

// RunChaos executes the fault-injection experiment.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := newChaosRun(cfg)
	c.eng.Run(cfg.Start.Add(cfg.Duration))
	return c.result(), nil
}

// newChaosRun builds the run and registers its engine events: checkpoints,
// crashes and restarts, profile reports, budget pushes, then the control tick.
//
// Each server hosts one latency-critical VM spanning half its cores; overclock
// demand arrives in phase-shifted square waves, deliberately exceeding the
// per-epoch overclock time budget so the lifetime-exhaustion path runs too.
// The rack's control plane is volatile sOAs over durable ledgers. Chaos runs
// are always observed: a single shard on the real discrete-event engine, so
// telemetry costs nothing measurable and the trace documents the fault story
// tick by tick.
func newChaosRun(cfg ChaosConfig) *chaosRun {
	eng := sim.NewEngine(cfg.Start, cfg.Seed)
	utilRng := rand.New(rand.NewSource(cfg.Seed + 2))
	servers := make([]*rigServer[*cluster.Server], cfg.Servers)
	for i := range servers {
		servers[i] = newRigServer(cluster.NewServer(fmt.Sprintf("ch-%02d", i), cfg.HW, 0), cfg.HW.OCCoreCost(), cfg.HW.Cores/2)
		setSquareWaveUtil(servers[i], utilRng, squareWaveDemand(i, cfg.Servers, 0))
	}
	c := &chaosRun{
		cfg: cfg,
		eng: eng,
		tr:  chaos.NewTransport(cfg.transportConfig(), eng, agent.NewBus()),
		rg: &rig[*cluster.Server]{
			goaID:   "goa",
			soaCfg:  stressSOAConfig(),
			bcfg:    rigBudgetConfig(cfg.BudgetEpoch, cfg.OCBudgetFraction),
			start:   cfg.Start,
			servers: servers,
			observer: newObserver(observeKnobs{
				observe: true, only: cfg.TraceOnly, recordEvery: cfg.RecordEvery, start: cfg.Start,
			}),
		},
		utilRng: utilRng,
		checker: invariant.NewChecker(),
		ckpts:   make(map[string][]byte, cfg.Servers),
		res:     &ChaosResult{},
	}
	c.tr.Instrument(c.rg.reg, c.rg.tracer)
	c.rg.limit = partialOCLimit(servers, cfg.RackLimitScale)
	c.rg.assemble(power.DefaultRackConfig("rack-chaos", c.rg.limit))
	wireRig(eng, c.tr, c.rg)

	// The sOA crash/restart plan, preceded by the periodic checkpoints when
	// restarts are warm.
	agents := make([]string, len(servers))
	for i, s := range servers {
		agents[i] = s.agentID
	}
	plan := chaos.GenPlan(cfg.Seed+3, agents, cfg.Start.Add(5*time.Minute), cfg.Duration-15*time.Minute,
		cfg.SOACrashes, cfg.MaxCrashDown)
	plan.WarmRestart, plan.CheckpointEvery = cfg.WarmRestart, cfg.CheckpointEvery
	if plan.WarmRestart && plan.CheckpointEvery > 0 {
		eng.Every(cfg.Start.Add(plan.CheckpointEvery), plan.CheckpointEvery, c.checkpoint)
	}
	plan.Schedule(eng, c.tr, c.crash, c.restart)

	c.checker.Instrument(c.rg.reg, c.rg.tracer, c.rg.prov)
	c.rg.watch(c.checker, cfg.EnforcementGrace)
	c.rg.watchLedgers(c.checker, 12*cfg.Tick)
	scheduleRigMessages(eng, c.tr, c.rg, cfg.Tick)
	eng.Every(cfg.Start.Add(cfg.Tick), cfg.Tick, c.tick)
	return c
}

// checkpoint encodes every running sOA's volatile state with its budget
// freshness; crashed agents keep their previous checkpoint.
func (c *chaosRun) checkpoint(now time.Time) {
	for _, s := range c.rg.servers {
		if s.soa == nil {
			continue
		}
		data, err := store.Encode(now, &soaCheckpoint{SOA: s.volatileState(), Budget: s.budget, BudgetAt: s.budgetAt})
		if err == nil {
			c.ckpts[s.agentID] = data
			c.res.Checkpoints++
		}
	}
}

// crash takes the named sOA down, unless overlapping faults already did.
func (c *chaosRun) crash(name string) {
	if s := c.rg.byAgent[name]; s.soa != nil {
		s.crash()
		c.res.Crashes++
	}
}

// restart reboots the named sOA cold and, in warm-restart mode, restores it
// from its last checkpoint. A decode or restore failure degrades to the cold
// boot that already happened — never worse than cold.
func (c *chaosRun) restart(name string) {
	s := c.rg.byAgent[name]
	if s.soa != nil {
		return
	}
	c.rg.boot(s, c.eng.Now())
	if data := c.ckpts[name]; data != nil {
		var ck soaCheckpoint
		if _, err := store.Decode(data, &ck); err == nil {
			if err := s.soa.Restore(ck.SOA); err == nil {
				s.budget, s.budgetAt = ck.Budget, ck.BudgetAt
				c.res.WarmRestores++
			}
		}
	}
	c.res.Restarts++
}

// tick is the main control tick. The engine fires it at Start+k*Tick, so now
// is already the tick's end boundary.
func (c *chaosRun) tick(now time.Time) {
	c.res.Ticks++
	staleAfter := 2 * rigBudgetEvery
	for i, s := range c.rg.servers {
		want := squareWaveDemand(i, c.cfg.Servers, now.Sub(c.cfg.Start))
		setSquareWaveUtil(s, c.utilRng, want)
		if s.soa == nil {
			continue // crashed: nobody to ask, VM runs at turbo
		}
		c.rg.stepServer(s, now, want)
		fresh := s.budgetAt
		if fresh.IsZero() {
			fresh = c.cfg.Start // no push since boot: stale once the run is old enough
		}
		if now.Sub(fresh) > staleAfter {
			c.res.StaleBudgetTicks++
		}
	}
	c.rg.tickRack(now, c.cfg.Tick)
	c.checker.Check(now)
	if c.rg.recorder != nil {
		c.rg.recorder.Tick(now)
	}
}

// result aggregates the finished run.
func (c *chaosRun) result() *ChaosResult {
	res := c.res
	res.Transport = c.tr.Stats()
	res.CapEvents = c.rg.rack.CapEvents()
	res.Warnings = c.rg.rack.Warnings()
	res.Requests = c.rg.requests
	res.Granted = c.rg.granted
	res.InvariantChecks = c.checker.Checks()
	res.Violations = c.checker.Violations()
	res.Err = c.checker.Err()
	res.FleetObservation = c.rg.freeze()
	if res.Series != nil {
		res.Alerts = alert.Eval(res.Series, alert.DefaultRules(), c.rg.tracer, c.rg.prov)
	}
	return res
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
