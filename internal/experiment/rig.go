package experiment

import (
	"cmp"
	"fmt"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/causal"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/invariant"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/metrics"
	"smartoclock/internal/power"
	"smartoclock/internal/predict"
	"smartoclock/internal/sim"
	"smartoclock/internal/store"
	"smartoclock/internal/timeseries"
)

// The rack rig is the paper's control plane (§IV) written once: an sOA per
// server, a gOA per rack, the rack manager that warns and caps, and the three
// messages between them — profile up, budget down, rack warning/cap event
// out. Every rack driver composes it and keeps only what is its own. Chaos,
// zoo, live, recovery and the contention cells run it over emulated machines
// (*cluster.Server) and keep the transport, the fault model, the demand
// pattern and the result accounting. The fleet behind Table I and the
// ablations runs it over replayed power traces (traceHost) and keeps the
// trace baselines, the demand and the Table I measurement.
//
// The rig has no clock and no transport. It builds message batches and
// applies delivered messages; the driver decides when to ask and how to move
// them. That is what keeps every driver's output byte-identical: same-instant
// engine events fire in the driver's registration order, and the chaos
// transport draws its fault rng per message in batch order.
//
// The rig observes through its embedded observer, whose every part may be
// nil: a driver that observes nothing leaves it zero, and recorded and
// unrecorded drivers share one code path with provenance spans drawn in one
// fixed order.

// rigProfileEvery and rigBudgetEvery are the control-plane cadences every
// rig driver runs: sOA → gOA profile reports and gOA → sOA budget pushes.
// A cold-restarted gOA has no profiles, so its first useful push lags a
// restart by up to their sum.
const rigProfileEvery, rigBudgetEvery = 2 * time.Minute, time.Minute

// scheduleRigMessages registers the control-plane schedule the simulated
// drivers share: sOA → gOA profile reports, server i's offset i×stagger, and
// gOA → sOA budget pushes while goaUp holds. send moves one message, in batch
// order (a faulty transport's rng order); a simulated transport loses
// messages silently, so its error is ignored. Same-instant events fire in
// registration order: each driver calls this where its sends belong.
func scheduleRigMessages(eng *sim.Engine, rg *rig[*cluster.Server], stagger time.Duration, send func(agent.Message) error, goaUp func() bool) {
	for i, s := range rg.servers {
		eng.Every(rg.start.Add(rigProfileEvery+time.Duration(i)*stagger), rigProfileEvery, func(now time.Time) {
			if msg, ok := rg.profileReport(s, now); ok {
				_ = send(msg)
			}
		})
	}
	eng.Every(rg.start.Add(rigBudgetEvery), rigBudgetEvery, func(now time.Time) {
		if goaUp() {
			for _, m := range rg.budgetPushes(now) {
				_ = send(m)
			}
		}
	})
}

// rigSOAConfig returns the sOA cadences every rack rig agrees on. Back-off,
// admission, exploration and policy knobs stay with the driver.
func rigSOAConfig() core.SOAConfig {
	c := core.DefaultSOAConfig()
	c.ProfileStep = time.Minute
	c.ExploreConfirm = 30 * time.Second
	c.ExploitTime = 5 * time.Minute
	c.DefaultOCHorizon = 5 * time.Minute
	return c
}

// stressSOAConfig is rigSOAConfig with the knobs of the drivers that stress
// the control plane — chaos, zoo and the contention cells: back-off from one
// to fifteen minutes, a five-minute exhaustion window and admission at 70 %
// utilization.
func stressSOAConfig() core.SOAConfig {
	c := rigSOAConfig()
	c.InitialBackoff = time.Minute
	c.MaxBackoff = 15 * time.Minute
	c.ExhaustionWindow = 5 * time.Minute
	c.AdmissionUtil = 0.7
	return c
}

// rigBudgetConfig is the per-core overclock time budget every rig uses: one
// epoch of carry-over on top of the driver's epoch and fraction.
func rigBudgetConfig(epoch time.Duration, fraction float64) lifetime.BudgetConfig {
	return lifetime.BudgetConfig{Epoch: epoch, Fraction: fraction, CarryOver: true, MaxCarryOver: 1}
}

// recentProfile wraps an sOA's recent profile (core.SOA.RecentProfile) as
// the report server name sends the gOA.
func recentProfile(a *core.SOA, name string, coreCost float64) agent.Profile {
	med, requested, granted := a.RecentProfile()
	return agent.Profile{
		Server: name, MedianWatts: med,
		Requested: requested, Granted: granted, CoreCost: coreCost,
	}
}

// flatBlock is everything one flat profile points at, allocated as one
// object. Each week's weekday and weekend halves share one slot array. That
// is safe only because nothing writes a gOA profile's slots: GOA.Snapshot
// shares profiles by pointer, and the budget split only reads them.
type flatBlock struct {
	slots [3][24]float64
	days  [6]timeseries.DayTemplate
	weeks [3]timeseries.WeekTemplate
	oc    predict.OCTemplate
}

// flatProfile expands a profile report into the week-template shape the gOA
// consumes — the weekly template exchange (§IV-C) compressed to the rigs'
// time scale. Each template is timeseries.FlatWeek(v, time.Hour) in value
// and in JSON, built in one allocation.
func flatProfile(p agent.Profile) core.ServerProfile {
	b := new(flatBlock)
	for k, v := range [3]float64{p.MedianWatts, p.Requested, p.Granted} {
		for i := range b.slots[k] {
			b.slots[k][i] = v
		}
		b.days[2*k] = timeseries.DayTemplate{Step: time.Hour, Kind: timeseries.Weekdays, Slots: b.slots[k][:]}
		b.days[2*k+1] = timeseries.DayTemplate{Step: time.Hour, Kind: timeseries.Weekends, Slots: b.slots[k][:]}
		b.weeks[k] = timeseries.WeekTemplate{Weekday: &b.days[2*k], Weekend: &b.days[2*k+1]}
	}
	b.oc = predict.OCTemplate{Requested: &b.weeks[1], Granted: &b.weeks[2]}
	return core.ServerProfile{Power: &b.weeks[0], OC: &b.oc, OCCoreCost: p.CoreCost}
}

// rigHost is what the rig asks of a slot's machine: the sOA's view of it, the
// rack manager's, the effective frequency the invariant hooks read, and the
// per-tick advance and instrumentation. Drivers keep their concrete host type,
// so they reach the rest of it (severity, snapshots, per-core utilization)
// without a type assertion.
type rigHost interface {
	core.Host
	power.Server
	EffectiveFreq(core int) int
	Advance(dt time.Duration)
	Instrument(reg *metrics.Registry, labels ...metrics.Label)
}

// rigServer is one server slot of a rack rig.
type rigServer[H rigHost] struct {
	srv H
	// host is the view of srv the sOA sees: srv itself, or a wrapper with
	// an imperfect sensor.
	host    core.Host
	agentID string
	// coreCost is the extra watts of one core fully overclocked at full
	// utilization, as the slot's profile reports it to the gOA.
	coreCost float64
	// vmCores are the cores of the slot's latency-critical VM, the one whose
	// overclock demand stepServer drives.
	vmCores []int
	// pinned maps cores an operator pinned (live API deployments) to the
	// utilization setUtil leaves them at.
	pinned map[int]float64
	// ledger is durable: it survives sOA crashes, like NVRAM-backed wear
	// accounting would. soa is volatile and nil while crashed.
	ledger *lifetime.CoreBudgets
	soa    *core.SOA
	// budget/budgetAt are the last gOA push applied since boot; a zero
	// budgetAt means none arrived yet.
	budget   float64
	budgetAt time.Time
}

// newRigServer builds a slot on srv whose VM spans the first vmCores cores.
func newRigServer[H rigHost](srv H, coreCost float64, vmCores int) *rigServer[H] {
	s := &rigServer[H]{
		srv: srv, host: srv, agentID: "soa/" + srv.Name(),
		coreCost: coreCost, vmCores: make([]int, vmCores),
	}
	for c := range s.vmCores {
		s.vmCores[c] = c
	}
	return s
}

// setUtil runs the VM's cores of an emulated slot at vm, pinned cores at
// their pin and every other core at rest.
func setUtil(s *rigServer[*cluster.Server], vm, rest float64) {
	for c := 0; c < s.srv.NumCores(); c++ {
		if c < len(s.vmCores) {
			s.srv.SetCoreUtil(c, vm)
		} else {
			s.srv.SetCoreUtil(c, rest)
		}
	}
	for c, u := range s.pinned {
		s.srv.SetCoreUtil(c, u)
	}
}

// crash discards the slot's sOA. The host watchdog fail-safes overclocking
// when its agent dies: cores return to turbo, so an unsupervised server can
// never burn budget or power it wouldn't be granted.
func (s *rigServer[H]) crash() {
	for c := 0; c < s.srv.NumCores(); c++ {
		s.srv.SetDesiredFreq(c, s.srv.TurboMHz())
	}
	s.soa = nil
}

// volatileState snapshots the slot's sOA without its lifetime ledger: the
// ledger is durable on its own (NVRAM-style, it survives crashes), and
// restoring a stale copy would roll back consumed wear.
func (s *rigServer[H]) volatileState() *core.SOAState {
	snap := s.soa.Snapshot()
	snap.Budgets = nil
	return snap
}

// rig owns one rack's control plane. A driver fills the first two field
// groups — the recipe and the optional observer — then calls assemble, which
// builds the rest. A driver that runs part of the plane calls assembleRack,
// then bootGOA and boot for the agents it runs, if any.
type rig[H rigHost] struct {
	// goaID is the gOA's agent name on the driver's transport.
	goaID   string
	limit   float64 // what the gOA splits and the sOAs share evenly at boot
	soaCfg  core.SOAConfig
	bcfg    lifetime.BudgetConfig
	start   time.Time
	servers []*rigServer[H]
	// session names the WI's overclock session on every slot; empty means
	// "vm".
	session string

	// observer's labels tag the rack's, hosts' and gOA's series, soaLabels
	// the sOAs'. They are set when several rigs' series merge into one.
	observer
	soaLabels []metrics.Label

	rack    *power.Rack
	goa     *core.GOA // nil while crashed or never booted
	byAgent map[string]*rigServer[H]
	// requests/granted count the VM asks serve made and won.
	requests, granted int
	// out is the scratch every batch builds into: a returned batch is valid
	// until the next batch-building call on the same rig.
	out []agent.Message
}

// assemble builds the whole control plane: the rack from rc, the gOA, and a
// booted sOA over its durable ledger on every configured slot.
func (r *rig[H]) assemble(rc power.RackConfig) {
	r.assembleRack(rc)
	r.bootGOA()
	for _, s := range r.servers {
		r.boot(s, r.start)
	}
}

// assembleRack builds the rack manager from rc over the configured slots and
// instruments the rack and its hosts.
func (r *rig[H]) assembleRack(rc power.RackConfig) {
	members := make([]power.Server, len(r.servers))
	r.byAgent = make(map[string]*rigServer[H], len(r.servers))
	for i, s := range r.servers {
		members[i] = s.srv
		r.byAgent[s.agentID] = s
	}
	r.rack = power.NewRack(rc, members...)
	r.rack.Instrument(r.reg, r.tracer, r.prov, r.labels...)
	if r.reg != nil {
		for _, s := range r.servers {
			s.srv.Instrument(r.reg, r.labels...)
		}
	}
}

// bootGOA starts a gOA with no profiles — the initial boot, or a restart.
func (r *rig[H]) bootGOA() {
	r.goa = core.NewGOA(r.rack.Name(), r.limit)
	r.goa.Instrument(r.reg, r.tracer, r.prov, r.labels...)
}

// boot starts a fresh sOA on s at the rack's even share over the slot's
// durable ledger, made on first boot. Rebooted agents resolve the same series
// (identity is name+labels), so counters accumulate across restarts.
func (r *rig[H]) boot(s *rigServer[H], now time.Time) {
	if s.ledger == nil {
		s.ledger = lifetime.NewCoreBudgets(r.bcfg, s.srv.NumCores(), r.start)
	}
	s.soa = core.NewSOA(r.soaCfg, s.host, s.ledger, r.limit/float64(len(r.servers)), now)
	s.soa.Instrument(r.reg, r.tracer, r.prov, r.soaLabels...)
	s.budget, s.budgetAt = 0, time.Time{}
}

// checkpoint snapshots the gOA and every sOA with its ledger; all must be up.
func (r *rig[H]) checkpoint() *store.Checkpoint {
	cp := &store.Checkpoint{GOA: r.goa.Snapshot(), SOAs: make(map[string]*core.SOAState, len(r.servers))}
	for _, s := range r.servers {
		cp.SOAs[s.srv.Name()] = s.soa.Snapshot()
	}
	return cp
}

// restore restarts the whole control plane at now — a fresh gOA and a fresh
// sOA on every slot — and then, if cp is not nil, warm-starts them from it.
// Ledgers are durable: the sOAs keep theirs, and a snapshot that carries a
// ledger overwrites it in place. A checkpoint read from disk may hold no
// gOA; the rebooted gOA then stays cold.
func (r *rig[H]) restore(now time.Time, cp *store.Checkpoint) error {
	r.bootGOA()
	for _, s := range r.servers {
		r.boot(s, now)
	}
	if cp == nil {
		return nil
	}
	if cp.GOA != nil {
		r.goa.Restore(cp.GOA)
	}
	for _, s := range r.servers {
		if st, ok := cp.SOAs[s.srv.Name()]; ok {
			if err := s.soa.Restore(st); err != nil {
				return fmt.Errorf("restore %s: %w", s.srv.Name(), err)
			}
		}
	}
	return nil
}

// deliver applies one control-plane message at now. A rig-typed message
// without its typed body or with a non-finite one, an unknown type or
// recipient, and a message for a crashed agent are dropped.
func (r *rig[H]) deliver(now time.Time, m agent.Message) {
	switch m.Type {
	case "soa.profile":
		p := m.Profile
		if m.Body != agent.BodyProfile || !p.Finite() || m.To != r.goaID || r.goa == nil {
			return
		}
		r.goa.NoteProfile(m.Span)
		r.goa.SetProfile(p.Server, flatProfile(p))
	case "goa.budget":
		b := m.Budget
		s := r.byAgent[m.To]
		if m.Body != agent.BodyBudget || !b.Finite() || b.Watts <= 0 || s == nil || s.soa == nil {
			return
		}
		s.soa.SetStaticBudget(b.Watts, true)
		s.soa.NoteBudget(now, b.Watts, m.Span)
		s.budget, s.budgetAt = b.Watts, now
	case "rack.event":
		ev := m.RackEvent
		s := r.byAgent[m.To]
		if m.Body != agent.BodyRackEvent || !ev.Finite() || s == nil || s.soa == nil {
			return
		}
		s.soa.OnRackEvent(now, power.Event{
			Kind: power.EventKind(ev.Kind), Time: now,
			Rack: r.rack.Name(), Power: ev.Power, Limit: ev.Limit,
			Span: m.Span,
		})
	}
}

// profileReport builds s's sOA → gOA profile message; false while crashed
// or when the profile is not finite.
func (r *rig[H]) profileReport(s *rigServer[H], now time.Time) (agent.Message, bool) {
	if s.soa == nil {
		return agent.Message{}, false
	}
	p := recentProfile(s.soa, s.srv.Name(), s.coreCost)
	if !p.Finite() {
		return agent.Message{}, false
	}
	msg := agent.ProfileMessage("soa.profile", s.agentID, r.goaID, p)
	msg.Span = uint64(r.prov.Emit(causal.Record{
		Time:      now,
		Kind:      causal.KindMessage,
		Component: "soa",
		Site:      "msg.soa.profile",
		Subject:   s.srv.Name(),
	}))
	return msg, true
}

// profileReports batches every running sOA's profile report, in server order.
func (r *rig[H]) profileReports(now time.Time) []agent.Message {
	batch := r.out[:0]
	for _, s := range r.servers {
		if msg, ok := r.profileReport(s, now); ok {
			batch = append(batch, msg)
		}
	}
	r.out = batch
	return batch
}

// budgetPushes batches the gOA → sOA budget messages for now: every positive,
// finite budget. Broadcast trace events and provenance spans are drawn in
// server order as the batch builds.
func (r *rig[H]) budgetPushes(now time.Time) []agent.Message {
	budgets := r.goa.BudgetsAt(now)
	batch := r.out[:0]
	for _, s := range r.servers {
		b, ok := budgets[s.srv.Name()]
		body := agent.Budget{Watts: b}
		if !ok || !body.Finite() || b <= 0 {
			continue
		}
		r.goa.TraceBroadcast(now, s.srv.Name(), b)
		msg := agent.BudgetMessage("goa.budget", r.goaID, s.agentID, body)
		msg.Span = r.goa.ProvenanceBroadcast(now, s.srv.Name(), b)
		batch = append(batch, msg)
	}
	r.out = batch
	return batch
}

// rackEventFanout batches one rack warning/cap/release notification to every
// sOA; an event whose power or limit is not finite sends nothing. Capping
// itself is enforced in hardware (the rack manager throttles directly); only
// the notifications are messages. Each copy carries its own provenance span
// chained to the event's, so sOA setbacks trace back to the event.
func (r *rig[H]) rackEventFanout(ev power.Event) []agent.Message {
	body := agent.RackEvent{Kind: int64(ev.Kind), Power: ev.Power, Limit: ev.Limit}
	if !body.Finite() {
		return nil
	}
	batch := r.out[:0]
	for _, s := range r.servers {
		msg := agent.RackEventMessage("rack.event", "rack", s.agentID, body)
		msg.Span = uint64(r.prov.Emit(causal.Record{
			Parent:    causal.SpanID(ev.Span),
			Time:      ev.Time,
			Kind:      causal.KindMessage,
			Component: "rack",
			Site:      "msg.rack.event",
			Subject:   s.agentID,
		}))
		batch = append(batch, msg)
	}
	r.out = batch
	return batch
}

// serve plays s's workload-intelligence agent for one tick: it keeps the
// slot's overclock session at cores. A session of another size is stopped
// and asked for again, no demand stops it, and unmet demand asks every tick
// (the WI keeps asking, which is also what drives the sOA's exploration).
// The sOA must be running.
func (r *rig[H]) serve(s *rigServer[H], now time.Time, cores int) {
	vm := cmp.Or(r.session, "vm")
	sess, active := s.soa.Sessions()[vm]
	if active && len(sess.Cores) == cores {
		return
	}
	if active {
		s.soa.Stop(now, vm)
	}
	if cores == 0 {
		return
	}
	r.requests++
	req := core.Request{
		VM: vm, Cores: cores, TargetMHz: s.srv.MaxOCMHz(),
		Priority: core.PriorityMetric, PreferredCores: s.vmCores,
	}
	// The WI's ask is the root of the admission chain: the sOA's verdict
	// record names this span as its parent.
	if r.prov != nil {
		req.Span = uint64(r.prov.Emit(causal.Record{
			Time:      now,
			Kind:      causal.KindMessage,
			Component: "wi",
			Site:      "wi.request",
			Subject:   s.srv.Name() + "/" + vm,
		}))
	}
	if s.soa.Request(now, req).Granted {
		r.granted++
	}
}

// stepServer serves s's VM — its whole core set while want holds, nothing
// otherwise — then runs the sOA's control loop.
func (r *rig[H]) stepServer(s *rigServer[H], now time.Time, want bool) {
	cores := 0
	if want {
		cores = len(s.vmCores)
	}
	r.serve(s, now, cores)
	s.soa.Tick(now)
}

// tickRack advances every server's hardware by dt and runs the rack manager.
func (r *rig[H]) tickRack(now time.Time, dt time.Duration) {
	for _, s := range r.servers {
		s.srv.Advance(dt)
	}
	r.rack.Tick(now)
}

// watch registers the rack's invariant battery: rack power within its limit
// (after grace), gOA budget conservation on a rig that booted a gOA, and
// every session within its grant.
func (r *rig[H]) watch(c *invariant.Checker, grace time.Duration) {
	invariant.RackPowerWithinLimit(c, r.rack, grace)
	if r.goa != nil {
		invariant.BudgetConservation(c, r.goa, 1e-3)
	}
	for _, s := range r.servers {
		invariant.SessionsWithinGrant(c, r.rack.Name(), s.srv, func() *core.SOA { return s.soa })
	}
}

// watchLedgers adds the independent per-core lifetime accounting. It assumes
// it watched the run from its start, so a warm-restored run must skip it.
func (r *rig[H]) watchLedgers(c *invariant.Checker, slack time.Duration) {
	for _, s := range r.servers {
		invariant.CoreBudgetsNeverOverdrawn(c, r.rack.Name(), s.srv, r.bcfg, r.start, slack)
	}
}
