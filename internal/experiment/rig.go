package experiment

import (
	"encoding/json"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/causal"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/invariant"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/power"
	"smartoclock/internal/predict"
	"smartoclock/internal/stats"
	"smartoclock/internal/timeseries"
)

// The rack rig is the paper's control plane (§IV) written once: an sOA per
// server, a gOA per rack, and the three messages between them — profile up,
// budget down, rack warning/cap event out. The chaos, zoo, live and recovery
// drivers compose it and keep only what is theirs: the transport, the fault
// model, the demand pattern and the result accounting.
//
// The rig has no clock and no transport. It builds message batches and
// applies delivered messages; the driver decides when to ask and how to move
// them. That is what keeps every driver's output byte-identical: same-instant
// engine events fire in the driver's registration order, and the chaos
// transport draws its fault rng per message in batch order.
//
// Every observation handle (registry, tracer, provenance recorder) may be
// nil; each Emit/Note*/Trace* call is a no-op on a nil handle, so recorded
// and unrecorded drivers share one code path and provenance spans are drawn
// in one fixed order.

// Control-plane payloads. They cross the transports as JSON — the same
// encode/decode path the TCP transport uses — so fault-injected runs
// exercise real (de)serialization, not Go pointers.

type profileMsg struct {
	Server      string  `json:"server"`
	MedianWatts float64 `json:"median_watts"`
	Requested   float64 `json:"requested_cores"`
	Granted     float64 `json:"granted_cores"`
	CoreCost    float64 `json:"core_cost"`
}

type budgetMsg struct {
	Watts float64 `json:"watts"`
}

type rackEventMsg struct {
	Kind  int     `json:"kind"`
	Power float64 `json:"power"`
	Limit float64 `json:"limit"`
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

// recentProfile summarizes an sOA's recent behavior as a profile report: the
// median of its last ten power samples (the live reading before the first
// sample) and its recent overclock demand, never below what is granted now.
func recentProfile(a *core.SOA, host core.Host, coreCost float64) profileMsg {
	window := a.PowerRecord().Values
	if len(window) > 10 {
		window = window[len(window)-10:]
	}
	med := stats.Median(window)
	if len(window) == 0 {
		med = host.Power()
	}
	granted := float64(a.ActiveOCCores())
	requested := a.RecentRequestedCores(5)
	if granted > requested {
		requested = granted
	}
	return profileMsg{
		Server: host.Name(), MedianWatts: med,
		Requested: requested, Granted: granted, CoreCost: coreCost,
	}
}

// flatProfile expands a profile report into the week-template shape the gOA
// consumes — the weekly template exchange (§IV-C) compressed to the rigs'
// time scale.
func flatProfile(p profileMsg) core.ServerProfile {
	return core.ServerProfile{
		Power: timeseries.FlatWeek(p.MedianWatts, time.Hour),
		OC: &predict.OCTemplate{
			Requested: timeseries.FlatWeek(p.Requested, time.Hour),
			Granted:   timeseries.FlatWeek(p.Granted, time.Hour),
		},
		OCCoreCost: p.CoreCost,
	}
}

// rigServer is one server slot of a rack rig.
type rigServer struct {
	srv *cluster.Server
	// host is the view of srv the sOA sees: srv itself, or a wrapper with
	// an imperfect sensor.
	host    core.Host
	agentID string
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
func newRigServer(srv *cluster.Server, vmCores int) *rigServer {
	s := &rigServer{srv: srv, host: srv, agentID: "soa/" + srv.Name(), vmCores: make([]int, vmCores)}
	for c := range s.vmCores {
		s.vmCores[c] = c
	}
	return s
}

// setUtil runs the VM's cores at vm, pinned cores at their pin and every
// other core at rest.
func (s *rigServer) setUtil(vm, rest float64) {
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
func (s *rigServer) crash() {
	for c := 0; c < s.srv.NumCores(); c++ {
		s.srv.SetDesiredFreq(c, s.srv.TurboMHz())
	}
	s.soa = nil
}

// volatileState snapshots the slot's sOA without its lifetime ledger: the
// ledger is durable on its own (NVRAM-style, it survives crashes), and
// restoring a stale copy would roll back consumed wear.
func (s *rigServer) volatileState() *core.SOAState {
	snap := s.soa.Snapshot()
	snap.Budgets = nil
	return snap
}

// rig owns one rack's control plane. A driver fills the first two field
// groups — the recipe and the optional observers — then calls assemble, which
// builds the rest.
type rig struct {
	// goaID is the gOA's agent name on the driver's transport.
	goaID   string
	limit   float64
	soaCfg  core.SOAConfig
	bcfg    lifetime.BudgetConfig
	start   time.Time
	servers []*rigServer

	reg    *metrics.Registry
	tracer *obs.Tracer
	prov   *causal.Recorder

	rack    *power.Rack
	goa     *core.GOA // nil while crashed
	byAgent map[string]*rigServer
	// requests/granted count the VM asks stepServer made and won.
	requests, granted int
	// out is the scratch every batch builds into: a returned batch is valid
	// until the next batch-building call on the same rig.
	out []agent.Message
}

// assemble builds the rack manager, the gOA, the durable ledgers and every
// sOA over the configured slots.
func (r *rig) assemble(name string) {
	members := make([]power.Server, len(r.servers))
	r.byAgent = make(map[string]*rigServer, len(r.servers))
	for i, s := range r.servers {
		members[i] = s.srv
		r.byAgent[s.agentID] = s
		s.ledger = lifetime.NewCoreBudgets(r.bcfg, s.srv.NumCores(), r.start)
	}
	r.rack = power.NewRack(power.DefaultRackConfig(name, r.limit), members...)
	r.rack.AttachProvenance(r.prov)
	if r.reg != nil {
		r.rack.Instrument(r.reg, r.tracer)
		for _, s := range r.servers {
			s.srv.Instrument(r.reg)
		}
	}
	r.bootGOA()
	for _, s := range r.servers {
		r.boot(s, r.start)
	}
}

// bootGOA starts a gOA with no profiles — the initial boot, or a restart.
func (r *rig) bootGOA() {
	r.goa = core.NewGOA(r.rack.Name(), r.limit)
	r.goa.AttachProvenance(r.prov)
	if r.reg != nil {
		r.goa.Instrument(r.reg, r.tracer)
	}
}

// boot starts a fresh sOA on s at the rack's even share. Rebooted agents
// resolve the same series (registry identity is name+labels), so counters
// accumulate across crash/restart cycles.
func (r *rig) boot(s *rigServer, now time.Time) {
	s.soa = core.NewSOA(r.soaCfg, s.host, s.ledger, r.limit/float64(len(r.servers)), now)
	s.soa.AttachProvenance(r.prov)
	if r.reg != nil {
		s.soa.Instrument(r.reg, r.tracer)
	}
	s.budget, s.budgetAt = 0, time.Time{}
}

// deliver applies one control-plane message at now. Malformed payloads,
// unknown types and recipients, and messages for a crashed agent are dropped.
func (r *rig) deliver(now time.Time, m agent.Message) {
	switch m.Type {
	case "soa.profile":
		p, err := agent.Decode[profileMsg](m)
		if err != nil || m.To != r.goaID || r.goa == nil {
			return
		}
		r.goa.NoteProfile(m.Span)
		r.goa.SetProfile(p.Server, flatProfile(p))
	case "goa.budget":
		b, err := agent.Decode[budgetMsg](m)
		s := r.byAgent[m.To]
		if err != nil || b.Watts <= 0 || s == nil || s.soa == nil {
			return
		}
		s.soa.SetStaticBudget(b.Watts, true)
		s.soa.NoteBudget(now, b.Watts, m.Span)
		s.budget, s.budgetAt = b.Watts, now
	case "rack.event":
		ev, err := agent.Decode[rackEventMsg](m)
		s := r.byAgent[m.To]
		if err != nil || s == nil || s.soa == nil {
			return
		}
		s.soa.OnRackEvent(now, power.Event{
			Kind: power.EventKind(ev.Kind), Time: now,
			Rack: r.rack.Name(), Power: ev.Power, Limit: ev.Limit,
			Span: m.Span,
		})
	}
}

// profileReport builds s's sOA → gOA profile message; false while crashed.
func (r *rig) profileReport(s *rigServer, now time.Time) (agent.Message, bool) {
	if s.soa == nil {
		return agent.Message{}, false
	}
	p := recentProfile(s.soa, s.host, s.srv.Machine().Config().OCCoreCost())
	msg, err := agent.NewMessage("soa.profile", s.agentID, r.goaID, p)
	if err != nil {
		return agent.Message{}, false
	}
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
func (r *rig) profileReports(now time.Time) []agent.Message {
	batch := r.out[:0]
	for _, s := range r.servers {
		if msg, ok := r.profileReport(s, now); ok {
			batch = append(batch, msg)
		}
	}
	r.out = batch
	return batch
}

// budgetPushes batches the gOA → sOA budget messages for now. Broadcast trace
// events and provenance spans are drawn in server order as the batch builds.
func (r *rig) budgetPushes(now time.Time) []agent.Message {
	budgets := r.goa.BudgetsAt(now)
	batch := r.out[:0]
	for _, s := range r.servers {
		b, ok := budgets[s.srv.Name()]
		if !ok || b <= 0 {
			continue
		}
		r.goa.TraceBroadcast(now, s.srv.Name(), b)
		msg, err := agent.NewMessage("goa.budget", r.goaID, s.agentID, budgetMsg{Watts: b})
		if err != nil {
			continue
		}
		msg.Span = r.goa.ProvenanceBroadcast(now, s.srv.Name(), b)
		batch = append(batch, msg)
	}
	r.out = batch
	return batch
}

// rackEventFanout batches one rack warning/cap/release notification to every
// sOA. Capping itself is enforced in hardware (the rack manager throttles
// directly); only the notifications are messages. The payload is identical
// per recipient, so it is encoded once; each copy carries its own provenance
// span chained to the event's, so sOA setbacks trace back to the event.
func (r *rig) rackEventFanout(ev power.Event) []agent.Message {
	payload, err := json.Marshal(rackEventMsg{Kind: int(ev.Kind), Power: ev.Power, Limit: ev.Limit})
	if err != nil {
		return nil
	}
	batch := r.out[:0]
	for _, s := range r.servers {
		msg := agent.Message{Type: "rack.event", From: "rack", To: s.agentID, Payload: payload}
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

// stepServer plays s's workload-intelligence agent for one tick — ask for
// the VM's overclock when demand starts, stop it when demand ends — then
// runs the sOA's control loop. The sOA must be running.
func (r *rig) stepServer(s *rigServer, now time.Time, want bool) {
	_, active := s.soa.Sessions()["vm"]
	if want && !active {
		r.requests++
		req := core.Request{
			VM: "vm", Cores: len(s.vmCores), TargetMHz: s.srv.MaxOCMHz(),
			Priority: core.PriorityMetric, PreferredCores: s.vmCores,
		}
		// The WI's ask is the root of the admission chain: the sOA's
		// verdict record names this span as its parent.
		req.Span = uint64(r.prov.Emit(causal.Record{
			Time:      now,
			Kind:      causal.KindMessage,
			Component: "wi",
			Site:      "wi.request",
			Subject:   s.srv.Name() + "/vm",
		}))
		if s.soa.Request(now, req).Granted {
			r.granted++
		}
	} else if !want && active {
		s.soa.Stop(now, "vm")
	}
	s.soa.Tick(now)
}

// tickRack advances every server's hardware by dt and runs the rack manager.
func (r *rig) tickRack(now time.Time, dt time.Duration) {
	for _, s := range r.servers {
		s.srv.Advance(dt)
	}
	r.rack.Tick(now)
}

// watch registers the rack's invariant battery: rack power within its limit
// (after grace), gOA budget conservation, and every session within its grant.
func (r *rig) watch(c *invariant.Checker, grace time.Duration) {
	invariant.RackPowerWithinLimit(c, r.rack, grace)
	invariant.BudgetConservation(c, r.goa, 1e-3)
	for _, s := range r.servers {
		invariant.SessionsWithinGrant(c, r.rack.Name(), s.srv, func() *core.SOA { return s.soa })
	}
}

// watchLedgers adds the independent per-core lifetime accounting. It assumes
// it watched the run from its start, so a warm-restored run must skip it.
func (r *rig) watchLedgers(c *invariant.Checker, slack time.Duration) {
	for _, s := range r.servers {
		invariant.CoreBudgetsNeverOverdrawn(c, r.rack.Name(), s.srv, r.bcfg, r.start, slack)
	}
}
