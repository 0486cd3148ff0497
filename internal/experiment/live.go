package experiment

import (
	"cmp"
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/causal"
	"smartoclock/internal/cluster"
	"smartoclock/internal/invariant"
	"smartoclock/internal/machine"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/power"
	"smartoclock/internal/store"
)

// LiveSink receives the periodic publications of a live run — typically a
// telemetry.Server, but the interface keeps experiment free of HTTP. Each
// tick publishes a fresh snapshot, then only the events (and, for sinks
// with PublishProvenance, the records) emitted since the last publication.
// The event and record slices are reused by the next tick: a sink copies
// what it keeps.
type LiveSink interface {
	PublishSnapshot(*metrics.Snapshot)
	PublishEvents([]obs.Event)
}

// LiveConfig parameterizes the live networked mode: a small rack of
// sOA-managed servers whose control plane (profile reports, budget pushes,
// rack notifications) crosses real loopback TCP links, paced in wall-clock
// time and published to a sink after every tick. Unlike the deterministic
// experiments this mode exists to be watched while it runs — scraped by
// Prometheus, tailed over HTTP, profiled with pprof — and, with a Control
// attached, mutated over the control-plane API.
type LiveConfig struct {
	Seed     int64
	Start    time.Time
	Duration time.Duration // simulated time to cover
	Tick     time.Duration // simulated time per iteration
	// Pace is the wall-clock sleep between ticks; zero runs flat out.
	Pace    time.Duration
	Servers int
	HW      machine.Config
	// TraceOnly restricts the event trace to these components; empty
	// records everything.
	TraceOnly []obs.Component

	// CheckpointPath/CheckpointEvery enable periodic durable checkpoints:
	// every CheckpointEvery of simulated time the whole control plane (gOA,
	// sOAs with their lifetime ledgers, server cap/wear state) is written
	// atomically to CheckpointPath. Both must be set.
	CheckpointPath  string
	CheckpointEvery time.Duration
	// RestorePath, when set, warm-starts the run from that checkpoint
	// before the first tick: profiles, budgets, sessions and wear continue
	// where the checkpointed process left off.
	RestorePath string

	// Control, when set, attaches the api.Service command inbox: every
	// control-plane mutation is applied by the run goroutine between ticks.
	Control *LiveController
	// Hold suspends the clock: the run only ticks when an Advance command
	// says so, which makes mutate-then-advance sequences deterministic.
	// Requires Control.
	Hold bool
}

// DefaultLiveConfig paces one 5-second control tick per 200 ms of wall
// clock, so an hour of simulated operation plays back in about a minute.
func DefaultLiveConfig() LiveConfig {
	return LiveConfig{
		Seed:     1,
		Start:    time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC),
		Duration: time.Hour,
		Tick:     5 * time.Second,
		Pace:     200 * time.Millisecond,
		Servers:  4,
		HW:       machine.DefaultConfig(),
	}
}

// Validate reports whether the configuration is runnable.
func (c LiveConfig) Validate() error {
	switch {
	case c.Tick <= 0 || c.Duration < c.Tick:
		return fmt.Errorf("experiment: bad live tick/duration %v/%v", c.Tick, c.Duration)
	case c.Servers <= 0:
		return fmt.Errorf("experiment: live mode needs servers, got %d", c.Servers)
	case c.Hold && c.Control == nil:
		return fmt.Errorf("experiment: hold mode needs a LiveController to advance it")
	}
	return c.HW.Validate()
}

// LiveResult aggregates one live run.
type LiveResult struct {
	Ticks     int
	Requests  int
	Granted   int
	CapEvents int
	Warnings  int
	// Violations counts invariant-battery violations observed across the
	// run; zero is the only healthy value.
	Violations int
	// Checkpoints counts successful checkpoint writes; Restored reports
	// whether the run warm-started from RestorePath.
	Checkpoints int
	Restored    bool
	// FleetObservation holds the final snapshot, the run's most recent
	// liveRing events in Trace and its most recent liveRing decision
	// records in Provenance; older ones are counted in trace_dropped_total
	// and causal_dropped_total.
	FleetObservation
}

// liveRing bounds the live run's event trace and provenance log, so memory
// stays flat however long the run is served.
const liveRing = 4096

// Format renders the live run as a report table.
func (r *LiveResult) Format() string {
	tbl := &Table{
		Caption: "Live: TCP control plane with HTTP telemetry",
		Headers: []string{"Metric", "Value"},
	}
	tbl.AddRow("ticks", r.Ticks)
	tbl.AddRow("oc requests (granted)", fmt.Sprintf("%d (%d)", r.Requests, r.Granted))
	tbl.AddRow("rack warnings / cap events", fmt.Sprintf("%d / %d", r.Warnings, r.CapEvents))
	tbl.AddRow("invariant violations", r.Violations)
	if r.Checkpoints > 0 || r.Restored {
		tbl.AddRow("checkpoints (warm-started)", fmt.Sprintf("%d (%v)", r.Checkpoints, r.Restored))
	}
	return tbl.Format()
}

// RunLive executes the live networked mode. The world is the chaos rig's,
// scaled down and without the faults: each server hosts one latency-critical
// VM whose overclock demand arrives in phase-shifted square waves, the rack
// limit leaves headroom for only some servers to overclock at once, and
// every control message — sOA profile reports to the gOA, gOA budget
// pushes back, rack warning/cap notifications — travels a real TCP link
// between two loopback nodes, so the transport histograms on the scrape
// endpoint carry genuine wire latencies and frame sizes.
//
// Concurrency: simulation state is mutated only by this goroutine. TCP
// read loops never touch it — inbound messages land in channel inboxes
// drained at the top of each tick — and control-plane API mutations enter
// the same way, as commands on cfg.Control's inbox applied between ticks.
// All metric updates from both sides go through the shared metrics.Locked,
// which is also what the HTTP scraper snapshots.
//
// An invariant battery (rack power within limit, gOA budget conservation,
// sessions within grant, core lifetime budgets, admission audits) checks
// the world every tick; LiveResult.Violations reports the total.
func RunLive(cfg LiveConfig, sink LiveSink) (*LiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := newLiveWorld(cfg, sink)
	if err != nil {
		return nil, err
	}
	defer w.close()
	w.run()
	return w.result(), nil
}

// newLiveWorld builds the run: two loopback nodes, the rig with its
// instrumentation, the optional warm start, the invariant battery and the
// inboxes. On an error it closes what it opened.
func newLiveWorld(cfg LiveConfig, sink LiveSink) (*liveWorld, error) {
	lk := metrics.NewLocked()
	w := &liveWorld{
		cfg:         cfg,
		lk:          lk,
		deployments: make(map[string]*liveDeployment),
		chaosDown:   make(map[string]bool),
		res:         &LiveResult{},
		checker:     invariant.NewChecker(),
		stateInfo:   &store.StateInfo{CheckpointPath: cfg.CheckpointPath},
		pub:         &livePublisher{lk: lk, sink: sink},
	}
	w.anchor(cfg.Start)
	w.stepLocked = w.drainAndStep
	// Sinks that understand durable-state status (the telemetry server's
	// /statez) get it pushed alongside snapshots; sinks that understand
	// provenance (its /explain) get new records pushed after every tick.
	w.statePub, _ = sink.(interface{ PublishState(store.StateInfo) })
	w.pub.provPub, _ = sink.(interface{ PublishProvenance([]causal.Record) })

	var err error
	if w.goaNode, err = agent.NewTCPNode("goa-node", "127.0.0.1:0"); err == nil {
		w.soaNode, err = agent.NewTCPNode("soa-node", "127.0.0.1:0")
	}
	if err == nil {
		w.goaNode.Instrument(lk, metrics.L("node", "goa"))
		w.soaNode.Instrument(lk, metrics.L("node", "soa"))
		w.buildRig()
		err = w.restore()
	}
	if err != nil {
		w.close()
		return nil, err
	}
	if w.statePub != nil {
		w.statePub.PublishState(*w.stateInfo)
	}
	// Register the invariant battery after the (possible) restore so the
	// lifetime accounting samples the restored frequencies, not cold ones.
	w.rig.watch(w.checker, max(15*time.Second, 3*cfg.Tick))
	if cfg.RestorePath == "" {
		w.rig.watchLedgers(w.checker, 12*cfg.Tick)
	}
	w.openInboxes()
	return w, nil
}

// buildRig builds the servers, their workload, the rack's control plane and
// the run's observer. Instrumentation resolves handles into the shared
// registry under the lock; the simulation later updates them under the same
// lock. Live runs are long-lived: the tracer and the provenance recorder are
// bounded rings so memory stays flat while the latest events and decisions
// remain explorable via /trace/tail and /explain. Only the run goroutine
// touches them.
func (w *liveWorld) buildRig() {
	cfg := w.cfg
	servers := make([]*rigServer[*cluster.Server], cfg.Servers)
	w.rngs = make([]*rand.Rand, cfg.Servers)
	for i := range servers {
		servers[i] = newRigServer(cluster.NewServer(fmt.Sprintf("lv-%02d", i), cfg.HW, 0), cfg.HW.OCCoreCost(), cfg.HW.Cores/2)
		servers[i].pinned = make(map[int]float64)
		w.rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)))
		setSquareWaveUtil(servers[i], w.rngs[i], true) // the rack limit is sized with every VM hot
	}
	soaCfg := rigSOAConfig()
	soaCfg.OnAdmit = invariant.AdmissionWithinBudget(w.checker, "rack-live", 1e-6)
	w.rig = &rig[*cluster.Server]{
		goaID:   "goa",
		soaCfg:  soaCfg,
		bcfg:    rigBudgetConfig(time.Hour, 0.25),
		start:   cfg.Start,
		servers: servers,
	}
	w.rig.limit = partialOCLimit(servers, 0.9)
	w.lk.Do(func(reg *metrics.Registry) {
		w.pub.observer = newObserver(observeKnobs{
			observe: true, reg: reg, only: cfg.TraceOnly,
			provenance: true, seed: cfg.Seed, stream: 2, bound: liveRing,
		})
		w.rig.observer = w.pub.observer
		w.rig.assemble(power.DefaultRackConfig("rack-live", w.rig.limit))
		w.checker.Instrument(reg, w.pub.tracer, w.pub.prov)
		w.ckptWrites = reg.Counter("checkpoint_writes_total")
		w.ckptErrors = reg.Counter("checkpoint_errors_total")
		w.ckptBytes = reg.Gauge("checkpoint_bytes")
		w.pub.traceDropped = reg.Counter("trace_dropped_total")
		w.pub.provDropped = reg.Counter("causal_dropped_total")
	})
}

// anchor starts the run's timeline at at: the first tick one Tick later, the
// last one Duration later, and each cadence one period after at.
func (w *liveWorld) anchor(at time.Time) {
	w.lastTick, w.now, w.end = at, at.Add(w.cfg.Tick), at.Add(w.cfg.Duration)
	w.nextProfile = at.Add(rigProfileEvery)
	w.nextBudget = at.Add(rigBudgetEvery)
	w.nextCkpt = at.Add(w.cfg.CheckpointEvery)
}

// restore warm-starts the control plane from cfg.RestorePath, if set: the
// rig and the servers' cap and wear state restart from the checkpoint, and
// the run resumes the saved timeline at the checkpoint's instant.
func (w *liveWorld) restore() error {
	if w.cfg.RestorePath == "" {
		return nil
	}
	var cp store.Checkpoint
	savedAt, err := store.Load(w.cfg.RestorePath, &cp)
	if err != nil {
		return err
	}
	w.do(func() {
		err = w.rig.restore(savedAt, &cp)
		for _, s := range w.rig.servers {
			if st, ok := cp.Servers[s.srv.Name()]; ok {
				err = cmp.Or(err, s.srv.Restore(st))
			}
		}
	})
	if err != nil {
		return fmt.Errorf("experiment: restore %s: %w", w.cfg.RestorePath, err)
	}
	w.anchor(savedAt)
	w.res.Restored = true
	w.stateInfo.RestoredFrom = w.cfg.RestorePath
	w.stateInfo.RestoredAt = savedAt
	return nil
}

// openInboxes routes each node's deliveries into a channel inbox the run
// goroutine drains and peers the nodes. Rack events queue locally during the
// tick (which runs under the lock) and cross TCP after it.
//
// One tick sends at most a couple of rack-event fan-outs plus a budget push
// to the sOAs and one profile report per server to the gOA, so an inbox this
// deep holds everything a tick sent. The received counter ticks on every
// delivered message (even ones a full inbox sheds): hold mode barriers on
// received == sent so a tick's sends are all visible to the next tick's
// drain.
func (w *liveWorld) openInboxes() {
	inboxDepth := max(256, 4*w.cfg.Servers)
	w.goaInbox = make(chan agent.Message, inboxDepth)
	w.soaInbox = make(chan agent.Message, inboxDepth)
	enqueue := func(inbox chan agent.Message) agent.Handler {
		return func(m agent.Message) {
			w.received.Add(1)
			select {
			case inbox <- m:
			default: // full inbox sheds load rather than blocking the link
				w.lost.Add(1)
			}
		}
	}
	w.goaNode.Register(w.rig.goaID, enqueue(w.goaInbox))
	for _, s := range w.rig.servers {
		w.soaNode.Register(s.agentID, enqueue(w.soaInbox))
		w.goaNode.AddPeer(s.agentID, w.soaNode.Addr())
	}
	w.soaNode.AddPeer(w.rig.goaID, w.goaNode.Addr())
	w.rig.rack.Subscribe(func(ev power.Event) { w.pendingRack = append(w.pendingRack, ev) })
}

// tick runs exactly one simulation tick: drain and step under the lock, send,
// checkpoint, publish and, in hold mode, barrier on delivery.
func (w *liveWorld) tick() {
	w.res.Ticks++
	w.lastTick = w.now
	w.lk.Do(w.stepLocked)
	w.send()
	// A failed checkpoint write is counted in checkpoint_errors_total and
	// leaves the previous file intact.
	if w.cfg.CheckpointPath != "" && w.cfg.CheckpointEvery > 0 && !w.now.Before(w.nextCkpt) {
		w.nextCkpt = w.nextCkpt.Add(w.cfg.CheckpointEvery)
		_, _ = w.checkpointNow()
	}
	w.pub.publish()
	w.now = w.now.Add(w.cfg.Tick)
	if w.cfg.Hold {
		w.barrier()
	}
}

// drainAndStep applies every inbound message, then advances the servers,
// their sOAs and the rack by one tick and runs the invariant battery. It runs
// under the lock, as w.stepLocked.
func (w *liveWorld) drainAndStep(*metrics.Registry) {
drain:
	for {
		var m agent.Message
		select {
		case m = <-w.goaInbox:
		case m = <-w.soaInbox:
		default:
			break drain
		}
		// Chaos-downed agents drop at delivery too, catching messages
		// already in flight when the fault flipped.
		if w.chaosAllows(m) {
			w.rig.deliver(w.now, m)
		}
	}
	for i, s := range w.rig.servers {
		want := squareWaveDemand(i, w.cfg.Servers, w.now.Sub(w.cfg.Start))
		setSquareWaveUtil(s, w.rngs[i], want)
		w.rig.stepServer(s, w.now, want)
	}
	w.rig.tickRack(w.now, w.cfg.Tick)
	w.checker.Check(w.now)
}

// send moves the tick's control-plane traffic: batches build under the lock
// and cross TCP outside it (the transport instrumentation takes the lock per
// message).
func (w *liveWorld) send() {
	for _, ev := range w.pendingRack {
		w.sendAll(w.goaNode, w.rig.rackEventFanout(ev))
	}
	w.pendingRack = w.pendingRack[:0]
	var batch []agent.Message
	if !w.now.Before(w.nextProfile) {
		w.nextProfile = w.nextProfile.Add(rigProfileEvery)
		w.do(func() { batch = w.rig.profileReports(w.now) })
		w.sendAll(w.soaNode, batch)
	}
	if !w.now.Before(w.nextBudget) {
		w.nextBudget = w.nextBudget.Add(rigBudgetEvery)
		w.do(func() { batch = w.rig.budgetPushes(w.now) })
		w.sendAll(w.goaNode, batch)
	}
}

// sendAll moves a batch over TCP; chaos gates drop sends from or to downed
// agents.
func (w *liveWorld) sendAll(node *agent.TCPNode, batch []agent.Message) {
	for _, msg := range batch {
		if w.chaosAllows(msg) && node.Send(msg) == nil {
			w.sent.Add(1)
		}
	}
}

// barrier waits for loopback delivery: the next tick must drain exactly what
// this tick sent, whenever it runs. TCP per-peer connections deliver in
// order, so equality means all arrived. A barrier that gives up voids that
// guarantee, so it is counted.
func (w *liveWorld) barrier() {
	deadline := time.Now().Add(5 * time.Second)
	for w.received.Load() < w.sent.Load() {
		if time.Now().After(deadline) {
			w.lost.Add(1)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// run is the main loop. In hold mode the clock is suspended: it blocks on the
// command inbox and lets Advance commands run ticks synchronously. Otherwise
// it applies queued commands before each tick and serves them while it paces,
// so API callers are not stuck behind the wall-clock sleep.
func (w *liveWorld) run() {
	ctrl := w.cfg.Control
	for !w.shutdown && !w.now.After(w.end) {
		switch {
		case w.cfg.Hold:
			select {
			case cmd := <-ctrl.cmds:
				ctrl.exec(w, cmd)
			case <-ctrl.done:
				w.shutdown = true
			}
		case ctrl == nil:
			w.tick()
			time.Sleep(w.cfg.Pace)
		default:
			ctrl.drain(w)
			w.tick()
			ctrl.serveFor(w, w.cfg.Pace)
		}
	}
}

// close ends the run: pending and future commands fail, and the nodes shut.
func (w *liveWorld) close() {
	if w.cfg.Control != nil {
		w.cfg.Control.finish()
	}
	for _, n := range []*agent.TCPNode{w.soaNode, w.goaNode} {
		if n != nil {
			n.Close()
		}
	}
}

// result aggregates the finished run.
func (w *liveWorld) result() *LiveResult {
	res := w.res
	res.Requests = w.rig.requests
	res.Granted = w.rig.granted
	res.CapEvents = w.rig.rack.CapEvents()
	res.Warnings = w.rig.rack.Warnings()
	res.Violations = w.violations()
	w.lk.Do(func(*metrics.Registry) {
		w.pub.syncDropped()
		res.FleetObservation = w.pub.freeze()
	})
	return res
}

// livePublisher hands the sink what each tick changed: a fresh snapshot,
// then the events and provenance records emitted since the last
// publication, copied into buffers it reuses. Only the run goroutine uses
// it.
type livePublisher struct {
	lk      *metrics.Locked
	sink    LiveSink // nil publishes nothing
	provPub interface{ PublishProvenance([]causal.Record) }
	// observer is the run's: the locked registry, the bounded tracer and
	// provenance recorder.
	observer
	traceDropped *metrics.Counter
	provDropped  *metrics.Counter

	// Events and records (held + dropped) already handed to the sink.
	seenEvents, seenRecords uint64
	events                  []obs.Event
	records                 []causal.Record
}

// syncDropped brings the drop counters up to the tracer's and the
// recorder's. The caller holds the lock.
func (p *livePublisher) syncDropped() {
	p.traceDropped.Add(float64(p.tracer.Dropped()) - p.traceDropped.Value())
	p.provDropped.Add(float64(p.prov.Dropped()) - p.provDropped.Value())
}

// snapshot brings the drop counters up to date and freezes the registry.
func (p *livePublisher) snapshot() *metrics.Snapshot {
	reg := p.lk.Lock()
	defer p.lk.Unlock()
	p.syncDropped()
	return reg.Snapshot()
}

// publish runs once per tick, after the tick's last emission.
func (p *livePublisher) publish() {
	if p.sink == nil {
		return
	}
	p.sink.PublishSnapshot(p.snapshot())
	if p.events = p.tracer.AppendSince(p.events[:0], p.seenEvents); len(p.events) > 0 {
		p.sink.PublishEvents(p.events)
		p.seenEvents = p.tracer.Total()
	}
	if p.provPub == nil {
		return
	}
	if p.records = p.prov.AppendSince(p.records[:0], p.seenRecords); len(p.records) > 0 {
		p.provPub.PublishProvenance(p.records)
		p.seenRecords = p.prov.Total()
	}
}
