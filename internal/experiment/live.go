package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/causal"
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
	return nil
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
	Metrics     *metrics.Snapshot
	// Trace holds the run's most recent liveRing events; older ones are
	// counted in trace_dropped_total.
	Trace *obs.Tracer
	// Provenance holds the run's most recent liveRing decision records;
	// older ones are counted in causal_dropped_total.
	Provenance *causal.Log
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
	lk := metrics.NewLocked()
	// Live runs are long-lived: the tracer and the provenance recorder are
	// bounded rings so memory stays flat while the latest events and
	// decisions remain explorable via /trace/tail and /explain. Only the run
	// goroutine touches them.
	tracer := newShardTracer(cfg.TraceOnly).Bound(liveRing)
	checker := invariant.NewChecker()
	prov := causal.NewBounded(cfg.Seed, 2, liveRing)
	checker.AttachProvenance(prov)

	// --- Two nodes on loopback: the gOA's and the servers' ----------------
	goaNode, err := agent.NewTCPNode("goa-node", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer goaNode.Close()
	soaNode, err := agent.NewTCPNode("soa-node", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer soaNode.Close()
	goaNode.Instrument(lk, metrics.L("node", "goa"))
	soaNode.Instrument(lk, metrics.L("node", "soa"))

	// --- Servers, workload, rack control plane -----------------------------
	servers := make([]*rigServer, cfg.Servers)
	rngs := make([]*rand.Rand, cfg.Servers)
	res := &LiveResult{}
	w := &liveWorld{
		cfg:         cfg,
		lk:          lk,
		now:         cfg.Start.Add(cfg.Tick),
		end:         cfg.Start.Add(cfg.Duration),
		deployments: make(map[string]*liveDeployment),
		coreOwner:   make(map[string]map[int]string, len(servers)),
		chaosDown:   make(map[string]bool),
		res:         res,
		checker:     checker,
	}
	for i := range servers {
		servers[i] = newRigServer(fmt.Sprintf("lv-%02d", i), cfg.HW, cfg.HW.Cores/2)
		rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)))
		w.coreOwner[servers[i].srv.Name()] = make(map[int]string)
	}
	// setUtil drives the background pattern; cores owned by an API-registered
	// deployment keep the utilization the deployment pinned.
	setUtil := func(i int, want bool) {
		s := servers[i]
		owners := w.coreOwner[s.srv.Name()]
		base := 0.35 + 0.05*rngs[i].Float64()
		hot := base
		if want {
			hot = 0.80 + 0.10*rngs[i].Float64()
		}
		for c := 0; c < s.srv.NumCores(); c++ {
			if owners[c] != "" {
				continue
			}
			if c < len(s.vmCores) {
				s.srv.SetCoreUtil(c, hot)
			} else {
				s.srv.SetCoreUtil(c, base)
			}
		}
	}
	for i := range servers {
		setUtil(i, true) // the rack limit is sized with every VM hot
	}

	soaCfg := rigSOAConfig()
	soaCfg.OnAdmit = invariant.AdmissionWithinBudget(checker, "rack-live", 1e-6)
	rg := &rig{
		goaID:   "goa",
		limit:   partialOCLimit(servers, 0.9),
		soaCfg:  soaCfg,
		bcfg:    rigBudgetConfig(time.Hour, 0.25),
		start:   cfg.Start,
		servers: servers,
		tracer:  tracer,
		prov:    prov,
	}
	w.rig = rg
	// Instrumentation resolves handles into the shared registry under the
	// lock; the simulation later updates them under the same lock.
	pub := &livePublisher{lk: lk, sink: sink, tracer: tracer, prov: prov}
	lk.Do(func(reg *metrics.Registry) {
		rg.reg = reg
		rg.assemble("rack-live")
		checker.Instrument(reg, tracer)
		w.ckptWrites = reg.Counter("checkpoint_writes_total")
		w.ckptErrors = reg.Counter("checkpoint_errors_total")
		w.ckptBytes = reg.Gauge("checkpoint_bytes")
		pub.traceDropped = reg.Counter("trace_dropped_total")
		pub.provDropped = reg.Counter("causal_dropped_total")
	})

	// --- Durable state: warm start and periodic checkpoints ----------------
	stateInfo := store.StateInfo{CheckpointPath: cfg.CheckpointPath}
	w.stateInfo = &stateInfo
	if cfg.RestorePath != "" {
		var cp store.Checkpoint
		savedAt, err := store.Load(cfg.RestorePath, &cp)
		if err != nil {
			return nil, err
		}
		w.do(func() {
			if cp.GOA != nil {
				rg.goa.Restore(cp.GOA)
			}
			for _, s := range servers {
				if st, ok := cp.Servers[s.srv.Name()]; ok {
					if rerr := s.srv.Restore(st); rerr != nil && err == nil {
						err = rerr
					}
				}
				if st, ok := cp.SOAs[s.srv.Name()]; ok {
					if rerr := s.soa.Restore(st); rerr != nil && err == nil {
						err = rerr
					}
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: restore %s: %w", cfg.RestorePath, err)
		}
		res.Restored = true
		stateInfo.RestoredFrom = cfg.RestorePath
		stateInfo.RestoredAt = savedAt
	}
	// Sinks that understand durable-state status (the telemetry server's
	// /statez) get it pushed alongside snapshots.
	w.statePub, _ = sink.(interface{ PublishState(store.StateInfo) })
	if w.statePub != nil {
		w.statePub.PublishState(stateInfo)
	}

	// Register the invariant battery after the (possible) restore so the
	// lifetime accounting samples the restored frequencies, not cold ones.
	grace := 15 * time.Second
	if g := 3 * cfg.Tick; g > grace {
		grace = g
	}
	rg.watch(checker, grace)
	if cfg.RestorePath == "" {
		rg.watchLedgers(checker, 12*cfg.Tick)
	}

	// --- Inboxes: TCP read loops hand off, the main loop applies ----------
	// One tick sends at most a couple of rack-event fan-outs plus a budget
	// push to the sOAs and one profile report per server to the gOA, so an
	// inbox this deep holds everything a tick sent. The received counter
	// ticks on every delivered message (even ones a full inbox sheds): hold
	// mode barriers on received == sent so a tick's sends are all visible to
	// the next tick's drain.
	inboxDepth := max(256, 4*cfg.Servers)
	goaInbox := make(chan agent.Message, inboxDepth)
	soaInbox := make(chan agent.Message, inboxDepth)
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
	goaNode.Register(rg.goaID, enqueue(goaInbox))
	for _, s := range servers {
		soaNode.Register(s.agentID, enqueue(soaInbox))
		goaNode.AddPeer(s.agentID, soaNode.Addr())
	}
	soaNode.AddPeer(rg.goaID, goaNode.Addr())

	// Rack events queue locally during Tick (which runs under the lock) and
	// are flushed over TCP afterwards, outside it.
	var pendingRack []power.Event
	rg.rack.Subscribe(func(ev power.Event) { pendingRack = append(pendingRack, ev) })

	// sendAll moves a batch over TCP, outside the lock (the transport
	// instrumentation takes it per message). Chaos gates drop sends from or
	// to downed agents.
	sendAll := func(node *agent.TCPNode, batch []agent.Message) {
		for _, msg := range batch {
			if w.sendAllowed(msg.From, msg.To) && node.Send(msg) == nil {
				w.sent.Add(1)
			}
		}
	}

	// Sinks that understand provenance (the telemetry server's /explain)
	// get new records pushed after every tick.
	pub.provPub, _ = sink.(interface{ PublishProvenance([]causal.Record) })

	// --- One tick of the world ---------------------------------------------
	profileEvery, budgetEvery := 2*time.Minute, time.Minute
	nextProfile, nextBudget := cfg.Start.Add(profileEvery), cfg.Start.Add(budgetEvery)
	checkpointing := cfg.CheckpointPath != "" && cfg.CheckpointEvery > 0
	nextCkpt := cfg.Start.Add(cfg.CheckpointEvery)
	w.doTick = func() {
		now := w.now
		res.Ticks++

		// 1. Drain inboxes and apply under the lock. Chaos-downed agents
		// drop at delivery too, catching messages already in flight when
		// the fault flipped.
		applyMsg := func(m agent.Message) {
			if w.chaosDown[m.From] || w.chaosDown[m.To] {
				w.dropped++
				return
			}
			rg.deliver(now, m)
		}
		lk.Do(func(*metrics.Registry) {
			for drained := false; !drained; {
				select {
				case m := <-goaInbox:
					applyMsg(m)
				case m := <-soaInbox:
					applyMsg(m)
				default:
					drained = true
				}
			}

			// 2. Tick the world.
			for i, s := range servers {
				want := squareWaveDemand(i, cfg.Servers, now.Sub(cfg.Start))
				setUtil(i, want)
				rg.stepServer(s, now, want)
			}
			rg.tickRack(now, cfg.Tick)
			checker.Check(now)
		})

		// 3. Control-plane traffic: batches build under the lock, cross TCP
		// outside it.
		for _, ev := range pendingRack {
			sendAll(goaNode, rg.rackEventFanout(ev))
		}
		pendingRack = pendingRack[:0]
		if !now.Before(nextProfile) {
			nextProfile = nextProfile.Add(profileEvery)
			var batch []agent.Message
			w.do(func() { batch = rg.profileReports(now) })
			sendAll(soaNode, batch)
		}
		if !now.Before(nextBudget) {
			nextBudget = nextBudget.Add(budgetEvery)
			var batch []agent.Message
			w.do(func() { batch = rg.budgetPushes(now) })
			sendAll(goaNode, batch)
		}

		// 4. Periodic checkpoint. A failed write is counted in
		// checkpoint_errors_total and leaves the previous file intact.
		if checkpointing && !now.Before(nextCkpt) {
			nextCkpt = nextCkpt.Add(cfg.CheckpointEvery)
			_, _ = w.checkpointNow()
		}

		// 5. Publish to the sink.
		pub.publish()
		w.now = now.Add(cfg.Tick)

		// 6. In hold mode, barrier on loopback delivery: the next tick must
		// drain exactly what this tick sent, whenever it runs. TCP per-peer
		// connections deliver in order, so equality means all arrived. A
		// barrier that gives up voids that guarantee, so it is counted.
		if cfg.Hold {
			deadline := time.Now().Add(5 * time.Second)
			for w.received.Load() < w.sent.Load() {
				if time.Now().After(deadline) {
					w.lost.Add(1)
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}

	// --- Main loop ----------------------------------------------------------
	ctrl := cfg.Control
	if ctrl != nil {
		defer ctrl.finish()
	}
	if cfg.Hold {
		// The clock is suspended: block on the command inbox and let
		// Advance commands run ticks synchronously.
		for !w.shutdown && !w.now.After(w.end) {
			select {
			case cmd := <-ctrl.cmds:
				ctrl.exec(w, cmd)
			case <-ctrl.done:
				w.shutdown = true
			}
		}
	} else {
		for !w.shutdown && !w.now.After(w.end) {
			if ctrl != nil {
				ctrl.drain(w)
			}
			w.doTick()
			if cfg.Pace <= 0 {
				continue
			}
			if ctrl == nil {
				time.Sleep(cfg.Pace)
				continue
			}
			// Serve commands while pacing so API callers are not stuck
			// behind the wall-clock sleep.
			timer := time.NewTimer(cfg.Pace)
			for pacing := true; pacing; {
				select {
				case cmd := <-ctrl.cmds:
					ctrl.exec(w, cmd)
				case <-timer.C:
					pacing = false
				}
			}
		}
	}

	res.Requests = rg.requests
	res.Granted = rg.granted
	res.CapEvents = rg.rack.CapEvents()
	res.Warnings = rg.rack.Warnings()
	res.Violations = w.violations()
	res.Metrics = pub.snapshot()
	res.Trace = tracer
	res.Provenance = &causal.Log{Records: prov.Records()}
	return res, nil
}

// livePublisher hands the sink what each tick changed: a fresh snapshot,
// then the events and provenance records emitted since the last
// publication, copied into buffers it reuses. Only the run goroutine uses
// it.
type livePublisher struct {
	lk           *metrics.Locked
	sink         LiveSink // nil publishes nothing
	provPub      interface{ PublishProvenance([]causal.Record) }
	tracer       *obs.Tracer
	prov         *causal.Recorder
	traceDropped *metrics.Counter
	provDropped  *metrics.Counter

	// Events and records (held + dropped) already handed to the sink.
	seenEvents, seenRecords uint64
	events                  []obs.Event
	records                 []causal.Record
}

// snapshot brings the drop counters up to the tracer's and the recorder's
// and freezes the registry.
func (p *livePublisher) snapshot() *metrics.Snapshot {
	reg := p.lk.Lock()
	defer p.lk.Unlock()
	p.traceDropped.Add(float64(p.tracer.Dropped()) - p.traceDropped.Value())
	p.provDropped.Add(float64(p.prov.Dropped()) - p.provDropped.Value())
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
