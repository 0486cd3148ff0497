// Package chaos is the deterministic fault-injection subsystem behind the
// reproduction's robustness experiments. SmartOClock's central safety claim
// is that decentralized enforcement keeps racks under budget even when the
// gOA is unreachable and budgets go stale (§IV, §VI): this package supplies
// the faults — seeded message drop/delay/duplication/reorder, per-agent
// outage windows, agent crash/restart with in-memory state loss, and
// stale-budget epochs — while the invariant package checks that the safety
// properties survive them.
//
// Every decision is drawn from a seeded random source and scheduled on the
// discrete-event engine, so a chaos run is exactly as reproducible as a
// fault-free one: same seed, same faults, same trace.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/sim"
)

// Config parameterizes fault injection. The zero value injects nothing.
type Config struct {
	// Seed derives the fault stream. Two transports with the same seed and
	// the same send sequence make identical drop/delay/duplicate choices.
	Seed int64

	// DropProb is the per-message probability of silent loss.
	DropProb float64
	// DupProb is the per-message probability of delivering twice.
	DupProb float64
	// DelayProb is the per-message probability of extra latency drawn
	// uniformly from (0, MaxDelay]. Because each message draws its own
	// delay, delayed messages naturally reorder against undelayed ones.
	DelayProb float64
	// MaxDelay bounds the injected extra latency.
	MaxDelay time.Duration
	// BaseDelay is applied to every delivery (the transport's intrinsic
	// latency); zero delivers on the next engine event.
	BaseDelay time.Duration

	// Outages are windows during which a named agent is unreachable:
	// messages to or from it are dropped. Use it for gOA unavailability.
	Outages []Window
}

// Validate reports whether the configuration is consistent.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropProb", c.DropProb}, {"DupProb", c.DupProb}, {"DelayProb", c.DelayProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s = %v out of [0,1]", p.name, p.v)
		}
	}
	if c.DelayProb > 0 && c.MaxDelay <= 0 {
		return fmt.Errorf("chaos: DelayProb %v needs positive MaxDelay", c.DelayProb)
	}
	for _, w := range c.Outages {
		if w.To.Before(w.From) {
			return fmt.Errorf("chaos: outage window for %q ends %v before it starts %v", w.Agent, w.To, w.From)
		}
	}
	return nil
}

// Window is a closed-open [From, To) interval during which Agent is down.
// An empty Agent name matches every agent (a full partition).
type Window struct {
	Agent    string
	From, To time.Time
}

// covers reports whether the window applies to name at ts.
func (w Window) covers(name string, ts time.Time) bool {
	if w.Agent != "" && w.Agent != name {
		return false
	}
	return !ts.Before(w.From) && ts.Before(w.To)
}

// Stats counts what the injector did, for experiment reports.
type Stats struct {
	Sent       int // messages offered to the transport
	Delivered  int // deliveries handed to the inner transport (incl. dups)
	Dropped    int // lost to DropProb
	Outage     int // lost to outage windows or crashed endpoints
	Duplicated int
	Delayed    int
}

// LossFraction returns the fraction of offered messages that never arrived
// at all (duplicates of a delivered message don't compensate for losses).
func (s Stats) LossFraction() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Dropped+s.Outage) / float64(s.Sent)
}

// Transport wraps an agent.Transport with deterministic fault injection.
// It is driven by the simulation engine and therefore shares its
// single-goroutine discipline: not safe for concurrent use.
type Transport struct {
	cfg   Config
	eng   *sim.Engine
	rng   *rand.Rand
	inner agent.Transport
	down  map[string]bool // crashed agents (Crash/Restart)
	stats Stats

	// obs, when non-nil, mirrors Stats into the metrics registry and traces
	// process faults (see Instrument).
	obs *transportObs
}

// transportObs holds the transport's resolved instruments.
type transportObs struct {
	tracer     *obs.Tracer
	sent       *metrics.Counter
	delivered  *metrics.Counter
	dropped    *metrics.Counter
	outage     *metrics.Counter
	duplicated *metrics.Counter
	delayed    *metrics.Counter
	crashes    *metrics.Counter
	restarts   *metrics.Counter
}

// Instrument attaches the transport to a registry and tracer. Message-level
// faults become counters (they are too frequent to trace); process faults
// (crash/restart) are counted and traced.
func (t *Transport) Instrument(reg *metrics.Registry, tr *obs.Tracer, labels ...metrics.Label) {
	withFault := func(fault string) []metrics.Label {
		return metrics.With(labels, metrics.L("fault", fault))
	}
	t.obs = &transportObs{
		tracer:     tr,
		sent:       reg.Counter("chaos_messages_sent_total", labels...),
		delivered:  reg.Counter("chaos_messages_delivered_total", labels...),
		dropped:    reg.Counter("chaos_messages_faulted_total", withFault("drop")...),
		outage:     reg.Counter("chaos_messages_faulted_total", withFault("outage")...),
		duplicated: reg.Counter("chaos_messages_faulted_total", withFault("duplicate")...),
		delayed:    reg.Counter("chaos_messages_faulted_total", withFault("delay")...),
		crashes:    reg.Counter("chaos_crashes_total", labels...),
		restarts:   reg.Counter("chaos_restarts_total", labels...),
	}
}

// NewTransport wraps inner with fault injection scheduled on eng.
// It panics on an invalid configuration.
func NewTransport(cfg Config, eng *sim.Engine, inner agent.Transport) *Transport {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Transport{
		cfg:   cfg,
		eng:   eng,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		inner: inner,
		down:  make(map[string]bool),
	}
}

// Stats returns the fault counters so far.
func (t *Transport) Stats() Stats { return t.stats }

// Crash marks an agent as down: messages to or from it are dropped until
// Restart. The caller is responsible for discarding the agent's in-memory
// state — that's the point of the fault.
func (t *Transport) Crash(name string) {
	t.down[name] = true
	if t.obs != nil {
		t.obs.crashes.Inc()
		t.obs.tracer.Emit(obs.Event{
			Time: t.eng.Now(), Component: obs.Chaos, Kind: "crash", Target: name,
		})
	}
}

// Restart marks a crashed agent as reachable again.
func (t *Transport) Restart(name string) {
	delete(t.down, name)
	if t.obs != nil {
		t.obs.restarts.Inc()
		t.obs.tracer.Emit(obs.Event{
			Time: t.eng.Now(), Component: obs.Chaos, Kind: "restart", Target: name,
		})
	}
}

// Down reports whether name is currently crashed or inside an outage
// window at the engine's current time.
func (t *Transport) Down(name string) bool {
	if t.down[name] {
		return true
	}
	now := t.eng.Now()
	for _, w := range t.cfg.Outages {
		if w.covers(name, now) {
			return true
		}
	}
	return false
}

// Register implements agent.Transport.
func (t *Transport) Register(name string, h agent.Handler) { t.inner.Register(name, h) }

// Close implements agent.Transport.
func (t *Transport) Close() error { return t.inner.Close() }

// Send implements agent.Transport: it applies the fault model and schedules
// surviving deliveries on the engine. Send itself never fails for injected
// faults — real networks drop silently.
func (t *Transport) Send(msg agent.Message) error {
	t.stats.Sent++
	if t.obs != nil {
		t.obs.sent.Inc()
	}
	if t.Down(msg.From) || t.Down(msg.To) {
		t.countOutage()
		return nil
	}
	if t.cfg.DropProb > 0 && t.rng.Float64() < t.cfg.DropProb {
		t.stats.Dropped++
		if t.obs != nil {
			t.obs.dropped.Inc()
		}
		return nil
	}
	copies := 1
	if t.cfg.DupProb > 0 && t.rng.Float64() < t.cfg.DupProb {
		copies = 2
		t.stats.Duplicated++
		if t.obs != nil {
			t.obs.duplicated.Inc()
		}
	}
	for i := 0; i < copies; i++ {
		delay := t.cfg.BaseDelay
		if t.cfg.DelayProb > 0 && t.rng.Float64() < t.cfg.DelayProb {
			delay += time.Duration(1 + t.rng.Int63n(int64(t.cfg.MaxDelay)))
			t.stats.Delayed++
			if t.obs != nil {
				t.obs.delayed.Inc()
			}
		}
		m := msg
		t.eng.After(delay, func() {
			// An endpoint that went down after the send still loses the
			// in-flight message (it had nobody to receive it).
			if t.Down(m.To) {
				t.countOutage()
				return
			}
			t.stats.Delivered++
			if t.obs != nil {
				t.obs.delivered.Inc()
			}
			_ = t.inner.Send(m) // unknown recipient: crashed and deregistered
		})
	}
	return nil
}

// countOutage tallies a message lost to an outage window or crashed
// endpoint in both the Stats struct and the registry.
func (t *Transport) countOutage() {
	t.stats.Outage++
	if t.obs != nil {
		t.obs.outage.Inc()
	}
}

// Plan is a schedule of crash/restart faults for named agents, derived
// deterministically from a seed. It complements Config's probabilistic
// message faults with scripted process faults.
type Plan struct {
	Crashes []CrashFault
}

// CrashFault takes Agent down at At and restarts it RestartAfter later.
type CrashFault struct {
	Agent        string
	At           time.Time
	RestartAfter time.Duration
}

// GenPlan draws n crash faults across [start, start+span) over the given
// agents: each fault picks a seeded random agent, instant and restart delay
// in (0, maxDown]. Faults are returned in time order.
func GenPlan(seed int64, agents []string, start time.Time, span time.Duration, n int, maxDown time.Duration) Plan {
	rng := rand.New(rand.NewSource(seed))
	var p Plan
	if len(agents) == 0 || n <= 0 || span <= 0 || maxDown <= 0 {
		return p
	}
	for i := 0; i < n; i++ {
		p.Crashes = append(p.Crashes, CrashFault{
			Agent:        agents[rng.Intn(len(agents))],
			At:           start.Add(time.Duration(rng.Int63n(int64(span)))),
			RestartAfter: time.Duration(1 + rng.Int63n(int64(maxDown))),
		})
	}
	sort.Slice(p.Crashes, func(i, j int) bool { return p.Crashes[i].At.Before(p.Crashes[j].At) })
	return p
}

// Schedule arms the plan on the engine: at each fault's instant the agent
// is crashed on tr and onCrash is invoked (to discard in-memory state);
// after RestartAfter the agent is restarted and onRestart invoked (to
// rebuild it from durable state only).
func (p Plan) Schedule(eng *sim.Engine, tr *Transport, onCrash, onRestart func(agent string)) {
	for _, f := range p.Crashes {
		f := f
		eng.At(f.At, func() {
			tr.Crash(f.Agent)
			if onCrash != nil {
				onCrash(f.Agent)
			}
			eng.After(f.RestartAfter, func() {
				tr.Restart(f.Agent)
				if onRestart != nil {
					onRestart(f.Agent)
				}
			})
		})
	}
}
