// Package power models the datacenter power-delivery side of SmartOClock:
// racks with shared power limits, the rack manager's warning messages, and
// the prioritized capping mechanism that protects the limit.
//
// The contract matches the paper (§II, §IV-D): under normal operation
// servers may collectively draw anything below the rack limit; when the draw
// reaches a warning threshold (e.g. 95% of the limit) the rack manager sends
// a warning message to every Server Overclocking Agent; when the draw
// reaches the limit itself, a power capping event occurs and server
// frequencies are throttled — lowest-priority servers first — until the
// rack is safe again.
package power

import (
	"fmt"
	"sort"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
)

// Server is the rack manager's view of one server: a power sensor plus a
// capping actuator. The cluster package provides implementations.
type Server interface {
	// Name identifies the server within the rack.
	Name() string
	// Power returns the server's instantaneous power draw in watts.
	Power() float64
	// CapPriority orders capping: servers with a LOWER value are throttled
	// first. The paper's prioritized capping protects critical workloads by
	// giving them higher values.
	CapPriority() int
	// ForceCap imposes a frequency ceiling "level" DVFS steps below turbo.
	// Level 0 removes the cap. Implementations clamp to MaxCapLevel.
	ForceCap(level int)
	// CapLevel returns the currently imposed cap level.
	CapLevel() int
	// MaxCapLevel returns the deepest cap level the hardware supports.
	MaxCapLevel() int
}

// EventKind distinguishes rack manager notifications.
type EventKind int

const (
	// EventWarning is sent when rack power crosses the warning threshold.
	// Exploring sOAs react by backing off; others ignore it (§IV-D).
	EventWarning EventKind = iota
	// EventCap is sent when rack power reaches the limit and capping is
	// applied.
	EventCap
	// EventRelease is sent when a previously applied cap is fully removed.
	EventRelease
)

// String returns the event kind's name.
func (k EventKind) String() string {
	switch k {
	case EventWarning:
		return "warning"
	case EventCap:
		return "cap"
	case EventRelease:
		return "release"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a rack manager notification delivered to subscribers.
type Event struct {
	Kind  EventKind
	Time  time.Time
	Rack  string
	Power float64 // rack draw when the event fired, watts
	Limit float64 // rack power limit, watts
	// Span is the causal span of the rack manager's provenance record for
	// this event (internal/causal). Subscribers that act on the event —
	// an sOA shedding its exploration surplus — record their reaction with
	// Span as parent. Zero when provenance is off.
	Span uint64
}

// RackConfig parameterizes a rack manager.
type RackConfig struct {
	// Name identifies the rack.
	Name string
	// LimitWatts is the rack's power budget.
	LimitWatts float64
	// WarnFraction of the limit at which warning messages are sent
	// (the paper uses 95%).
	WarnFraction float64
	// TargetFraction of the limit capping throttles down to. Emergency
	// capping is deliberately deep (the paper reports 30-50%% frequency
	// degradation during events, §III-Q2) so the rack is safe even if
	// load keeps rising within one control period.
	TargetFraction float64
	// RestoreFraction of the limit below which applied caps are relaxed
	// one level per tick. It sits just under the warning threshold:
	// whenever the rack has headroom, caps recover gradually, so a
	// workload that keeps pushing causes recurring capping events rather
	// than a permanent throttle.
	RestoreFraction float64
	// Mode selects the capping discipline. The zero value is the original
	// interleaved prioritized capping; oversubscribed racks run
	// CapSeverity so shedding respects severity classes.
	Mode CapMode
}

// DefaultRackConfig returns the configuration used across the evaluation:
// warnings at 95% of the limit, emergency capping down to 78%, gradual
// restore while below 85%.
func DefaultRackConfig(name string, limitWatts float64) RackConfig {
	return RackConfig{
		Name:            name,
		LimitWatts:      limitWatts,
		WarnFraction:    0.95,
		TargetFraction:  0.78,
		RestoreFraction: 0.92,
	}
}

// Validate reports whether the configuration is consistent.
func (c RackConfig) Validate() error {
	switch {
	case c.LimitWatts <= 0:
		return fmt.Errorf("power: LimitWatts = %v, must be positive", c.LimitWatts)
	case c.WarnFraction <= 0 || c.WarnFraction > 1:
		return fmt.Errorf("power: WarnFraction = %v out of (0,1]", c.WarnFraction)
	case c.TargetFraction <= 0 || c.TargetFraction > c.WarnFraction:
		return fmt.Errorf("power: TargetFraction = %v must be in (0, WarnFraction]", c.TargetFraction)
	case c.RestoreFraction < 0 || c.RestoreFraction > c.WarnFraction:
		return fmt.Errorf("power: RestoreFraction = %v must be in [0, WarnFraction]", c.RestoreFraction)
	}
	return nil
}

// Rack is the rack manager: it polls server power, emits warnings, applies
// prioritized capping and tracks statistics.
type Rack struct {
	cfg     RackConfig
	servers []Server
	subs    []func(Event)

	capEvents int
	warnings  int
	capped    bool

	// obs, when non-nil, holds resolved metric handles and the tracer.
	obs *rackObs
	// prov, when non-nil, receives a causal.Record per emitted rack event
	// (see provenance on emit); nil costs one pointer test.
	prov *causal.Recorder
}

// rackObs holds the rack manager's resolved instruments.
type rackObs struct {
	tracer    *obs.Tracer
	warnings  *metrics.Counter
	caps      *metrics.Counter
	releases  *metrics.Counter
	power     *metrics.Gauge
	limit     *metrics.Gauge
	util      *metrics.Histogram
	capLevels *metrics.Gauge
	// ticks/overLimitTicks book the underprediction rate of §V-C: the
	// fraction of control cycles spent above the provisioned limit.
	ticks          *metrics.Counter
	overLimitTicks *metrics.Counter
}

// Instrument attaches the rack manager to a registry, a tracer and a
// provenance recorder; a nil registry attaches only the recorder. The rack
// label is the configured name; extra labels give experiment context.
func (r *Rack) Instrument(reg *metrics.Registry, tr *obs.Tracer, prov *causal.Recorder, labels ...metrics.Label) {
	r.prov = prov
	if reg == nil {
		return
	}
	ls := metrics.With(labels, metrics.L("rack", r.cfg.Name))
	r.obs = &rackObs{
		tracer:         tr,
		warnings:       reg.Counter("rack_warnings_total", ls...),
		caps:           reg.Counter("rack_cap_events_total", ls...),
		releases:       reg.Counter("rack_releases_total", ls...),
		power:          reg.Gauge("rack_power_watts", ls...),
		limit:          reg.Gauge("rack_limit_watts", ls...),
		util:           reg.Histogram("rack_utilization", metrics.FractionBuckets, ls...),
		capLevels:      reg.Gauge("rack_cap_levels", ls...),
		ticks:          reg.Counter("rack_ticks_total", ls...),
		overLimitTicks: reg.Counter("rack_over_limit_ticks_total", ls...),
	}
	// The limit is static configuration, published once so alert rules can
	// judge the power series against the same rack's limit series.
	r.obs.limit.Set(r.cfg.LimitWatts)
}

// obsEvent counts and traces one emitted rack event.
func (r *Rack) obsEvent(ev Event) {
	if r.obs == nil {
		return
	}
	switch ev.Kind {
	case EventWarning:
		r.obs.warnings.Inc()
	case EventCap:
		r.obs.caps.Inc()
	case EventRelease:
		r.obs.releases.Inc()
	}
	// Warnings are too frequent near the threshold to trace individually;
	// capping actions and full releases are the bounded, load-bearing ones.
	if ev.Kind != EventWarning {
		r.obs.tracer.Emit(obs.Event{
			Time: ev.Time, Component: obs.Rack, Kind: ev.Kind.String(),
			Source: ev.Rack, Value: ev.Power, Detail: "limit=" + fmt.Sprintf("%g", ev.Limit),
			Span: ev.Span,
		})
	}
}

// obsTick samples the power gauge and utilization histogram once per
// control cycle.
func (r *Rack) obsTick(p float64) {
	if r.obs == nil {
		return
	}
	r.obs.power.Set(p)
	r.obs.util.Observe(p / r.cfg.LimitWatts)
	r.obs.ticks.Inc()
	if p > r.cfg.LimitWatts {
		r.obs.overLimitTicks.Inc()
	}
	lvl := 0
	for _, s := range r.servers {
		lvl += s.CapLevel()
	}
	r.obs.capLevels.Set(float64(lvl))
}

// NewRack creates a rack manager. It panics on invalid configuration.
func NewRack(cfg RackConfig, servers ...Server) *Rack {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Rack{cfg: cfg, servers: servers}
}

// Config returns the rack's configuration.
func (r *Rack) Config() RackConfig { return r.cfg }

// Name returns the rack's name.
func (r *Rack) Name() string { return r.cfg.Name }

// Servers returns the managed servers.
func (r *Rack) Servers() []Server { return r.servers }

// AddServer registers an additional server. Under severity-ordered capping
// a late joiner must respect the discipline already in force: if any server
// of a MORE critical class is currently capped, the newcomer's class was by
// definition exhausted before that class was touched, so the newcomer
// arrives fully capped and recovers through the normal severity-ordered
// restore path. Without this, a harvest deployment admitted onto a
// capping rack would run free while critical work stays throttled.
func (r *Rack) AddServer(s Server) {
	if r.cfg.Mode == CapSeverity {
		sv := SeverityOf(s)
		for _, e := range r.servers {
			if e.CapLevel() > 0 && SeverityOf(e) < sv {
				s.ForceCap(s.MaxCapLevel())
				break
			}
		}
	}
	r.servers = append(r.servers, s)
}

// Subscribe registers fn to receive rack events. Subscriptions cannot be
// removed; subscribers that go away should ignore events.
func (r *Rack) Subscribe(fn func(Event)) { r.subs = append(r.subs, fn) }

// Power returns the rack's instantaneous total draw in watts.
func (r *Rack) Power() float64 {
	total := 0.0
	for _, s := range r.servers {
		total += s.Power()
	}
	return total
}

// CapEvents returns the number of capping events so far.
func (r *Rack) CapEvents() int { return r.capEvents }

// Warnings returns the number of warning messages sent so far.
func (r *Rack) Warnings() int { return r.warnings }

// IsCapped reports whether any server currently has a forced cap.
func (r *Rack) IsCapped() bool {
	for _, s := range r.servers {
		if s.CapLevel() > 0 {
			return true
		}
	}
	return false
}

// provEvent records an emitted rack event as a risk decision, returning
// its span (0 with provenance off). Cap events additionally capture how
// much throttling the capping pass applied.
func (r *Rack) provEvent(ev Event) uint64 {
	if r.prov == nil {
		return 0
	}
	rec := causal.Record{
		Time:      ev.Time,
		Kind:      causal.KindDecision,
		Component: "rack",
		Site:      "rack." + ev.Kind.String(),
		Subject:   ev.Rack,
		Verdict:   ev.Kind.String(),
		Inputs: []causal.Input{
			causal.In("power_watts", ev.Power),
			causal.In("limit_watts", ev.Limit),
		},
	}
	if ev.Kind == EventCap {
		capped, levels := 0, 0
		for _, s := range r.servers {
			if l := s.CapLevel(); l > 0 {
				capped++
				levels += l
			}
		}
		rec.Inputs = append(rec.Inputs,
			causal.In("servers_capped", float64(capped)),
			causal.In("cap_levels", float64(levels)))
	}
	return uint64(r.prov.Emit(rec))
}

func (r *Rack) emit(ev Event) {
	ev.Span = r.provEvent(ev)
	r.obsEvent(ev)
	for _, fn := range r.subs {
		fn(ev)
	}
}

// Tick runs one rack-manager control cycle at time now: measure, warn,
// cap or restore. Call it at a fixed cadence from the simulation.
func (r *Rack) Tick(now time.Time) {
	p := r.Power()
	r.obsTick(p)
	limit := r.cfg.LimitWatts
	switch {
	case p >= limit:
		// A real rack manager polls far faster than our tick, so the
		// draw crossed the warning threshold before reaching the limit:
		// deliver warnings first and let subscribers shed load round by
		// round; only if the rack stays over the limit does capping
		// trigger. Subscribers that ignore warnings (or have nothing
		// left to shed) make no progress and get capped.
		for rounds := 0; p >= limit && rounds < 10; rounds++ {
			r.warnings++
			r.emit(Event{Kind: EventWarning, Time: now, Rack: r.cfg.Name, Power: p, Limit: limit})
			next := r.Power()
			if next >= p {
				break // nobody is shedding
			}
			p = next
		}
		if p < limit {
			break
		}
		r.capEvents++
		r.applyCapping(p)
		r.emit(Event{Kind: EventCap, Time: now, Rack: r.cfg.Name, Power: p, Limit: limit})
	case p >= r.cfg.WarnFraction*limit:
		r.warnings++
		r.emit(Event{Kind: EventWarning, Time: now, Rack: r.cfg.Name, Power: p, Limit: limit})
	case p < r.cfg.RestoreFraction*limit:
		if r.relaxCapping() && !r.IsCapped() {
			r.emit(Event{Kind: EventRelease, Time: now, Rack: r.cfg.Name, Power: r.Power(), Limit: limit})
		}
	}
}

// applyCapping escalates cap levels until the modeled rack power drops
// below the target fraction of the limit or every server is fully
// throttled, under the configured capping discipline.
func (r *Rack) applyCapping(current float64) {
	switch r.cfg.Mode {
	case CapSeverity:
		r.applyCappingSeverity(current, false)
	case CapInvertedUnsafe:
		r.applyCappingSeverity(current, true)
	case CapDisabledUnsafe:
		// Enforcement off: the negative-test mode that lets
		// invariant.NoBrownout prove it has teeth.
	default:
		r.applyCappingInterleaved(current)
	}
}

// applyCappingInterleaved is the original discipline: one level per server
// round-robin, lowest CapPriority first.
func (r *Rack) applyCappingInterleaved(current float64) {
	target := r.cfg.TargetFraction * r.cfg.LimitWatts
	ordered := make([]Server, len(r.servers))
	copy(ordered, r.servers)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].CapPriority() < ordered[j].CapPriority()
	})
	for current > target {
		progressed := false
		for _, s := range ordered {
			if current <= target {
				break
			}
			if s.CapLevel() >= s.MaxCapLevel() {
				continue
			}
			s.ForceCap(s.CapLevel() + 1)
			progressed = true
			current = r.Power()
		}
		if !progressed {
			break // everything at the floor; nothing more we can do
		}
	}
}

// applyCappingSeverity is the severity-ordered discipline: servers sort by
// severity class (most sheddable first — or most critical first when
// inverted, the negative-test mode), with CapPriority breaking ties inside a
// class. One class is driven all the way to its cap floor before the next
// class is touched, so a server of class k is capped only while every more
// sheddable class is fully throttled — the property invariant.SeverityOrder
// audits.
func (r *Rack) applyCappingSeverity(current float64, invert bool) {
	target := r.cfg.TargetFraction * r.cfg.LimitWatts
	if current <= target {
		return
	}
	ordered := make([]Server, len(r.servers))
	copy(ordered, r.servers)
	sort.SliceStable(ordered, func(i, j int) bool {
		si, sj := SeverityOf(ordered[i]), SeverityOf(ordered[j])
		if si != sj {
			if invert {
				return si < sj
			}
			return si > sj
		}
		return ordered[i].CapPriority() < ordered[j].CapPriority()
	})
	for lo := 0; lo < len(ordered) && current > target; {
		hi := lo
		for hi < len(ordered) && SeverityOf(ordered[hi]) == SeverityOf(ordered[lo]) {
			hi++
		}
		class := ordered[lo:hi]
		for current > target {
			progressed := false
			for _, s := range class {
				if current <= target {
					break
				}
				if s.CapLevel() >= s.MaxCapLevel() {
					continue
				}
				s.ForceCap(s.CapLevel() + 1)
				progressed = true
				current = r.Power()
			}
			if !progressed {
				break // class exhausted; move on to the next one
			}
		}
		lo = hi
	}
}

// relaxCapping lowers cap levels one step per tick under the configured
// discipline, reporting whether any level changed.
func (r *Rack) relaxCapping() bool {
	if r.cfg.Mode == CapSeverity {
		return r.relaxCappingSeverity()
	}
	return r.relaxCappingInterleaved()
}

// relaxCappingInterleaved lowers cap levels one step on every capped
// server, highest CapPriority first so important servers recover sooner.
// An uncapped rack, the common case, returns before ordering anything.
func (r *Rack) relaxCappingInterleaved() bool {
	if !r.IsCapped() {
		return false
	}
	changed := false
	ordered := make([]Server, len(r.servers))
	copy(ordered, r.servers)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].CapPriority() > ordered[j].CapPriority()
	})
	for _, s := range ordered {
		if lvl := s.CapLevel(); lvl > 0 {
			s.ForceCap(lvl - 1)
			changed = true
		}
	}
	return changed
}

// relaxCappingSeverity restores in severity order: only the most critical
// class that still has capped servers relaxes this tick, one level each;
// more sheddable classes start recovering only once every class above them
// is fully uncapped. Restoring in this order keeps the SeverityOrder
// property intact on the way down as well as on the way up — uncapping
// harvest first would leave critical work throttled while harvest ran free.
func (r *Rack) relaxCappingSeverity() bool {
	best := Severity(-1)
	for _, s := range r.servers {
		if s.CapLevel() > 0 {
			if sv := SeverityOf(s); best < 0 || sv < best {
				best = sv
			}
		}
	}
	if best < 0 {
		return false
	}
	var relaxed []Server
	for _, s := range r.servers {
		if SeverityOf(s) != best {
			continue
		}
		if lvl := s.CapLevel(); lvl > 0 {
			s.ForceCap(lvl - 1)
			relaxed = append(relaxed, s)
		}
	}
	// A whole class stepping up at once can overshoot the hysteresis
	// margin: if the probe shows the relaxed rack at or over the limit,
	// undo and hold the caps until the load drops further. Without this a
	// restore tick itself can brown the rack out.
	if len(relaxed) > 0 && r.Power() >= r.cfg.LimitWatts {
		for _, s := range relaxed {
			s.ForceCap(s.CapLevel() + 1)
		}
		return false
	}
	return len(relaxed) > 0
}
