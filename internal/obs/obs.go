// Package obs is the structured event tracer of the observability layer.
// Events are stamped with simulation time (the discrete-event engine's
// clock, never the wall clock) and grouped into per-component channels, so
// a trace of the same seed is byte-identical however many workers ran the
// experiment: each shard appends to its own Tracer in deterministic sim
// order and the shards are concatenated in shard-index order.
//
// A nil *Tracer is valid and discards everything, which keeps the
// instrumentation hot paths to a single pointer test when tracing is off.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Component names one event channel. The set mirrors the SmartOClock agent
// hierarchy plus the test harnesses around it.
type Component string

const (
	// SOA traces server overclocking agent decisions (grants, rejections,
	// exploration transitions, feedback backoffs, exhaustion signals).
	SOA Component = "soa"
	// GOA traces global agent budget broadcasts.
	GOA Component = "goa"
	// WI traces workload intelligence predictions and scaling actions.
	WI Component = "wi"
	// Rack traces power-capping actions (warning, cap, release).
	Rack Component = "rack"
	// Chaos traces injected faults (crashes, restarts, outages).
	Chaos Component = "chaos"
	// Invariant traces runtime invariant violations.
	Invariant Component = "invariant"
	// Alert traces alerting-rule transitions (fire, resolve).
	Alert Component = "alert"
)

// Components lists every known component in declaration order, for CLI
// help text and flag validation.
var Components = []Component{SOA, GOA, WI, Rack, Chaos, Invariant, Alert}

// ParseComponents parses a comma-separated component list (as passed to a
// -trace-components flag). Whitespace around names is trimmed and empty
// elements are skipped; an unknown name is an error naming the valid set.
func ParseComponents(s string) ([]Component, error) {
	known := make(map[Component]bool, len(Components))
	for _, c := range Components {
		known[c] = true
	}
	var out []Component
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c := Component(part)
		if !known[c] {
			return nil, fmt.Errorf("obs: unknown component %q (valid: %v)", part, Components)
		}
		out = append(out, c)
	}
	return out, nil
}

// Event is one structured trace record. Time is simulation time; Source is
// the emitting entity (server, rack, agent); Target is the acted-on entity
// when distinct (a VM, a crashed agent); Value carries the principal
// quantity (watts, cores, instances) and Detail any free-form remainder.
type Event struct {
	Time      time.Time `json:"t"`
	Component Component `json:"component"`
	Kind      string    `json:"kind"`
	Source    string    `json:"source,omitempty"`
	Target    string    `json:"target,omitempty"`
	Value     float64   `json:"value,omitempty"`
	Detail    string    `json:"detail,omitempty"`
	// Span and Parent tie the event into the causal-provenance layer
	// (internal/causal) when provenance is enabled; both stay zero — and
	// omitted from JSON, keeping pre-provenance traces byte-identical —
	// otherwise.
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// Tracer accumulates events in emission order. Like the metrics registry it
// is single-goroutine: each parallel shard owns its own Tracer, merged
// afterwards with Append.
//
// Events are held in a Ring. A bounded tracer keeps only its newest events
// and counts the overwritten ones in Dropped — long-running harnesses
// export the count as the `trace_dropped_total` metric so a truncated trace
// is visible in telemetry rather than silently partial.
type Tracer struct {
	only   map[Component]bool // nil means trace every component
	events Ring[Event]
}

// New returns an unbounded tracer recording every component.
func New() *Tracer { return &Tracer{} }

// NewTracer returns a tracer that keeps the newest bound events (every
// event when bound ≤ 0) of the given components (of every component when
// none is given).
func NewTracer(bound int, only ...Component) *Tracer {
	t := &Tracer{events: *NewRing[Event](bound)}
	if len(only) > 0 {
		t.only = make(map[Component]bool, len(only))
		for _, c := range only {
			t.only[c] = true
		}
	}
	return t
}

// Dropped returns how many events a bounded tracer overwrote; 0 on a nil
// or unbounded tracer.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.events.Dropped()
}

// Emit records an event. Safe on a nil tracer (no-op), so instrumented
// components need no tracing-enabled flag of their own.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if t.only != nil && !t.only[ev.Component] {
		return
	}
	t.events.Push(ev)
}

// Len returns the number of recorded events; 0 on a nil tracer.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.events.Len()
}

// Total returns how many events the tracer has recorded: the held ones
// plus those a bounded ring overwrote. 0 on a nil tracer.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.events.Total()
}

// AppendSince appends the events recorded after the first seen ones to dst,
// oldest first (see Ring.AppendSince). dst comes back unchanged from a nil
// tracer.
func (t *Tracer) AppendSince(dst []Event, seen uint64) []Event {
	if t == nil {
		return dst
	}
	return t.events.AppendSince(dst, seen)
}

// Events returns the recorded events in emission order (see Ring.All):
// callers must not mutate the slice.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events.All()
}

// Append concatenates other's events onto t, preserving order. Merging
// shard tracers in shard-index order keeps the combined trace deterministic
// across worker counts. A bounded t keeps only the newest events, counting
// displaced ones as dropped.
func (t *Tracer) Append(other *Tracer) {
	if t == nil || other == nil {
		return
	}
	t.events.Push(other.Events()...)
}

// Concat builds a single tracer from shard tracers in argument order. Nil
// entries are skipped.
func Concat(tracers ...*Tracer) *Tracer {
	out := New()
	// One right-sized allocation instead of O(log n) regrowths while
	// appending thousands of shard traces at fleet scale.
	total := 0
	for _, tr := range tracers {
		total += tr.Len()
	}
	out.events.buf = make([]Event, 0, total)
	for _, tr := range tracers {
		out.Append(tr)
	}
	return out
}

// WriteJSONL writes one JSON object per event. Timestamps marshal as
// RFC 3339 with nanoseconds (simulation times are UTC), and struct field
// order is fixed, so output is byte-deterministic.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return WriteEventsJSONL(w, t.Events())
}

// WriteEventsJSONL writes events as JSON lines. HTML escaping is disabled:
// Detail strings carry expressions like "power > limit" which must round-
// trip verbatim, not as > escapes.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: encode event %d: %w", i, err)
		}
	}
	return nil
}

// CountByComponent tallies recorded events per component.
func (t *Tracer) CountByComponent() map[Component]int {
	out := make(map[Component]int)
	if t == nil {
		return out
	}
	for i := range t.events.buf {
		out[t.events.buf[i].Component]++
	}
	return out
}
