// Package causal is the decision-provenance layer of the observability
// stack: deterministic span identifiers threaded through every
// control-plane message, and structured "why" records emitted at every
// risk decision point (policy admission, exploration moves, power capping,
// alert transitions, invariant violations), linked into causal chains by
// span parentage.
//
// Span IDs are derived from the experiment seed with the same splitmix64
// stream construction as parallel.ChildSeed — never from wall clocks or
// runtime addresses — so the provenance log of a run is byte-identical at
// any worker count and across shuffled dispatch orders.
//
// A nil *Recorder is valid and records nothing: instrumented decision
// sites pay one pointer test when provenance is off, the same
// zero-observer-effect contract as obs.Tracer and the metrics registry.
package causal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"smartoclock/internal/obs"
)

// goldenGamma is the Weyl-sequence increment of splitmix64, shared with
// internal/parallel so span streams and shard seeds draw from the same
// family without colliding streams.
const goldenGamma = 0x9E3779B97F4A7C15

// splitmix64 is the 64-bit finalizer from Vigna's SplitMix64.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// SpanID identifies one node of a causal chain. Zero means "no span": the
// omitted value on messages and records produced with provenance off.
type SpanID uint64

// String renders the span as fixed-width lowercase hex, the format
// accepted back by ParseSpan, /explain?span= and socctl explain.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// MarshalJSON renders spans as their canonical hex string, so a span
// copied out of a provenance log pastes straight into socctl explain and
// /explain?span= without a decimal/hex ambiguity.
func (s SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts both the canonical hex string and the bare number
// older logs carried.
func (s *SpanID) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' {
		id, err := ParseSpan(string(b[1 : len(b)-1]))
		if err != nil {
			return err
		}
		*s = id
		return nil
	}
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("causal: bad span %s", b)
	}
	*s = SpanID(v)
	return nil
}

// ParseSpan parses a span rendered by String. Plain decimal is also
// accepted so spans copied from raw JSON (where they are numbers) resolve
// too.
func ParseSpan(s string) (SpanID, error) {
	if s == "" {
		return 0, fmt.Errorf("causal: empty span")
	}
	if v, err := strconv.ParseUint(s, 16, 64); err == nil {
		return SpanID(v), nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("causal: bad span %q", s)
	}
	return SpanID(v), nil
}

// Source is a deterministic span-ID stream: seed and stream index select a
// splitmix64 sequence exactly like parallel.ChildSeed selects shard seeds.
// Each actor (gOA, one sOA, one rack, the WI harness) owns its own stream
// so IDs never depend on cross-actor interleaving.
type Source struct {
	state uint64
}

// NewSource returns the span stream for (seed, stream).
func NewSource(seed int64, stream uint64) Source {
	return Source{state: splitmix64(uint64(seed) + (stream+1)*goldenGamma)}
}

// Next returns the next span ID of the stream, never zero.
func (s *Source) Next() SpanID {
	for {
		s.state += goldenGamma
		if id := splitmix64(s.state); id != 0 {
			return SpanID(id)
		}
	}
}

// Record kinds: decisions are risk verdicts (admit, deny, cap, fire...),
// messages are control-plane sends that propagate a span across agents.
const (
	KindDecision = "decision"
	KindMessage  = "message"
)

// Input is one named quantity that fed a decision — predictor outputs,
// thresholds, budgets — kept as an ordered list so records marshal
// byte-deterministically.
type Input struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// In is shorthand for constructing an Input.
func In(name string, value float64) Input { return Input{Name: name, Value: value} }

// Record is one provenance entry: what was decided (or sent), by whom,
// with which inputs, and which span caused it. Parent links the primary
// cause; Links name additional contributing spans (e.g. the budget
// broadcast an admission was judged against).
type Record struct {
	Span      SpanID    `json:"span"`
	Parent    SpanID    `json:"parent,omitempty"`
	Links     []SpanID  `json:"links,omitempty"`
	Time      time.Time `json:"t"`
	Kind      string    `json:"kind"`
	Component string    `json:"component"`
	Site      string    `json:"site"`
	Subject   string    `json:"subject,omitempty"`
	Policy    string    `json:"policy,omitempty"`
	Verdict   string    `json:"verdict"`
	Inputs    []Input   `json:"inputs,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// Recorder accumulates provenance records in emission order and hands out
// span IDs from its Source. Like the tracer it is single-goroutine: each
// shard or cell owns its own recorder, merged afterwards in shard order.
// Records are held in an obs.Ring. A nil recorder discards everything and
// returns span 0.
type Recorder struct {
	src     Source
	records obs.Ring[Record]
}

// NewRecorder returns an unbounded recorder whose span stream is derived
// from (seed, stream).
func NewRecorder(seed int64, stream uint64) *Recorder {
	return &Recorder{src: NewSource(seed, stream)}
}

// NewBounded returns a recorder that keeps only the most recent capacity
// records (every record when capacity ≤ 0), counting overwritten ones in
// Dropped — for long live runs where the full provenance log would grow
// without bound.
func NewBounded(seed int64, stream uint64, capacity int) *Recorder {
	return &Recorder{src: NewSource(seed, stream), records: *obs.NewRing[Record](capacity)}
}

// Emit appends rec, assigning it a fresh span when rec.Span is zero, and
// returns the record's span (0 on a nil recorder).
func (r *Recorder) Emit(rec Record) SpanID {
	if r == nil {
		return 0
	}
	if rec.Span == 0 {
		rec.Span = r.src.Next()
	}
	r.records.Push(rec)
	return rec.Span
}

// Dropped returns how many records a bounded recorder overwrote.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.records.Dropped()
}

// Total returns how many records the recorder has emitted: the held ones
// plus those a bounded ring overwrote. 0 on a nil recorder.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.records.Total()
}

// AppendSince appends the records emitted after the first seen ones to dst,
// oldest first (see obs.Ring.AppendSince). dst comes back unchanged from a
// nil recorder.
func (r *Recorder) AppendSince(dst []Record, seen uint64) []Record {
	if r == nil {
		return dst
	}
	return r.records.AppendSince(dst, seen)
}

// Records returns the held records in emission order (see obs.Ring.All):
// callers must not mutate the slice.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	return r.records.All()
}

// Log is a merged, ordered provenance log — the unit that is written to
// disk, served by /explain, and walked by socctl explain.
type Log struct {
	Records []Record
}

// Len returns the number of records; 0 on a nil log.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.Records)
}

// WriteJSONL writes one JSON object per record. HTML escaping is disabled
// (Detail strings carry comparisons like "power > limit") and field order
// is fixed, so output is byte-deterministic.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for i := range l.Records {
		if err := enc.Encode(&l.Records[i]); err != nil {
			return fmt.Errorf("causal: encode record %d: %w", i, err)
		}
	}
	return nil
}

// ReadLog parses a log previously written by WriteJSONL.
func ReadLog(r io.Reader) (*Log, error) {
	out := &Log{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("causal: line %d: %w", line, err)
		}
		out.Records = append(out.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("causal: read log: %w", err)
	}
	return out, nil
}

// Find returns the record carrying span, or nil. Spans are unique per
// record within one run (each Emit draws or is handed a fresh ID).
func (l *Log) Find(span SpanID) *Record {
	if l == nil || span == 0 {
		return nil
	}
	for i := range l.Records {
		if l.Records[i].Span == span {
			return &l.Records[i]
		}
	}
	return nil
}

// Chain returns the causal ancestry of span, leaf first: the record itself,
// then its parent's record, and so on until a record has no parent or the
// parent span has no record in the log (a span minted for a message whose
// send was not itself recorded). Cycles — impossible from the emitters, but
// logs can be hand-edited — terminate the walk.
func (l *Log) Chain(span SpanID) []Record {
	var out []Record
	seen := make(map[SpanID]bool)
	for rec := l.Find(span); rec != nil && !seen[rec.Span]; rec = l.Find(rec.Parent) {
		seen[rec.Span] = true
		out = append(out, *rec)
	}
	return out
}

// Children returns records whose Parent is span, in log order — the
// forward half of an explanation (what a cap event went on to cause).
func (l *Log) Children(span SpanID) []Record {
	if l == nil || span == 0 {
		return nil
	}
	var out []Record
	for i := range l.Records {
		if l.Records[i].Parent == span {
			out = append(out, l.Records[i])
		}
	}
	return out
}

// Stats summarizes a log for critical-path profiling: how many decisions
// and messages, how deep the longest causal chain runs, and how decision
// work distributes over simulation ticks (records sharing a timestamp).
type Stats struct {
	Decisions int     `json:"decisions"`
	Messages  int     `json:"messages"`
	MaxDepth  int     `json:"max_chain_depth"`
	DeepSpan  SpanID  `json:"deepest_span,omitempty"`
	Ticks     int     `json:"ticks"`
	MaxTick   int     `json:"max_records_per_tick"`
	MeanTick  float64 `json:"mean_records_per_tick"`
}

// Stats computes the log's critical-path summary in one linear walk.
func (l *Log) Stats() Stats {
	var st Stats
	if l == nil || len(l.Records) == 0 {
		return st
	}
	depth, perTick := l.walk()
	for i := range l.Records {
		rec := &l.Records[i]
		if rec.Kind == KindMessage {
			st.Messages++
		} else {
			st.Decisions++
		}
		if depth[i] > st.MaxDepth {
			st.MaxDepth, st.DeepSpan = depth[i], rec.Span
		}
	}
	st.Ticks = len(perTick)
	for _, n := range perTick {
		st.MaxTick = max(st.MaxTick, n)
	}
	st.MeanTick = float64(len(l.Records)) / float64(st.Ticks)
	return st
}

// walk returns each record's causal depth — 1 for a root, one more than its
// parent's otherwise — and the number of records at each distinct timestamp
// (each simulation tick). Depth is memoized over the span→record index, so
// the walk is linear in the log size.
func (l *Log) walk() (depth []int, perTick map[time.Time]int) {
	index := make(map[SpanID]int, len(l.Records))
	for i := range l.Records {
		index[l.Records[i].Span] = i
	}
	depth = make([]int, len(l.Records))
	var depthOf func(i int) int
	depthOf = func(i int) int {
		if depth[i] != 0 {
			return depth[i]
		}
		depth[i] = -1 // cycle guard: a revisit mid-walk scores as boundary
		d := 1
		if j, ok := index[l.Records[i].Parent]; ok && depth[j] != -1 {
			d = 1 + depthOf(j)
		}
		depth[i] = d
		return d
	}
	perTick = make(map[time.Time]int)
	for i := range l.Records {
		depthOf(i)
		perTick[l.Records[i].Time]++
	}
	return depth, perTick
}
