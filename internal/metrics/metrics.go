// Package metrics is the simulation-time metrics registry behind the
// reproduction's observability layer. It deliberately mirrors the shape of
// production metric systems (counters, gauges, fixed-bucket histograms,
// name+label series identity, Prometheus text exposition) while staying
// inside the simulator's determinism contract: instruments carry no clocks
// and no goroutines, values advance only when the single-goroutine
// simulation calls them, and snapshots order series bytes-identically for
// any insertion order.
//
// Hot-path discipline: handles (*Counter, *Gauge, *Histogram) are resolved
// once at setup via the Registry; Inc/Add/Set/Observe on a handle is a
// plain field update with zero allocations (guarded by AllocsPerRun tests).
// Per-shard registries are merged in shard-index order (Merge), which keeps
// fleet-wide telemetry byte-identical across worker counts, exactly like
// the experiment reducers.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one name=value pair of a series identity.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind distinguishes instrument types.
type Kind int

const (
	// KindCounter is a monotonically increasing total.
	KindCounter Kind = iota
	// KindGauge is a last-written value.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String returns the Prometheus type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing total. Not safe for concurrent use;
// like the simulation engine, it relies on single-goroutine discipline
// (each parallel shard owns its own Registry).
type Counter struct {
	v float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds delta (callers keep it non-negative; counters are totals).
func (c *Counter) Add(delta float64) { c.v += delta }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a last-written instantaneous value.
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) { g.v += delta }

// Histogram counts observations into a fixed layout of upper-bound buckets
// (plus an implicit +Inf bucket), tracking sum and count like a Prometheus
// histogram. Observe is allocation-free.
type Histogram struct {
	uppers []float64 // ascending upper bounds; +Inf implicit
	counts []uint64  // len(uppers)+1; last is the +Inf overflow bucket
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.uppers) && v > h.uppers[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Fixed bucket layouts shared across the instrumented subsystems, so the
// same metric is comparable between the fleet simulation, the cluster
// emulation and the chaos runs.
var (
	// FractionBuckets spans normalized fractions (rack utilization, duty
	// cycles): the interesting band is around the warning threshold.
	FractionBuckets = []float64{0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05}
	// CoreBuckets spans per-request/overclocked core counts.
	CoreBuckets = []float64{1, 2, 4, 8, 16, 32, 64}
	// ByteBuckets spans message and frame sizes on the agent transports.
	ByteBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
	// LatencyBuckets spans RPC round-trip and delivery times in seconds.
	LatencyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}
)

// instrument is one registered series. Its identity and label map are
// built once, at registration, so snapshots need no string or map work.
type instrument struct {
	name string
	id   string // canonical identity, see seriesID
	// labels is nil when unlabeled. Snapshots share it, so it is never
	// written after registration.
	labels map[string]string
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds instruments keyed by name + sorted labels. Registering the
// same identity twice returns the same handle, so re-instrumented
// components (e.g. an sOA rebooted after a chaos crash) keep accumulating
// into the same series. Registration is setup-path; it may allocate.
// A Registry is not safe for concurrent use: each parallel shard owns its
// own and snapshots are merged afterwards.
type Registry struct {
	byID map[string]*instrument
	// sorted holds every instrument in identity order. Registration inserts
	// at the sorted position and nothing is ever removed, so a snapshot is
	// one pass over it.
	sorted []*instrument
	// buckets counts the finite buckets of every histogram, sizing the one
	// bucket array a snapshot shares out among them.
	buckets int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*instrument)}
}

// seriesID renders the canonical identity "name{k1=v1,k2=v2}" with labels
// sorted by key. It doubles as the snapshot sort key, which is what makes
// exposition byte-deterministic regardless of registration order.
func seriesID(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// sortedLabels returns a sorted copy of labels.
func sortedLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup finds or creates the instrument for (name, labels, kind). It
// panics on an identity registered under a different kind — a programming
// error, caught at setup like an invalid hardware config.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *instrument {
	if name == "" {
		panic("metrics: empty metric name")
	}
	ls := sortedLabels(labels)
	id := seriesID(name, ls)
	if ins, ok := r.byID[id]; ok {
		if ins.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", id, ins.kind, kind))
		}
		return ins
	}
	ins := &instrument{name: name, id: id, kind: kind}
	if len(ls) > 0 {
		ins.labels = make(map[string]string, len(ls))
		for _, l := range ls {
			ins.labels[l.Key] = l.Value
		}
	}
	r.byID[id] = ins
	at := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id > id })
	r.sorted = append(r.sorted, nil)
	copy(r.sorted[at+1:], r.sorted[at:])
	r.sorted[at] = ins
	return ins
}

// Counter returns the counter handle for name+labels, creating it at zero
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	ins := r.lookup(name, KindCounter, labels)
	if ins.c == nil {
		ins.c = &Counter{}
	}
	return ins.c
}

// Gauge returns the gauge handle for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	ins := r.lookup(name, KindGauge, labels)
	if ins.g == nil {
		ins.g = &Gauge{}
	}
	return ins.g
}

// Histogram returns the histogram handle for name+labels with the given
// fixed upper-bound bucket layout. Re-registering an existing histogram
// ignores the (necessarily identical) layout.
func (r *Registry) Histogram(name string, uppers []float64, labels ...Label) *Histogram {
	ins := r.lookup(name, KindHistogram, labels)
	if ins.h == nil {
		if len(uppers) == 0 {
			panic(fmt.Sprintf("metrics: histogram %s without buckets", name))
		}
		for i := 1; i < len(uppers); i++ {
			if uppers[i] <= uppers[i-1] {
				panic(fmt.Sprintf("metrics: histogram %s buckets not ascending", name))
			}
		}
		ins.h = &Histogram{
			uppers: append([]float64(nil), uppers...),
			counts: make([]uint64, len(uppers)+1),
		}
		r.buckets += len(uppers)
	}
	return ins.h
}
