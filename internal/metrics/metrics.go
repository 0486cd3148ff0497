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
	"slices"
	"sort"
	"strings"
)

// Label is one name=value pair of a series identity.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// With returns labels followed by more in a fresh slice, so one base label
// set extends per series without the extensions aliasing each other.
func With(labels []Label, more ...Label) []Label {
	return append(labels[:len(labels):len(labels)], more...)
}

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
	seq  int    // registration order: the registry's seq-th instrument
	// labels is nil when unlabeled. Instruments with one label set share
	// it, and so do snapshots and recordings, so it is never written after
	// registration.
	labels map[string]string
	kind   Kind
	// c and g are a counter's and a gauge's handle, held in the instrument
	// so registering one is a single allocation.
	c Counter
	g Gauge
	h *Histogram
}

// Registry holds instruments keyed by name + sorted labels. Registering the
// same identity twice returns the same handle, so re-instrumented
// components (e.g. an sOA rebooted after a chaos crash) keep accumulating
// into the same series. Registration is setup-path; it may allocate.
// A Registry is not safe for concurrent use: each parallel shard owns its
// own and snapshots are merged afterwards.
type Registry struct {
	byID map[string]*instrument
	// labelSets holds one label map per distinct label set, keyed by its
	// rendering (see labelMap).
	labelSets map[string]map[string]string
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
	return &Registry{byID: make(map[string]*instrument), labelSets: make(map[string]map[string]string)}
}

// seriesID renders the canonical identity "name{k1=v1,k2=v2}" with labels
// sorted by key. It doubles as the snapshot sort key, which is what makes
// exposition byte-deterministic regardless of registration order.
func seriesID(name string, labels []Label) string {
	return string(appendSeriesID(nil, name, labels))
}

// appendSeriesID appends seriesID(name, labels) to b.
func appendSeriesID(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = append(b, l.Value...)
	}
	return append(b, '}')
}

// sortedLabels sorts labels by key in place and returns them. It is the
// pdqsort sort.Slice runs, insertion sort below 12 elements included, so
// labels with equal keys keep the order they always had.
func sortedLabels(labels []Label) []Label {
	slices.SortFunc(labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	return labels
}

// lookup finds or creates the instrument for (name, labels, kind). It
// panics on an identity registered under a different kind — a programming
// error, caught at setup like an invalid hardware config.
//
// Labels are sorted and the identity rendered in stack buffers, so finding
// a registered instrument allocates nothing; a new one allocates its
// identity, and a label map only when no instrument of the registry has its
// label set yet.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *instrument {
	if name == "" {
		panic("metrics: empty metric name")
	}
	var lbuf [8]Label
	ls := sortedLabels(append(lbuf[:0], labels...))
	var ibuf [160]byte
	b := appendSeriesID(ibuf[:0], name, ls)
	if ins, ok := r.byID[string(b)]; ok {
		if ins.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", ins.id, ins.kind, kind))
		}
		return ins
	}
	id := string(b)
	ins := &instrument{name: name, id: id, seq: len(r.sorted), kind: kind, labels: r.labelMap(id[len(name):], ls)}
	r.byID[id] = ins
	at := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].id > id })
	r.sorted = append(r.sorted, nil)
	copy(r.sorted[at+1:], r.sorted[at:])
	r.sorted[at] = ins
	return ins
}

// labelMap returns the registry's read-only map of the sorted labels ls,
// whose rendering is set ("{k1=v1,...}"): one map per distinct label set,
// shared by every instrument that carries it. Unlabeled series get nil.
func (r *Registry) labelMap(set string, ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	if m, ok := r.labelSets[set]; ok {
		return m
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	r.labelSets[set] = m
	return m
}

// Counter returns the counter handle for name+labels, creating it at zero
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return &r.lookup(name, KindCounter, labels).c
}

// Gauge returns the gauge handle for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return &r.lookup(name, KindGauge, labels).g
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
