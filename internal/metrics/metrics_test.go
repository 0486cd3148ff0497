package metrics

import (
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("server", "s0"))
	c.Inc()
	c.Inc()
	c.Add(3)
	if c.Value() != 5 {
		t.Fatalf("counter = %v, want 5", c.Value())
	}
	// Same identity, any label order: same handle.
	c2 := r.Counter("requests_total", L("server", "s0"))
	if c2 != c {
		t.Fatal("re-registration returned a different handle")
	}
	if len(r.byID) != 1 {
		t.Fatalf("registry holds %d series, want 1", len(r.byID))
	}
}

func TestLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("b", "2"), L("a", "1"))
	b := r.Counter("m", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
	if len(r.byID) != 1 {
		t.Fatalf("registry holds %d series, want 1", len(r.byID))
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("power_watts")
	g.Set(150)
	g.Add(-50)
	if g.v != 100 {
		t.Fatalf("gauge = %v, want 100", g.v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cores", CoreBuckets)
	for _, v := range []float64{1, 2, 3, 64, 100} {
		h.Observe(v)
	}
	if h.count != 5 {
		t.Fatalf("count = %d, want 5", h.count)
	}
	if h.sum != 170 {
		t.Fatalf("sum = %v, want 170", h.sum)
	}
	s := r.Snapshot().Find("cores", nil)
	if s == nil {
		t.Fatal("histogram series missing from snapshot")
	}
	// Cumulative: le=1 -> 1, le=2 -> 2, le=4 -> 3 (3 lands in (2,4]),
	// le=64 -> 4; the 100 lives only in +Inf (== Count).
	wantCum := map[float64]uint64{1: 1, 2: 2, 4: 3, 8: 3, 16: 3, 32: 3, 64: 4}
	for _, b := range s.Buckets {
		if b.Count != wantCum[b.LE] {
			t.Errorf("bucket le=%v cumulative = %d, want %d", b.LE, b.Count, wantCum[b.LE])
		}
	}
	if s.Count != 5 {
		t.Fatalf("+Inf cumulative (Count) = %d, want 5", s.Count)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("registering the same identity under a different kind did not panic")
		}
	}()
	r.Gauge("m")
}

func TestBadHistogramLayoutPanics(t *testing.T) {
	for name, uppers := range map[string][]float64{
		"empty":         {},
		"not ascending": {1, 3, 2},
		"duplicate":     {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bucket layout did not panic", name)
				}
			}()
			NewRegistry().Histogram("m", uppers)
		}()
	}
}

func TestEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty metric name did not panic")
		}
	}()
	NewRegistry().Counter("")
}

// The hot-path discipline: instrument updates must be allocation-free so
// instrumented per-tick loops cost a pointer test and a float update, never
// GC pressure that would skew the benchmarked simulations.

func TestCounterIncAllocFree(t *testing.T) {
	c := NewRegistry().Counter("m")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(2) }); allocs != 0 {
		t.Fatalf("Counter.Inc/Add allocates %.1f objects per run, want 0", allocs)
	}
}

func TestGaugeSetAllocFree(t *testing.T) {
	g := NewRegistry().Gauge("m")
	if allocs := testing.AllocsPerRun(1000, func() { g.Set(1.5); g.Add(-0.5) }); allocs != 0 {
		t.Fatalf("Gauge.Set/Add allocates %.1f objects per run, want 0", allocs)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	h := NewRegistry().Histogram("m", WattBuckets)
	v := 0.0
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 37.5 // cycle across buckets including +Inf
		if v > 20000 {
			v = 0
		}
	}); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f objects per run, want 0", allocs)
	}
}
