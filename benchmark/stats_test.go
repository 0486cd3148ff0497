package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || !near(s.Median, 5.5) || !near(s.Min, 1) || !near(s.IQR, 5.5) {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		p, at float64
	}{
		{5, 50, 3},           // too few for anything: the median anyway
		{99, 50, 50},         // 9.9 beyond p90: not enough
		{100, 90, 90},        // exactly ten beyond p90
		{999, 95, 949},       // 9.99 beyond p99
		{1000, 99, 990},      // exactly ten beyond p99
		{14000, 99.9, 13986}, // 14 beyond p99.9, 1.4 beyond p99.99
	} {
		p, v := tailPercentile(seq(c.n))
		if p != c.p || math.Abs(v-c.at) > 0.2 { // the value interpolates between ranks
			t.Errorf("n=%d: tailPercentile = p%v at %v, want p%v at %v", c.n, p, v, c.p, c.at)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		// Root with two nested children; the second has its own child.
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 40 * ms, End: 90 * ms},
		{ID: 4, Parent: 3, Name: "a", Start: 50 * ms, End: 60 * ms},
		// Overlapping children: their union [10,50] is subtracted once.
		{ID: 5, Parent: 0, Name: "overlap", Start: 0, End: 60 * ms},
		{ID: 6, Parent: 5, Name: "x", Start: 10 * ms, End: 40 * ms},
		{ID: 7, Parent: 5, Name: "x", Start: 30 * ms, End: 50 * ms},
		// A child contained in an earlier sibling adds nothing.
		{ID: 8, Parent: 5, Name: "x", Start: 15 * ms, End: 20 * ms},
		// Zero-length spans, and a child sticking out of its parent.
		{ID: 9, Parent: 0, Name: "edge", Start: 10 * ms, End: 20 * ms},
		{ID: 10, Parent: 9, Name: "zero", Start: 15 * ms, End: 15 * ms},
		{ID: 11, Parent: 9, Name: "late", Start: 18 * ms, End: 25 * ms},
		{ID: 12, Parent: 0, Name: "zero", Start: 5 * ms, End: 5 * ms},
	}
	want := map[int]time.Duration{
		1: 30 * ms, 2: 20 * ms, 3: 40 * ms, 4: 10 * ms,
		5: 20 * ms, 6: 30 * ms, 7: 20 * ms, 8: 5 * ms,
		9: 8 * ms, 10: 0, 11: 7 * ms, 12: 0,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
	self, _ := selfByName(spans)
	if self["a"] != 30*ms || self["x"] != 55*ms || self["zero"] != 0 {
		t.Errorf("selfByName = %v", self)
	}
}

func TestSpanLogNilRecordsNothing(t *testing.T) {
	var off *spanLog
	id := off.begin("x", 0, 1)
	off.end(id, 3) // must not panic

	on := newSpanLog()
	root := on.begin("root", 0, 7)
	child := on.begin("child", root, 7)
	on.end(child, 4)
	on.end(root, 1)
	if len(on.spans) != 2 {
		t.Fatalf("got %d spans", len(on.spans))
	}
	c := on.spans[1]
	if c.Parent != root || c.Trace != 7 || c.Count != 4 || c.Name != "child" || c.End < c.Start {
		t.Errorf("child span = %+v", c)
	}
}
