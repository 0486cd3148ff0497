package main

import (
	"sort"
	"time"

	"smartoclock/internal/stats"
)

// summary describes the per-repetition samples of one metric. The median
// is the reported value; min and the inter-quartile range sit beside it so
// a reader can tell a real shift from host drift.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (the "exclusive" method), so the
// spreads this benchmark prints are the ones its driver computes. Fewer
// than two samples have no spread: all three equal the single sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, _, q3 := quartiles(xs)
	return summary{N: len(xs), Median: stats.Median(xs), Min: stats.Min(xs), Q1: q1, Q3: q3, IQR: q3 - q1}
}

// tailPercentile picks the highest percentile of the usual ladder that
// still has at least ten samples beyond it — a tail supported by fewer is
// one outlier's opinion — and returns it with its value. With under twenty
// samples even the median fails that test, and p50 is returned anyway.
func tailPercentile(xs []float64) (p, value float64) {
	p = 50
	for _, cand := range []float64{90, 95, 99, 99.9, 99.99} {
		if float64(len(xs))*(100-cand) >= 1000-1e-6 { // n·(1-cand/100) >= 10, in a form 100-99.9 rounds kindly
			p = cand
		}
	}
	return p, stats.Percentile(xs, p)
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// span is one timed call into a layer, recorded by the benchmark around
// the call — the program under test carries no instrumentation. Spans of
// one rack or one command share a Trace id; Parent is the ID of the span
// that caused this one (0 for a root). Per-tick calls are batched: one
// span per layer per tick with the number of calls in Count.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Count  int           `json:"count"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil *spanLog
// records nothing, which is how the untraced side of
// bench.trace_overhead_ratio runs the same code.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID (0 from a nil log).
func (l *spanLog) begin(name string, parent, trace int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: time.Since(l.t0)})
	return len(l.spans)
}

// end closes span id, noting how many calls it covered.
func (l *spanLog) end(id, count int) {
	if l == nil {
		return
	}
	s := &l.spans[id-1]
	s.End = time.Since(l.t0)
	s.Count = count
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other
// (their union is subtracted once), may stick out of the parent (they are
// clipped to it) and may be zero-length.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time and call counts over spans of the same name —
// the per-layer totals of a traced pass.
func selfByName(spans []span) (self map[string]time.Duration, calls map[string]int) {
	self, calls = make(map[string]time.Duration), make(map[string]int)
	st := selfTimes(spans)
	for _, s := range spans {
		self[s.Name] += st[s.ID]
		calls[s.Name] += s.Count
	}
	return self, calls
}
