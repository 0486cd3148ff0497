package metrics

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file is the continuous half of the metrics layer: where Snapshot
// freezes a registry once at the end of a run, a Recorder samples it at a
// fixed simulation-time interval and accumulates one time series per metric
// series. The same determinism contract applies: sampling happens on the
// single simulation goroutine at sim-time boundaries, series are keyed and
// sorted by canonical identity, and per-shard recordings merge in
// shard-index order, so the recorded plane is byte-identical for any worker
// count.

// RecordedSeries is one metric series over the recording window.
//
// The per-interval meaning of Samples depends on the instrument:
//   - counter: the per-second rate over the interval (value delta divided
//     by the interval length) — the temporal view of a total;
//   - gauge: the level sampled at the interval's end;
//   - histogram: the per-second observation rate (count delta / interval).
//
// Histograms additionally keep per-interval deltas of every cumulative
// bucket plus the observation sum, which is what lets quantile series be
// computed after merging: bucket deltas sum exactly across shards, where
// pre-computed quantiles would not.
//
// Labels is nil when unlabeled. In a recording taken from a Recorder it is
// the registry's own map, shared read-only like a Snapshot's and kept by
// MergeRecordings the same way: never write to it. Uppers, too, is the
// registry histogram's own until a merge copies it.
type RecordedSeries struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`

	Samples []float64 `json:"samples"`

	// Histogram-only fields. Buckets[i][j] is the interval-i delta of the
	// cumulative count at upper bound Uppers[j]; Sums[i] is the interval-i
	// delta of the observation sum. CountDeltas[i] is the raw (undivided)
	// observation count of interval i.
	Uppers      []float64  `json:"uppers,omitempty"`
	Buckets     [][]uint64 `json:"bucket_deltas,omitempty"`
	Sums        []float64  `json:"sum_deltas,omitempty"`
	CountDeltas []uint64   `json:"count_deltas,omitempty"`

	// key caches the canonical identity of a series recorded from a
	// registry or produced by MergeRecordings, which is why such a series'
	// Name and Labels are read-only. It is empty on a decoded or hand-built
	// series.
	key string
}

// ID returns the canonical "name{k=v,...}" identity of the series, derived
// from its name and labels when it is not cached.
func (s *RecordedSeries) ID() string {
	if s.key != "" {
		return s.key
	}
	return mapSeriesID(s.Name, s.Labels)
}

// Quantile returns the per-interval q-quantile series of a recorded
// histogram, estimated Prometheus-style: linear interpolation inside the
// bucket containing the target rank, with the first bucket anchored at zero
// and ranks beyond the last finite bucket clamped to its upper bound.
// Intervals with no observations yield 0. Returns nil for non-histograms.
func (s *RecordedSeries) Quantile(q float64) []float64 {
	if s.Type != "histogram" {
		return nil
	}
	q = math.Min(math.Max(q, 0), 1)
	out := make([]float64, len(s.Buckets))
	for i, deltas := range s.Buckets {
		total := s.CountDeltas[i]
		if total == 0 {
			continue
		}
		rank := q * float64(total)
		var prevCum uint64
		prevUB := 0.0
		// A rank in the +Inf bucket clamps to the last finite bound.
		out[i] = s.Uppers[len(s.Uppers)-1]
		for j, cum := range deltas {
			if float64(cum) >= rank {
				inBucket := cum - prevCum
				lo, hi := prevUB, s.Uppers[j]
				if inBucket == 0 {
					out[i] = hi
				} else {
					out[i] = lo + (hi-lo)*(rank-float64(prevCum))/float64(inBucket)
				}
				break
			}
			prevCum = cum
			prevUB = s.Uppers[j]
		}
	}
	return out
}

// Recording is a set of recorded series over a shared fixed-interval
// timeline. Series are sorted by canonical identity and every Samples slice
// has the same length, so two recordings of the same run are byte-identical
// however they were sharded.
type Recording struct {
	Start  time.Time        `json:"start"`
	Step   time.Duration    `json:"step"`
	Series []RecordedSeries `json:"series"`
}

// Intervals returns the number of recorded intervals.
func (r *Recording) Intervals() int {
	if len(r.Series) == 0 {
		return 0
	}
	return len(r.Series[0].Samples)
}

// TimeAt returns the start instant of interval i.
func (r *Recording) TimeAt(i int) time.Time {
	return r.Start.Add(time.Duration(i) * r.Step)
}

// Recorder samples a registry into a Recording. Like the registry it is
// single-goroutine: each parallel shard owns its own recorder, and the
// shard recordings are merged afterwards with MergeRecordings.
//
// A sample reads the instrument handles directly. Registries never drop
// instruments, so the recorder keeps one slot per instrument, in step with
// rec.Series, and rescans the registry only when it has grown: a sample is
// one pass over the slots with no sort and no string work.
//
// Every series holds the same number of intervals, so their storage grows
// together: one float block holds every series' samples and sums, one
// integer block their count deltas, one block their bucket-row headers,
// each carved into per-series windows of capacity intervals and regrown,
// all at once, when they fill. Bucket rows are carved from an arena sized
// for the intervals up to the next regrowth.
type Recorder struct {
	reg   *Registry
	rec   *Recording
	next  time.Time
	slots []recSlot
	// samples counts the intervals sampled so far, those taken while the
	// registry was still empty included; capacity is how many intervals
	// every series' windows hold.
	samples, capacity int
	// width is the total bucket count of the recorded histograms, one
	// interval's worth of bucket rows; rows is the arena they come from.
	width int
	rows  []uint64
}

// recSlot is one instrument as the recorder sees it: the handle and its
// reading at the last sample.
type recSlot struct {
	ins       *instrument
	series    int      // index in rec.Series
	prevValue float64  // counter total or histogram sum
	prevCount uint64   // histogram observation count
	prevCum   []uint64 // histogram cumulative bucket counts
}

// NewRecorder starts recording reg on a fixed step. The first sample is
// taken by the first Tick at or after start+step and covers [start,
// start+step); Tick is designed to be called once per simulation tick with
// the current sim time.
func NewRecorder(reg *Registry, start time.Time, step time.Duration) *Recorder {
	if step <= 0 {
		panic(fmt.Sprintf("metrics: non-positive recording step %v", step))
	}
	return &Recorder{
		reg:  reg,
		rec:  &Recording{Start: start, Step: step},
		next: start.Add(step),
	}
}

// Tick samples the registry once for every interval boundary at or before
// now. Call it at the end of each simulation tick; boundaries between calls
// (a coarse-ticked harness) repeat the state observed at the call.
func (r *Recorder) Tick(now time.Time) {
	for !now.Before(r.next) {
		r.sample()
		r.next = r.next.Add(r.rec.Step)
	}
}

// discover appends a slot and a series for every instrument registered
// since the last scan — those whose registration sequence the recorder has
// not reached — in canonical identity order. New series may appear mid-run
// (e.g. an agent instrumented after a restart); the regrowth that follows
// gives them zero-backfilled windows, which keeps every series on the
// shared timeline.
func (r *Recorder) discover() {
	known := len(r.slots)
	r.rec.Series = slices.Grow(r.rec.Series, len(r.reg.sorted)-known)
	r.slots = slices.Grow(r.slots, len(r.reg.sorted)-known)
	cums := make([]uint64, r.reg.buckets-r.width)
	for _, ins := range r.reg.sorted {
		if ins.seq < known {
			continue
		}
		rs := RecordedSeries{Name: ins.name, Type: ins.kind.String(), Labels: ins.labels, key: ins.id}
		slot := recSlot{ins: ins, series: len(r.rec.Series)}
		if ins.kind == KindHistogram {
			w := len(ins.h.uppers)
			rs.Uppers = ins.h.uppers
			slot.prevCum, cums = cums[:w:w], cums[w:]
			r.width += w
		}
		r.rec.Series = append(r.rec.Series, rs)
		r.slots = append(r.slots, slot)
	}
	r.capacity = 0 // the new series have no windows yet
}

// regrow moves every series' n intervals into windows of 2n (at least 8)
// intervals carved from one block per field, gives series discovered since
// the last regrowth n zero intervals, and sizes the row arena for the
// intervals up to the next regrowth.
func (r *Recorder) regrow(n int) {
	capacity := max(8, 2*n)
	var floats, ints, backfill int
	for i := range r.slots {
		floats += capacity
		if r.slots[i].ins.kind == KindHistogram {
			rs := &r.rec.Series[r.slots[i].series]
			floats += capacity
			ints += capacity
			backfill += (n - len(rs.Buckets)) * len(rs.Uppers)
		}
	}
	fb, ib, hb := make([]float64, floats), make([]uint64, ints), make([][]uint64, ints)
	zeros := make([]uint64, backfill)
	for i := range r.slots {
		rs := &r.rec.Series[r.slots[i].series]
		rs.Samples, fb = window(fb, rs.Samples, n, capacity)
		if r.slots[i].ins.kind != KindHistogram {
			continue
		}
		rs.Sums, fb = window(fb, rs.Sums, n, capacity)
		rs.CountDeltas, ib = window(ib, rs.CountDeltas, n, capacity)
		held := len(rs.Buckets)
		rs.Buckets, hb = window(hb, rs.Buckets, n, capacity)
		w := len(rs.Uppers)
		for k := held; k < n; k++ {
			rs.Buckets[k], zeros = zeros[:w:w], zeros[w:]
		}
	}
	r.capacity = capacity
	r.rows = make([]uint64, r.width*(capacity-n))
}

// window carves a window of capacity from the front of block, copies old
// into it and returns it at length n — past old's end, the zeros a series
// discovered late backfills with — together with the rest of block.
func window[T any](block, old []T, n, capacity int) ([]T, []T) {
	w := block[:n:capacity]
	copy(w, old)
	return w, block[capacity:]
}

// sample appends one interval to every series.
func (r *Recorder) sample() {
	if len(r.reg.byID) != len(r.slots) {
		r.discover()
	}
	if r.samples >= r.capacity {
		r.regrow(r.samples)
	}
	r.samples++
	stepSecs := r.rec.Step.Seconds()
	for i := range r.slots {
		sl := &r.slots[i]
		rs := &r.rec.Series[sl.series]
		switch sl.ins.kind {
		case KindCounter:
			v := sl.ins.c.v
			rs.Samples = append(rs.Samples, (v-sl.prevValue)/stepSecs)
			sl.prevValue = v
		case KindGauge:
			rs.Samples = append(rs.Samples, sl.ins.g.v)
		case KindHistogram:
			h := sl.ins.h
			countDelta := h.count - sl.prevCount
			rs.Samples = append(rs.Samples, float64(countDelta)/stepSecs)
			rs.CountDeltas = append(rs.CountDeltas, countDelta)
			rs.Sums = append(rs.Sums, h.sum-sl.prevValue)
			w := len(sl.prevCum)
			row := r.rows[:w:w]
			r.rows = r.rows[w:]
			var cum uint64
			for j := range row {
				cum += h.counts[j]
				row[j] = cum - sl.prevCum[j]
				sl.prevCum[j] = cum
			}
			rs.Buckets = append(rs.Buckets, row)
			sl.prevValue, sl.prevCount = h.sum, h.count
		}
	}
}

// Recording returns the accumulated recording with series sorted by
// canonical identity. The returned value shares storage with the recorder;
// take it once, after the run.
func (r *Recorder) Recording() *Recording {
	if slices.IsSortedFunc(r.rec.Series, func(a, b RecordedSeries) int { return strings.Compare(a.key, b.key) }) {
		return r.rec
	}
	slices.SortFunc(r.slots, func(a, b recSlot) int { return strings.Compare(a.ins.id, b.ins.id) })
	unsorted := slices.Clone(r.rec.Series)
	for i := range r.slots {
		r.rec.Series[i] = unsorted[r.slots[i].series]
		r.slots[i].series = i
	}
	return r.rec
}

// recordingQuantiles are the quantile series exported for each histogram.
var recordingQuantiles = []float64{0.5, 0.99}

// WriteCSV writes the recording in long form, one row per (interval,
// series): interval start (RFC 3339), series identity, sample kind and
// value. Counters appear as `rate` rows, gauges as `level`, histograms as a
// `rate` row (observations/second) plus one `p50`/`p99` row each. Output is
// byte-deterministic: series are sorted and floats use shortest-exact
// formatting.
func (r *Recording) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "series", "kind", "value"}); err != nil {
		return err
	}
	n := r.Intervals()
	// Precompute histogram quantiles once per series, not per interval.
	type qset struct {
		name string
		vals []float64
	}
	quantiles := make(map[int][]qset)
	ids := make([]string, len(r.Series))
	for si := range r.Series {
		sr := &r.Series[si]
		ids[si] = sr.ID()
		if sr.Type != "histogram" {
			continue
		}
		var qs []qset
		for _, q := range recordingQuantiles {
			qs = append(qs, qset{
				name: "p" + strconv.Itoa(int(q*100)),
				vals: sr.Quantile(q),
			})
		}
		quantiles[si] = qs
	}
	for i := 0; i < n; i++ {
		ts := r.TimeAt(i).UTC().Format(time.RFC3339)
		for si := range r.Series {
			sr, id := &r.Series[si], ids[si]
			kind := "level"
			if sr.Type != "gauge" {
				kind = "rate"
			}
			if err := cw.Write([]string{ts, id, kind, formatFloat(sr.Samples[i])}); err != nil {
				return err
			}
			for _, qs := range quantiles[si] {
				if err := cw.Write([]string{ts, id, qs.name, formatFloat(qs.vals[i])}); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the recording as indented JSON, suitable for
// `socmetrics series` and ReadRecording.
func (r *Recording) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadRecording parses a recording previously written by WriteJSON. It
// rejects a recording whose shape the exporters could not index.
func ReadRecording(rd io.Reader) (*Recording, error) {
	var r Recording
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("metrics: decode recording: %w", err)
	}
	for i := range r.Series {
		if err := r.Series[i].checkShape(r.Intervals()); err != nil {
			return nil, fmt.Errorf("metrics: decode recording: series %s: %w", r.Series[i].ID(), err)
		}
	}
	return &r, nil
}

// checkShape reports why s cannot sit on an n-interval timeline, or nil.
func (s *RecordedSeries) checkShape(n int) error {
	switch {
	case s.Type != "counter" && s.Type != "gauge" && s.Type != "histogram":
		return fmt.Errorf("unknown type %q", s.Type)
	case len(s.Samples) != n:
		return fmt.Errorf("%d samples, want %d", len(s.Samples), n)
	case s.Type != "histogram":
		return nil
	case len(s.Uppers) == 0:
		return errors.New("histogram without buckets")
	case len(s.Buckets) != n || len(s.Sums) != n || len(s.CountDeltas) != n:
		return fmt.Errorf("histogram rows %d/%d/%d, want %d", len(s.Buckets), len(s.Sums), len(s.CountDeltas), n)
	}
	for j := 1; j < len(s.Uppers); j++ {
		if !(s.Uppers[j] > s.Uppers[j-1]) {
			return errors.New("histogram buckets not strictly ascending")
		}
	}
	for k, row := range s.Buckets {
		if len(row) != len(s.Uppers) {
			return fmt.Errorf("interval %d has %d buckets, want %d", k, len(row), len(s.Uppers))
		}
	}
	return nil
}
