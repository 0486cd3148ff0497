package metrics

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
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
}

// ID renders the canonical "name{k=v,...}" identity of the series.
func (s *RecordedSeries) ID() string { return mapSeriesID(s.Name, s.Labels) }

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
type Recorder struct {
	reg   *Registry
	rec   *Recording
	next  time.Time
	slots []recSlot
	known map[string]struct{}
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
		reg:   reg,
		rec:   &Recording{Start: start, Step: step},
		next:  start.Add(step),
		known: make(map[string]struct{}),
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

// discover appends a slot and a zero-backfilled series for every
// instrument registered since the last scan, in canonical identity order.
// New series may appear mid-run (e.g. an agent instrumented after a
// restart); the backfill keeps every series on the shared timeline.
func (r *Recorder) discover() {
	n := r.rec.Intervals()
	for _, ins := range r.reg.sorted {
		if _, ok := r.known[ins.id]; ok {
			continue
		}
		r.known[ins.id] = struct{}{}
		rs := RecordedSeries{Name: ins.name, Type: ins.kind.String(), Labels: cloneLabels(ins.labels),
			Samples: make([]float64, n)}
		slot := recSlot{ins: ins, series: len(r.rec.Series)}
		if ins.kind == KindHistogram {
			rs.Uppers = append([]float64(nil), ins.h.uppers...)
			rs.Buckets = make([][]uint64, n)
			for k := range rs.Buckets {
				rs.Buckets[k] = make([]uint64, len(rs.Uppers))
			}
			rs.Sums = make([]float64, n)
			rs.CountDeltas = make([]uint64, n)
			slot.prevCum = make([]uint64, len(rs.Uppers))
		}
		r.rec.Series = append(r.rec.Series, rs)
		r.slots = append(r.slots, slot)
	}
}

// sample appends one interval to every series.
func (r *Recorder) sample() {
	if len(r.reg.byID) != len(r.slots) {
		r.discover()
	}
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
			row := make([]uint64, len(sl.prevCum))
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
	sort.Slice(r.slots, func(i, j int) bool { return r.slots[i].ins.id < r.slots[j].ins.id })
	unsorted := append([]RecordedSeries(nil), r.rec.Series...)
	for i := range r.slots {
		r.rec.Series[i] = unsorted[r.slots[i].series]
		r.slots[i].series = i
	}
	return r.rec
}

// MergeRecordings folds per-shard recordings into one, in argument order:
// counter and histogram deltas sum sample-wise, gauges take the last
// shard's level. All recordings must share the same start, step and
// interval count — they come from shards of one run sampling on the same
// schedule — and mismatches panic like Snapshot merging does. Nil entries
// are skipped; merging nothing returns nil.
func MergeRecordings(recs ...*Recording) *Recording {
	var out *Recording
	merged := make(map[string]*RecordedSeries)
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		if out == nil {
			out = &Recording{Start: rec.Start, Step: rec.Step}
		} else if !rec.Start.Equal(out.Start) || rec.Step != out.Step {
			panic(fmt.Sprintf("metrics: merge recordings: timeline mismatch %v/%v vs %v/%v",
				rec.Start, rec.Step, out.Start, out.Step))
		}
		for i := range rec.Series {
			sr := &rec.Series[i]
			id := sr.ID()
			prev, ok := merged[id]
			if !ok {
				// Deep-copy every reference field — including Labels and
				// Uppers, which a shallow copy would alias. A merged
				// recording that outlives its shards must not pin their
				// backing arrays (the merge result is often retained long
				// after the per-shard recordings are dropped).
				cp := *sr
				cp.Labels = cloneLabels(sr.Labels)
				cp.Uppers = append([]float64(nil), sr.Uppers...)
				cp.Samples = append([]float64(nil), sr.Samples...)
				cp.Sums = append([]float64(nil), sr.Sums...)
				cp.CountDeltas = append([]uint64(nil), sr.CountDeltas...)
				cp.Buckets = make([][]uint64, len(sr.Buckets))
				for k := range sr.Buckets {
					cp.Buckets[k] = append([]uint64(nil), sr.Buckets[k]...)
				}
				merged[id] = &cp
				continue
			}
			if len(prev.Samples) != len(sr.Samples) {
				panic(fmt.Sprintf("metrics: merge recordings %s: %d vs %d intervals", id, len(prev.Samples), len(sr.Samples)))
			}
			switch sr.Type {
			case "counter":
				for k := range prev.Samples {
					prev.Samples[k] += sr.Samples[k]
				}
			case "gauge":
				copy(prev.Samples, sr.Samples)
			case "histogram":
				if len(prev.Uppers) != len(sr.Uppers) {
					panic(fmt.Sprintf("metrics: merge recordings %s: bucket layout mismatch", id))
				}
				for k := range prev.Samples {
					prev.Samples[k] += sr.Samples[k]
					prev.Sums[k] += sr.Sums[k]
					prev.CountDeltas[k] += sr.CountDeltas[k]
					for j := range prev.Buckets[k] {
						prev.Buckets[k][j] += sr.Buckets[k][j]
					}
				}
			}
		}
	}
	if out == nil {
		return nil
	}
	ids := sortedKeys(merged)
	out.Series = make([]RecordedSeries, 0, len(ids))
	for _, id := range ids {
		out.Series = append(out.Series, *merged[id])
	}
	return out
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
