package metrics

import (
	"fmt"
	"slices"
	"strings"
)

// This file is the one merge path of the metrics layer. Registry snapshots,
// recordings and merge results list their series in canonical identity
// order with the identity cached on each series, so folding per-shard
// inputs is a k-way merge over sorted lists: no identity is re-derived, no
// map is built and nothing is sorted. Series with equal identities fold in
// argument order (within one input, in its order), exactly as a fold over
// the inputs one after another would, so float sums keep their bits. Inputs
// without cached identities — a snapshot or recording read back from JSON,
// or built by hand — get them derived, their labels copied and their order
// fixed once, on the way in, and then take the same path.
//
// A series with a cached identity has read-only labels (see Series), so
// the result shares its label map instead of copying it; everything else
// the result holds is its own.

// mergeStep is one input series in the order a k-way merge visits it: its
// input and position, and whether it opens a new output series.
type mergeStep struct {
	in, pos int32
	fresh   bool
}

// mergePlan orders the series of ins, each list sorted by key, into one
// visit sequence: ascending key, ties in argument order and, within one
// input, in input order. It also returns how many distinct keys there are.
// A binary heap of input cursors keeps it O(n log k) for n series over k
// inputs.
func mergePlan[T any](ins [][]T, key func(*T) string) ([]mergeStep, int) {
	total := 0
	for _, in := range ins {
		total += len(in)
	}
	steps := make([]mergeStep, 0, total)
	pos := make([]int, len(ins))
	heap := make([]int, 0, len(ins))
	less := func(a, b int) bool {
		c := strings.Compare(key(&ins[a][pos[a]]), key(&ins[b][pos[b]]))
		return c < 0 || c == 0 && a < b
	}
	down := func(i int) {
		for {
			min := i
			if l := 2*i + 1; l < len(heap) && less(heap[l], heap[min]) {
				min = l
			}
			if r := 2*i + 2; r < len(heap) && less(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i, in := range ins {
		if len(in) > 0 {
			heap = append(heap, i)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	distinct, last := 0, ""
	for len(heap) > 0 {
		i := heap[0]
		k := key(&ins[i][pos[i]])
		fresh := distinct == 0 || k != last
		if fresh {
			distinct, last = distinct+1, k
		}
		steps = append(steps, mergeStep{in: int32(i), pos: int32(pos[i]), fresh: fresh})
		if pos[i]++; pos[i] == len(ins[i]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return steps, distinct
}

// canonical returns in with every identity cached, in identity order: in
// itself when it already is, otherwise a shallow copy in which own gives
// every series without an identity its identity and its own labels, and
// which is stably sorted, so duplicate identities keep their order.
func canonical[T any](in []T, key func(*T) *string, own func(*T)) []T {
	sorted := true
	for i := range in {
		k := *key(&in[i])
		if k == "" || i > 0 && k < *key(&in[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return in
	}
	cp := slices.Clone(in)
	for i := range cp {
		if *key(&cp[i]) == "" {
			own(&cp[i])
		}
	}
	slices.SortStableFunc(cp, func(a, b T) int { return strings.Compare(*key(&a), *key(&b)) })
	return cp
}

// carve copies src to the front of *arena and returns the copy, which
// cannot grow into the rest of the arena. An empty src yields nil, as
// append([]T(nil), src...) would, so merged JSON keeps its nulls.
func carve[T any](arena *[]T, src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	dst := (*arena)[:n:n]
	*arena = (*arena)[n:]
	copy(dst, src)
	return dst
}

// Merge folds snapshots into one: counters and histograms sum, gauges take
// the last snapshot's value (shard order is the caller's deterministic
// order, so merge output is deterministic too). Series present in only some
// snapshots pass through. Mismatched histogram layouts for the same
// identity are a programming error and panic.
//
// Bucket arrays are carved from one arena per merge, so the result pins no
// input's buffers, and merging registry snapshots allocates the same few
// blocks however many series they hold.
func Merge(snaps ...*Snapshot) *Snapshot {
	ins := make([][]Series, 0, len(snaps))
	for _, snap := range snaps {
		if snap != nil {
			ins = append(ins, canonical(snap.Series, func(s *Series) *string { return &s.key }, func(s *Series) {
				s.key, s.Labels = s.id(), cloneLabels(s.Labels)
			}))
		}
	}
	steps, n := mergePlan(ins, func(s *Series) string { return s.key })
	buckets := 0
	for _, st := range steps {
		if st.fresh {
			buckets += len(ins[st.in][st.pos].Buckets)
		}
	}
	arena := make([]Bucket, buckets)
	out := &Snapshot{Series: make([]Series, 0, n)}
	for _, st := range steps {
		sr := &ins[st.in][st.pos]
		if st.fresh {
			cp := *sr
			cp.Buckets = carve(&arena, sr.Buckets)
			out.Series = append(out.Series, cp)
			continue
		}
		prev := &out.Series[len(out.Series)-1]
		switch sr.Type {
		case "counter":
			prev.Value += sr.Value
		case "gauge":
			prev.Value = sr.Value
		case "histogram":
			if len(prev.Buckets) != len(sr.Buckets) {
				panic(fmt.Sprintf("metrics: merge %s: bucket layout mismatch", sr.key))
			}
			prev.Value += sr.Value
			prev.Count += sr.Count
			for j := range prev.Buckets {
				prev.Buckets[j].Count += sr.Buckets[j].Count
			}
		}
	}
	return out
}

// MergeRecordings folds per-shard recordings into one, in argument order:
// counter and histogram deltas sum sample-wise, gauges take the last
// shard's level. All recordings must share the same start, step and
// interval count — they come from shards of one run sampling on the same
// schedule — and mismatches panic like Snapshot merging does. Nil entries
// are skipped; merging nothing returns nil.
//
// Every sample, bound, delta and bucket row is carved from one float and
// one integer arena per merge, so a merged recording that outlives its
// shards pins none of their buffers.
func MergeRecordings(recs ...*Recording) *Recording {
	var out *Recording
	ins := make([][]RecordedSeries, 0, len(recs))
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
		ins = append(ins, canonical(rec.Series, func(s *RecordedSeries) *string { return &s.key }, func(s *RecordedSeries) {
			s.key, s.Labels = s.ID(), cloneLabels(s.Labels)
		}))
	}
	if out == nil {
		return nil
	}
	steps, n := mergePlan(ins, func(s *RecordedSeries) string { return s.key })
	var floats, ints, rows int
	for _, st := range steps {
		if sr := &ins[st.in][st.pos]; st.fresh {
			floats += len(sr.Uppers) + len(sr.Samples) + len(sr.Sums)
			ints += len(sr.CountDeltas)
			rows += len(sr.Buckets)
			for _, row := range sr.Buckets {
				ints += len(row)
			}
		}
	}
	floatArena, intArena, rowArena := make([]float64, floats), make([]uint64, ints), make([][]uint64, rows)
	out.Series = make([]RecordedSeries, 0, n)
	for _, st := range steps {
		sr := &ins[st.in][st.pos]
		if st.fresh {
			cp := *sr
			cp.Uppers = carve(&floatArena, sr.Uppers)
			cp.Samples = carve(&floatArena, sr.Samples)
			cp.Sums = carve(&floatArena, sr.Sums)
			cp.CountDeltas = carve(&intArena, sr.CountDeltas)
			cp.Buckets = rowArena[:len(sr.Buckets):len(sr.Buckets)]
			rowArena = rowArena[len(sr.Buckets):]
			for k, row := range sr.Buckets {
				cp.Buckets[k] = carve(&intArena, row)
			}
			out.Series = append(out.Series, cp)
			continue
		}
		prev := &out.Series[len(out.Series)-1]
		if len(prev.Samples) != len(sr.Samples) {
			panic(fmt.Sprintf("metrics: merge recordings %s: %d vs %d intervals", sr.key, len(prev.Samples), len(sr.Samples)))
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
				panic(fmt.Sprintf("metrics: merge recordings %s: bucket layout mismatch", sr.key))
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
	return out
}
