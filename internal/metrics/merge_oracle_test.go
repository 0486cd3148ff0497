package metrics

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// oracleMerge is the map-based snapshot merge the k-way Merge replaced,
// kept verbatim except that it derives every identity from the name and
// labels, so it trusts no cached identity.
func oracleMerge(snaps ...*Snapshot) *Snapshot {
	merged := make(map[string]*Series)
	for _, snap := range snaps {
		if snap == nil {
			continue
		}
		for i := range snap.Series {
			sr := snap.Series[i]
			id := mapSeriesID(sr.Name, sr.Labels)
			prev, ok := merged[id]
			if !ok {
				cp := sr
				cp.Labels = cloneLabels(sr.Labels)
				cp.Buckets = append([]Bucket(nil), sr.Buckets...)
				merged[id] = &cp
				continue
			}
			switch sr.Type {
			case "counter":
				prev.Value += sr.Value
			case "gauge":
				prev.Value = sr.Value
			case "histogram":
				if len(prev.Buckets) != len(sr.Buckets) {
					panic(fmt.Sprintf("metrics: merge %s: bucket layout mismatch", id))
				}
				prev.Value += sr.Value
				prev.Count += sr.Count
				for j := range prev.Buckets {
					prev.Buckets[j].Count += sr.Buckets[j].Count
				}
			}
		}
	}
	ids := sortedKeys(merged)
	out := &Snapshot{Series: make([]Series, 0, len(ids))}
	for _, id := range ids {
		out.Series = append(out.Series, *merged[id])
	}
	return out
}

// oracleMergeRecordings is the map-based recording merge the k-way
// MergeRecordings replaced, kept verbatim except that it derives every
// identity from the name and labels.
func oracleMergeRecordings(recs ...*Recording) *Recording {
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
			id := mapSeriesID(sr.Name, sr.Labels)
			prev, ok := merged[id]
			if !ok {
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

// mergeProgram draws one shard's instruments from small pools, so shards
// overlap on some identities, and from a shard-only label, so they also
// hold series no other shard has. Every name has one kind and one bucket
// layout across shards, as in a real run.
type mergeProgram struct {
	rng   *rand.Rand
	shard int
}

var oracleNames = []struct {
	name string
	kind Kind
}{
	{"a_total", KindCounter}, {"b_total", KindCounter}, {"level", KindGauge},
	{"lat", KindHistogram}, {"util", KindHistogram}, {"z_total", KindCounter},
}

// labels returns a random label set: maybe none, maybe shard-only, with
// keys given out of order.
func (p mergeProgram) labels() []Label {
	var ls []Label
	if p.rng.Intn(4) > 0 {
		ls = append(ls, L("server", fmt.Sprint("s", p.rng.Intn(3))))
	}
	if p.rng.Intn(3) == 0 {
		ls = append(ls, L("shard", fmt.Sprint(p.shard)))
	}
	if p.rng.Intn(3) == 0 {
		ls = append(ls, L("class", []string{"High", "Low"}[p.rng.Intn(2)]))
	}
	return ls
}

// buckets is the layout of a histogram name.
func oracleBuckets(name string) []float64 {
	if name == "lat" {
		return LatencyBuckets
	}
	return FractionBuckets
}

// run registers and drives a random set of instruments on reg, recording
// the registry every interval into rec when rec is set.
func (p mergeProgram) run(reg *Registry, rec *Recorder, intervals int) {
	for step := 0; step <= intervals; step++ {
		for op := p.rng.Intn(12); op > 0; op-- {
			n := oracleNames[p.rng.Intn(len(oracleNames))]
			v := p.rng.Float64() * 10
			switch n.kind {
			case KindCounter:
				reg.Counter(n.name, p.labels()...).Add(v)
			case KindGauge:
				reg.Gauge(n.name, p.labels()...).Set(v)
			case KindHistogram:
				reg.Histogram(n.name, oracleBuckets(n.name), p.labels()...).Observe(v / 5)
			}
		}
		if rec != nil && step < intervals {
			rec.Tick(t0.Add(time.Duration(step+1) * time.Minute))
		}
	}
}

// scrambled returns a hand-built copy of series without cached
// identities, in random order and with some series given twice, so
// duplicate identities fall into one input.
func scrambled[T any](rng *rand.Rand, series []T, clear func(*T)) []T {
	out := make([]T, 0, len(series)+2)
	for _, s := range series {
		clear(&s)
		out = append(out, s)
		if rng.Intn(5) == 0 {
			out = append(out, s)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// oracleSnapshot draws one input of the snapshot merge: nil, a registry
// snapshot, its JSON round trip or a scrambled hand-built copy.
func oracleSnapshot(t *testing.T, rng *rand.Rand, shard int) *Snapshot {
	if rng.Intn(8) == 0 {
		return nil
	}
	reg := NewRegistry()
	mergeProgram{rng, shard}.run(reg, nil, 0)
	snap := reg.Snapshot()
	switch rng.Intn(3) {
	case 1:
		var b bytes.Buffer
		if err := snap.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		read, err := ReadSnapshot(&b)
		if err != nil {
			t.Fatal(err)
		}
		return read
	case 2:
		return &Snapshot{Series: scrambled(rng, snap.Series, func(s *Series) { s.key = "" })}
	}
	return snap
}

// oracleRecording draws one input of the recording merge: nil, a recorder's
// recording, its JSON round trip or a scrambled hand-built copy.
func oracleRecording(t *testing.T, rng *rand.Rand, shard, intervals int) *Recording {
	if rng.Intn(8) == 0 {
		return nil
	}
	reg := NewRegistry()
	rec := NewRecorder(reg, t0, time.Minute)
	mergeProgram{rng, shard}.run(reg, rec, intervals)
	r := rec.Recording()
	switch rng.Intn(3) {
	case 1:
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		read, err := ReadRecording(&b)
		if err != nil {
			t.Fatal(err)
		}
		return read
	case 2:
		return &Recording{Start: r.Start, Step: r.Step,
			Series: scrambled(rng, r.Series, func(s *RecordedSeries) { s.key = "" })}
	}
	return r
}

// TestMergeMatchesOracle runs seeded random programs over disjoint and
// overlapping shards — nil inputs, gauges, histograms, decoded and
// unsorted hand-built inputs, duplicate identities within one input — and
// requires the k-way Merge and MergeRecordings to write exactly the JSON
// the map-based oracles write, for the shards and for a merge of merges.
func TestMergeMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := rng.Intn(6)
		intervals := rng.Intn(4)
		snaps := make([]*Snapshot, shards)
		recs := make([]*Recording, shards)
		for i := range snaps {
			snaps[i] = oracleSnapshot(t, rng, i)
			recs[i] = oracleRecording(t, rng, i, intervals)
		}
		if g, w := snapshotJSON(t, Merge(snaps...)), snapshotJSON(t, oracleMerge(snaps...)); g != w {
			t.Fatalf("seed %d: Merge\n%s\nwant\n%s", seed, g, w)
		}
		if g, w := recordingOrNil(t, MergeRecordings(recs...)), recordingOrNil(t, oracleMergeRecordings(recs...)); g != w {
			t.Fatalf("seed %d: MergeRecordings\n%s\nwant\n%s", seed, g, w)
		}
		half := shards / 2
		again := Merge(Merge(snaps[:half]...), Merge(snaps[half:]...))
		want := oracleMerge(oracleMerge(snaps[:half]...), oracleMerge(snaps[half:]...))
		if g, w := snapshotJSON(t, again), snapshotJSON(t, want); g != w {
			t.Fatalf("seed %d: merge of merges\n%s\nwant\n%s", seed, g, w)
		}
		againRec := MergeRecordings(MergeRecordings(recs[:half]...), MergeRecordings(recs[half:]...))
		wantRec := oracleMergeRecordings(oracleMergeRecordings(recs[:half]...), oracleMergeRecordings(recs[half:]...))
		if g, w := recordingOrNil(t, againRec), recordingOrNil(t, wantRec); g != w {
			t.Fatalf("seed %d: recording merge of merges\n%s\nwant\n%s", seed, g, w)
		}
	}
}

// recordingOrNil renders a merged recording's JSON, or <nil>.
func recordingOrNil(t *testing.T, r *Recording) string {
	if r == nil {
		return "<nil>"
	}
	return recordingJSON(t, r)
}
