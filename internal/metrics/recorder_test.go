package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Find returns the recorded series with the given name and labels, or nil.
func (r *Recording) Find(name string, labels map[string]string) *RecordedSeries {
	id := mapSeriesID(name, labels)
	for i := range r.Series {
		if r.Series[i].ID() == id {
			return &r.Series[i]
		}
	}
	return nil
}

// WattBuckets spans server and rack draws in watts.
var WattBuckets = []float64{100, 200, 400, 800, 1600, 3200, 6400, 12800}

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestRecorderCounterRates pins the temporal semantics of counters: each
// interval records the per-second rate of the delta, not the running total.
func TestRecorderCounterRates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total")
	rec := NewRecorder(reg, t0, 10*time.Second)

	c.Add(5)
	rec.Tick(t0.Add(10 * time.Second)) // interval 0: 5 in 10s = 0.5/s
	c.Add(20)
	rec.Tick(t0.Add(20 * time.Second)) // interval 1: 20 in 10s = 2/s
	rec.Tick(t0.Add(30 * time.Second)) // interval 2: idle = 0/s

	r := rec.Recording()
	s := r.Find("reqs_total", nil)
	if s == nil {
		t.Fatal("series missing")
	}
	want := []float64{0.5, 2, 0}
	if len(s.Samples) != len(want) {
		t.Fatalf("samples = %v, want %v", s.Samples, want)
	}
	for i, w := range want {
		if s.Samples[i] != w {
			t.Errorf("interval %d: rate = %v, want %v", i, s.Samples[i], w)
		}
	}
}

// TestRecorderGaugeLevels pins gauge semantics: the level at each interval
// boundary, including repeats when the harness ticks coarser than the
// recording step.
func TestRecorderGaugeLevels(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("power_watts")
	rec := NewRecorder(reg, t0, 10*time.Second)

	g.Set(100)
	rec.Tick(t0.Add(10 * time.Second))
	g.Set(250)
	// One coarse tick spanning two boundaries: both sample the same level.
	rec.Tick(t0.Add(30 * time.Second))

	s := rec.Recording().Find("power_watts", nil)
	want := []float64{100, 250, 250}
	for i, w := range want {
		if s.Samples[i] != w {
			t.Errorf("interval %d: level = %v, want %v", i, s.Samples[i], w)
		}
	}
}

// TestRecorderHistogramQuantiles pins the per-interval quantile estimation:
// bucket deltas per interval, Prometheus-style interpolation, clamping at
// the top finite bound, and zeros for empty intervals.
func TestRecorderHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", []float64{1, 2, 4})
	rec := NewRecorder(reg, t0, 10*time.Second)

	// Interval 0: 4 obs spread evenly through (0,1] and (1,2].
	h.Observe(0.5)
	h.Observe(1.0)
	h.Observe(1.5)
	h.Observe(2.0)
	rec.Tick(t0.Add(10 * time.Second))
	// Interval 1: empty.
	rec.Tick(t0.Add(20 * time.Second))
	// Interval 2: everything beyond the last finite bucket.
	h.Observe(100)
	h.Observe(200)
	rec.Tick(t0.Add(30 * time.Second))

	s := rec.Recording().Find("lat_seconds", nil)
	if s == nil {
		t.Fatal("series missing")
	}
	// Observation rates: 4/10s, 0, 2/10s.
	wantRates := []float64{0.4, 0, 0.2}
	for i, w := range wantRates {
		if s.Samples[i] != w {
			t.Errorf("interval %d: obs rate = %v, want %v", i, s.Samples[i], w)
		}
	}
	p50 := s.Quantile(0.5)
	// Interval 0: rank 2 of 4 falls exactly at the first bucket's
	// cumulative count → interpolates to its upper bound 1.
	if p50[0] != 1 {
		t.Errorf("interval 0 p50 = %v, want 1", p50[0])
	}
	if p50[1] != 0 {
		t.Errorf("empty interval p50 = %v, want 0", p50[1])
	}
	// Interval 2: all mass in +Inf; clamp to last finite bound.
	if p50[2] != 4 {
		t.Errorf("+Inf interval p50 = %v, want 4 (clamped)", p50[2])
	}
	if got := s.Quantile(0.99)[2]; got != 4 {
		t.Errorf("+Inf interval p99 = %v, want 4 (clamped)", got)
	}
}

// TestRecorderMidRunSeries pins zero-backfill: a series first touched in a
// later interval still spans the full timeline.
func TestRecorderMidRunSeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("early_total").Inc()
	rec := NewRecorder(reg, t0, time.Second)
	rec.Tick(t0.Add(time.Second))

	// New series appears after the first interval (e.g. a component booted
	// mid-run by the chaos harness).
	reg.Counter("late_total").Add(2)
	rec.Tick(t0.Add(2 * time.Second))

	r := rec.Recording()
	late := r.Find("late_total", nil)
	if late == nil {
		t.Fatal("late series missing")
	}
	want := []float64{0, 2}
	for i, w := range want {
		if late.Samples[i] != w {
			t.Errorf("late interval %d = %v, want %v", i, late.Samples[i], w)
		}
	}
	if n := r.Intervals(); n != 2 {
		t.Fatalf("intervals = %d, want 2", n)
	}
	// Sorted by canonical identity.
	if r.Series[0].Name != "early_total" || r.Series[1].Name != "late_total" {
		t.Errorf("series not sorted: %s, %s", r.Series[0].Name, r.Series[1].Name)
	}
}

// TestRecorderCountsEmptySamples pins the timeline of a recorder whose
// registry is empty at its first samples: those samples are intervals too,
// so a series registered after them is zero-backfilled over them, sits on
// the right instants and merges with a shard that recorded from the start.
func TestRecorderCountsEmptySamples(t *testing.T) {
	const empty = 2
	reg := NewRegistry()
	rec := NewRecorder(reg, t0, time.Second)
	rec.Tick(t0.Add(empty * time.Second))
	c := reg.Counter("work_total", L("shard", "s"))
	h := reg.Histogram("dist", []float64{1, 10})
	c.Add(5)
	h.Observe(3)
	rec.Tick(t0.Add(3 * time.Second))

	r := rec.Recording()
	if n := r.Intervals(); n != empty+1 {
		t.Fatalf("intervals = %d, want %d samples", n, empty+1)
	}
	if got := r.Find("work_total", map[string]string{"shard": "s"}).Samples; !slices.Equal(got, []float64{0, 0, 5}) {
		t.Errorf("late counter samples = %v, want [0 0 5]", got)
	}
	if got := r.Find("dist", nil).Quantile(0.5); !slices.Equal(got, []float64{0, 0, 5.5}) {
		t.Errorf("late histogram p50 = %v, want [0 0 5.5]", got)
	}
	merged := MergeRecordings(shardRecording(1), r)
	if got := merged.Find("work_total", map[string]string{"shard": "s"}).Samples; !slices.Equal(got, []float64{1, 2, 8}) {
		t.Errorf("merged counter samples = %v, want [1 2 8]", got)
	}
}

// shardRecording simulates one shard's workload: a counter, a labeled
// gauge, and a histogram ticked over three intervals.
func shardRecording(shard int) *Recording {
	reg := NewRegistry()
	c := reg.Counter("work_total", L("shard", "s")) // same identity across shards
	g := reg.Gauge("level")
	h := reg.Histogram("dist", []float64{1, 10})
	rec := NewRecorder(reg, t0, time.Second)
	for i := 0; i < 3; i++ {
		c.Add(float64(shard + i))
		g.Set(float64(10*shard + i))
		h.Observe(float64(shard))
		rec.Tick(t0.Add(time.Duration(i+1) * time.Second))
	}
	return rec.Recording()
}

// TestMergeRecordings pins shard-order merge semantics: counters and
// histogram deltas sum sample-wise, gauges take the last shard's level.
func TestMergeRecordings(t *testing.T) {
	a, b := shardRecording(1), shardRecording(2)
	m := MergeRecordings(a, b)
	c := m.Find("work_total", map[string]string{"shard": "s"})
	// Interval i: (1+i) + (2+i) per second.
	want := []float64{3, 5, 7}
	for i, w := range want {
		if c.Samples[i] != w {
			t.Errorf("merged counter interval %d = %v, want %v", i, c.Samples[i], w)
		}
	}
	g := m.Find("level", nil)
	// Gauge: last shard (shard 2) wins.
	wantG := []float64{20, 21, 22}
	for i, w := range wantG {
		if g.Samples[i] != w {
			t.Errorf("merged gauge interval %d = %v, want %v", i, g.Samples[i], w)
		}
	}
	h := m.Find("dist", nil)
	for i := range h.CountDeltas {
		if h.CountDeltas[i] != 2 {
			t.Errorf("merged histogram interval %d count = %d, want 2", i, h.CountDeltas[i])
		}
	}

	// Byte-determinism of the merged export: merge order only affects
	// gauges, which we re-merge in the same order here.
	var b1, b2 bytes.Buffer
	if err := MergeRecordings(a, b).WriteCSV(&b1); err != nil {
		t.Fatal(err)
	}
	if err := MergeRecordings(shardRecording(1), shardRecording(2)).WriteCSV(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("merged CSV not reproducible")
	}
}

// TestMergeRecordingsTimelineMismatch pins that shards recording on
// different schedules are a programming error.
func TestMergeRecordingsTimelineMismatch(t *testing.T) {
	a := shardRecording(1)
	reg := NewRegistry()
	rec := NewRecorder(reg, t0, 2*time.Second)
	rec.Tick(t0.Add(2 * time.Second))
	b := rec.Recording()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on timeline mismatch")
		}
	}()
	MergeRecordings(a, b)
}

// TestMergeRecordingsIntervalMismatch pins the second mismatch class: same
// timeline, but one shard sampled more intervals than the other — a sign
// the harness ticked the shards unevenly, never a recoverable state.
func TestMergeRecordingsIntervalMismatch(t *testing.T) {
	a := shardRecording(1) // 3 intervals

	reg := NewRegistry()
	reg.Counter("work_total", L("shard", "s")).Add(1)
	rec := NewRecorder(reg, t0, time.Second)
	rec.Tick(t0.Add(time.Second)) // 1 interval, same start/step
	b := rec.Recording()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on interval-count mismatch")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "intervals") {
			t.Errorf("panic %q should name the interval mismatch", msg)
		}
	}()
	MergeRecordings(a, b)
}

// TestMergeRecordingsEmptyShards pins the degenerate inputs: merging
// nothing (or only nils) is nil, and a shard that recorded no series — an
// idle worker — merges as a no-op rather than poisoning the timeline.
func TestMergeRecordingsEmptyShards(t *testing.T) {
	if m := MergeRecordings(); m != nil {
		t.Errorf("merge of nothing = %+v, want nil", m)
	}
	if m := MergeRecordings(nil, nil); m != nil {
		t.Errorf("merge of nils = %+v, want nil", m)
	}

	empty := &Recording{Start: t0, Step: time.Second}
	a := shardRecording(1)
	m := MergeRecordings(empty, a, nil, empty)
	if m == nil {
		t.Fatal("merge with empty shards = nil")
	}
	if len(m.Series) != len(a.Series) {
		t.Fatalf("merged series = %d, want %d", len(m.Series), len(a.Series))
	}
	c := m.Find("work_total", map[string]string{"shard": "s"})
	if c == nil || c.Samples[0] != a.Find("work_total", map[string]string{"shard": "s"}).Samples[0] {
		t.Error("empty shards must not perturb the survivor's samples")
	}

	// An empty first shard must still pin the timeline for mismatch checks.
	late := &Recording{Start: t0.Add(time.Hour), Step: time.Second}
	defer func() {
		if recover() == nil {
			t.Error("expected panic: empty first recording still fixes the timeline")
		}
	}()
	MergeRecordings(empty, late, a)
}

// TestMergeRecordingsSingleSampleHistogram pins the smallest histogram
// case end to end: one interval, one observation per shard, merged and
// exported. Quantiles interpolate inside the only populated bucket and the
// CSV export stays byte-deterministic.
func TestMergeRecordingsSingleSampleHistogram(t *testing.T) {
	shard := func(v float64) *Recording {
		reg := NewRegistry()
		reg.Histogram("lat", []float64{1, 2, 4}).Observe(v)
		rec := NewRecorder(reg, t0, time.Second)
		rec.Tick(t0.Add(time.Second))
		return rec.Recording()
	}

	single := shard(0.5)
	s := single.Find("lat", nil)
	if s.CountDeltas[0] != 1 {
		t.Fatalf("single-sample count = %d, want 1", s.CountDeltas[0])
	}
	// Rank 0.5 of 1 observation interpolates to half the (0,1] bucket.
	if got := s.Quantile(0.5)[0]; got != 0.5 {
		t.Errorf("single-sample p50 = %v, want 0.5", got)
	}
	if got := s.Quantile(1)[0]; got != 1 {
		t.Errorf("single-sample p100 = %v, want bucket bound 1", got)
	}

	m := MergeRecordings(single, shard(3))
	ms := m.Find("lat", nil)
	if ms.CountDeltas[0] != 2 {
		t.Fatalf("merged count = %d, want 2", ms.CountDeltas[0])
	}
	// One obs in (0,1], one in (2,4]: rank 1 lands exactly on the first
	// bucket's cumulative count → its upper bound.
	if got := ms.Quantile(0.5)[0]; got != 1 {
		t.Errorf("merged p50 = %v, want 1", got)
	}

	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"time,series,kind,value",
		"2026-01-01T00:00:00Z,lat{},rate,2",
		"2026-01-01T00:00:00Z,lat{},p50,1",
		"2026-01-01T00:00:00Z,lat{},p99,3.96",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("CSV mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRecordingRoundTrip pins WriteJSON/ReadRecording as a lossless pair.
func TestRecordingRoundTrip(t *testing.T) {
	orig := shardRecording(3)
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := orig.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("round trip changed recording:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !got.Start.Equal(orig.Start) || got.Step != orig.Step {
		t.Errorf("timeline lost: %v/%v vs %v/%v", got.Start, got.Step, orig.Start, orig.Step)
	}
}

// TestRecordingWriteCSV pins the long-format layout and deterministic
// series ordering, including quantile rows for histograms.
func TestRecordingWriteCSV(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(10)
	reg.Gauge("b_level").Set(7)
	reg.Histogram("c_dist", []float64{1, 2}).Observe(1.5)
	rec := NewRecorder(reg, t0, 10*time.Second)
	rec.Tick(t0.Add(10 * time.Second))
	var buf bytes.Buffer
	if err := rec.Recording().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"time,series,kind,value",
		"2026-01-01T00:00:00Z,a_total{},rate,1",
		"2026-01-01T00:00:00Z,b_level{},level,7",
		"2026-01-01T00:00:00Z,c_dist{},rate,0.1",
		"2026-01-01T00:00:00Z,c_dist{},p50,1.5",
		"2026-01-01T00:00:00Z,c_dist{},p99,1.99",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("CSV mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLockedRegistry exercises the concurrent wrapper under the race
// detector: parallel writers plus a scraper.
func TestLockedRegistry(t *testing.T) {
	lk := NewLocked()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg := lk.Lock()
				reg.Counter("ops_total").Inc()
				lk.Unlock()
				lk.Do(func(r *Registry) { r.Gauge("depth").Set(float64(j)) })
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			lk.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := lk.Snapshot()
	if got := snap.SumByName("ops_total"); got != 400 {
		t.Errorf("ops_total = %v, want 400", got)
	}
}

// snapshotDiffRecorder is the sampler Recorder replaced: every sample takes
// a full Registry.Snapshot and diffs it against the previous one by
// identity. It lives only here, as the oracle the in-place recorder must
// match byte for byte.
type snapshotDiffRecorder struct {
	reg     *Registry
	rec     *Recording
	next    time.Time
	prev    *Snapshot
	index   map[string]int
	samples int // intervals sampled, empty-registry samples included
}

func newSnapshotDiffRecorder(reg *Registry, start time.Time, step time.Duration) *snapshotDiffRecorder {
	return &snapshotDiffRecorder{reg: reg, rec: &Recording{Start: start, Step: step},
		next: start.Add(step), prev: &Snapshot{}, index: make(map[string]int)}
}

func (r *snapshotDiffRecorder) Tick(now time.Time) {
	for !now.Before(r.next) {
		r.sample()
		r.next = r.next.Add(r.rec.Step)
	}
}

func (r *snapshotDiffRecorder) sample() {
	snap := r.reg.Snapshot()
	n := r.samples
	r.samples++
	stepSecs := r.rec.Step.Seconds()
	prevByID := make(map[string]*Series, len(r.prev.Series))
	for i := range r.prev.Series {
		prevByID[r.prev.Series[i].id()] = &r.prev.Series[i]
	}
	for i := range snap.Series {
		sr := &snap.Series[i]
		id := sr.id()
		slot, ok := r.index[id]
		if !ok {
			rs := RecordedSeries{Name: sr.Name, Type: sr.Type, Labels: sr.Labels, Samples: make([]float64, n)}
			if sr.Type == "histogram" {
				for _, b := range sr.Buckets {
					rs.Uppers = append(rs.Uppers, b.LE)
				}
				rs.Buckets = make([][]uint64, n)
				for k := range rs.Buckets {
					rs.Buckets[k] = make([]uint64, len(rs.Uppers))
				}
				rs.Sums = make([]float64, n)
				rs.CountDeltas = make([]uint64, n)
			}
			slot = len(r.rec.Series)
			r.rec.Series = append(r.rec.Series, rs)
			r.index[id] = slot
		}
		rs := &r.rec.Series[slot]
		prev := prevByID[id]
		switch sr.Type {
		case "counter":
			base := 0.0
			if prev != nil {
				base = prev.Value
			}
			rs.Samples = append(rs.Samples, (sr.Value-base)/stepSecs)
		case "gauge":
			rs.Samples = append(rs.Samples, sr.Value)
		case "histogram":
			var baseCount uint64
			baseSum := 0.0
			if prev != nil {
				baseCount, baseSum = prev.Count, prev.Value
			}
			countDelta := sr.Count - baseCount
			rs.Samples = append(rs.Samples, float64(countDelta)/stepSecs)
			rs.CountDeltas = append(rs.CountDeltas, countDelta)
			rs.Sums = append(rs.Sums, sr.Value-baseSum)
			row := make([]uint64, len(rs.Uppers))
			for j := range rs.Uppers {
				row[j] = sr.Buckets[j].Count
				if prev != nil {
					row[j] -= prev.Buckets[j].Count
				}
			}
			rs.Buckets = append(rs.Buckets, row)
		}
	}
	r.prev = snap
}

func (r *snapshotDiffRecorder) Recording() *Recording {
	sort.Slice(r.rec.Series, func(i, j int) bool { return r.rec.Series[i].ID() < r.rec.Series[j].ID() })
	for i := range r.rec.Series {
		r.index[r.rec.Series[i].ID()] = i
	}
	return r.rec
}

// recordingJSON renders rec as WriteJSON does.
func recordingJSON(t testing.TB, rec *Recording) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRecorderMatchesSnapshotDiff runs seeded random programs against the
// in-place recorder and the snapshot-diff oracle sharing one registry:
// counter adds, gauge sets and histogram observes (the +Inf bucket
// included), registrations and re-registrations between samples, coarse
// ticks spanning several boundaries, and ticks after a mid-run Recording.
// Every Recording must be byte-equal JSON.
func TestRecorderMatchesSnapshotDiff(t *testing.T) {
	layouts := [][]float64{{1, 2, 4}, {0.5}, WattBuckets}
	labelKeys := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		step := time.Duration(1+rng.Intn(60)) * time.Second
		got, want := NewRecorder(reg, t0, step), newSnapshotDiffRecorder(reg, t0, step)
		var counters []*Counter
		var gauges []*Gauge
		var hists []*Histogram
		now := t0
		compare := func(when string) {
			if g, w := recordingJSON(t, got.Recording()), recordingJSON(t, want.Recording()); g != w {
				t.Fatalf("seed %d, %s: recorder diverges from snapshot diff:\n--- got ---\n%s--- want ---\n%s", seed, when, g, w)
			}
		}
		for op := 0; op < 250; op++ {
			switch k := rng.Intn(12); {
			case k < 3:
				var ls []Label
				for _, i := range rng.Perm(len(labelKeys))[:rng.Intn(len(labelKeys)+1)] {
					ls = append(ls, L(labelKeys[i], strconv.Itoa(rng.Intn(2))))
				}
				name := rng.Intn(len(layouts))
				switch rng.Intn(3) {
				case 0:
					counters = append(counters, reg.Counter(fmt.Sprintf("c%d_total", name), ls...))
				case 1:
					gauges = append(gauges, reg.Gauge(fmt.Sprintf("g%d", name), ls...))
				default:
					hists = append(hists, reg.Histogram(fmt.Sprintf("h%d", name), layouts[name], ls...))
				}
			case k < 5 && len(counters) > 0:
				counters[rng.Intn(len(counters))].Add(float64(rng.Intn(5)) + rng.Float64())
			case k < 6 && len(gauges) > 0:
				gauges[rng.Intn(len(gauges))].Set(rng.NormFloat64() * 1e3)
			case k < 8 && len(hists) > 0:
				h := hists[rng.Intn(len(hists))]
				top := h.uppers[len(h.uppers)-1]
				if rng.Intn(4) == 0 {
					h.Observe(h.uppers[rng.Intn(len(h.uppers))]) // exactly on a bound
				} else {
					h.Observe(rng.Float64() * 2 * top) // up to half in +Inf
				}
			case k < 11:
				// Anywhere from inside the current interval to four boundaries on.
				now = now.Add(time.Duration(rng.Int63n(int64(4 * step))))
				got.Tick(now)
				want.Tick(now)
			default:
				if rng.Intn(4) == 0 {
					compare(fmt.Sprintf("mid-run at op %d", op))
				}
			}
		}
		now = now.Add(2 * step)
		got.Tick(now)
		want.Tick(now)
		compare("end of run")
	}
}

// TestRecorderSampleAllocs guards the per-sample cost on a steady registry
// shaped like one fleet shard: bucket rows come from the recorder's arena
// and every series' storage regrows together, so a sample allocates only
// its amortized share of the doubling regrowths.
func TestRecorderSampleAllocs(t *testing.T) {
	const counters, histograms = 405, 31
	reg := NewRegistry()
	labels := func(i int) []Label {
		return []Label{L("class", "web"), L("system", "smartoclock"), L("rack", "r0"), L("server", strconv.Itoa(i))}
	}
	cs := make([]*Counter, counters)
	for i := range cs {
		cs[i] = reg.Counter(fmt.Sprintf("soa_event_%d_total", i%27), labels(i/27)...)
	}
	for i := 0; i < histograms; i++ {
		reg.Histogram(fmt.Sprintf("draw_%d_watts", i), WattBuckets, labels(i)...).Observe(float64(i * 100))
	}
	rec := NewRecorder(reg, t0, time.Hour)
	now := t0
	sample := func() {
		cs[int(now.Sub(t0).Hours())%counters].Inc()
		now = now.Add(time.Hour)
		rec.Tick(now)
	}
	sample() // the first sample discovers every series
	if allocs := testing.AllocsPerRun(1000, sample); allocs > 1 {
		t.Errorf("sample allocates %v times, want <= 1", allocs)
	}
}

// badHistogramRecording is a 2-interval recording whose histogram carries a
// single count delta: before decoding validated shapes, `socmetrics series`
// panicked on it in Quantile.
const badHistogramRecording = `{"start":"2026-01-01T00:00:00Z","step":1000000000,"series":[
{"name":"lat","type":"histogram","samples":[1,0],"uppers":[1,2],
"bucket_deltas":[[1,1],[0,0]],"sum_deltas":[0.5,0],"count_deltas":[1]}]}`

// TestReadRecordingRejectsBadShape pins decode-time validation: every shape
// the exporters index by is checked, and a consistent recording passes.
func TestReadRecordingRejectsBadShape(t *testing.T) {
	hist := func(fields string) string {
		return `{"start":"2026-01-01T00:00:00Z","step":1000000000,"series":[
{"name":"lat","type":"histogram","samples":[1,0],` + fields + `}]}`
	}
	cases := []struct {
		name, in, wantErr string
	}{
		{"short count deltas", badHistogramRecording, "histogram rows 2/2/1, want 2"},
		{"unknown type", `{"series":[{"name":"x","type":"summary","samples":[1]}]}`, `unknown type "summary"`},
		{"series off the timeline", `{"series":[{"name":"a","type":"counter","samples":[1,2]},
{"name":"b","type":"gauge","samples":[1]}]}`, "1 samples, want 2"},
		{"no buckets", hist(`"bucket_deltas":[[],[]],"sum_deltas":[0,0],"count_deltas":[1,0]`), "without buckets"},
		{"equal bounds", hist(`"uppers":[1,1],"bucket_deltas":[[1,1],[0,0]],"sum_deltas":[0,0],"count_deltas":[1,0]`), "not strictly ascending"},
		{"descending bounds", hist(`"uppers":[2,1],"bucket_deltas":[[1,1],[0,0]],"sum_deltas":[0,0],"count_deltas":[1,0]`), "not strictly ascending"},
		{"short sums", hist(`"uppers":[1,2],"bucket_deltas":[[1,1],[0,0]],"sum_deltas":[0],"count_deltas":[1,0]`), "histogram rows 2/1/2"},
		{"short bucket row", hist(`"uppers":[1,2],"bucket_deltas":[[1,1],[0]],"sum_deltas":[0,0],"count_deltas":[1,0]`), "interval 1 has 1 buckets, want 2"},
		{"consistent", hist(`"uppers":[1,2],"bucket_deltas":[[1,1],[0,0]],"sum_deltas":[0.5,0],"count_deltas":[1,0]`), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := ReadRecording(strings.NewReader(tc.in))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("consistent recording rejected: %v", err)
				}
				if err := rec.WriteCSV(io.Discard); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzReadRecording holds decoding to its promise: an accepted recording
// writes back as JSON that reads to the same recording, and exports as CSV
// without panicking.
func FuzzReadRecording(f *testing.F) {
	var seed bytes.Buffer
	if err := shardRecording(2).WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(badHistogramRecording))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := recordingJSON(t, rec)
		back, err := ReadRecording(strings.NewReader(first))
		if err != nil {
			t.Fatalf("written recording rejected: %v\n%s", err, first)
		}
		if again := recordingJSON(t, back); again != first {
			t.Fatalf("round trip changed the recording:\n%s\nvs\n%s", first, again)
		}
		if err := rec.WriteCSV(io.Discard); err != nil {
			t.Fatalf("CSV export of accepted recording: %v", err)
		}
	})
}
