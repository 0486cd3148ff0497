package metrics

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The golden tests snapshot the exposition formats byte-for-byte: any
// change to series ordering, float formatting or label escaping shows up as
// a readable diff against testdata/. Regenerate intentionally with:
//
//	go test ./internal/metrics -run Golden -update

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update if the change is intended):\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

// goldenRegistry builds a registry covering every instrument kind, labeled
// and unlabeled series, label escaping and non-integer floats.
func goldenRegistry() *Registry {
	r := NewRegistry()
	// Registered deliberately out of lexical order: the snapshot must sort.
	r.Counter("soa_rejects_total", L("server", "srv-1"), L("reason", "power")).Add(7)
	r.Counter("soa_rejects_total", L("server", "srv-0"), L("reason", "lifetime")).Add(2)
	r.Gauge("rack_power_watts", L("rack", "rack-0")).Set(1234.5625)
	r.Gauge("unlabeled_gauge").Set(0.30000000000000004) // classic float artifact
	r.Counter("escaped_total", L("path", `a\b"c`+"\n")).Inc()
	h := r.Histogram("rack_utilization", FractionBuckets, L("rack", "rack-0"))
	for _, v := range []float64{0.1, 0.55, 0.72, 0.91, 0.97, 1.2} {
		h.Observe(v)
	}
	return r
}

func TestWritePromGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.prom.golden", b.String())
}

func TestWriteJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json.golden", b.String())
}

func TestSnapshotOrderIndependent(t *testing.T) {
	// Same state, reversed registration order: identical bytes.
	a := goldenRegistry().Snapshot()
	r := NewRegistry()
	h := r.Histogram("rack_utilization", FractionBuckets, L("rack", "rack-0"))
	for _, v := range []float64{0.1, 0.55, 0.72, 0.91, 0.97, 1.2} {
		h.Observe(v)
	}
	r.Counter("escaped_total", L("path", `a\b"c`+"\n")).Inc()
	r.Gauge("unlabeled_gauge").Set(0.30000000000000004)
	r.Gauge("rack_power_watts", L("rack", "rack-0")).Set(1234.5625)
	r.Counter("soa_rejects_total", L("reason", "lifetime"), L("server", "srv-0")).Add(2)
	r.Counter("soa_rejects_total", L("reason", "power"), L("server", "srv-1")).Add(7)
	b := r.Snapshot()

	var wa, wb strings.Builder
	if err := a.WriteProm(&wa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteProm(&wb); err != nil {
		t.Fatal(err)
	}
	if wa.String() != wb.String() {
		t.Errorf("registration order changed exposition bytes:\n--- a ---\n%s\n--- b ---\n%s", wa.String(), wb.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	var b strings.Builder
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 strings.Builder
	if err := back.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("JSON round trip is not byte-stable")
	}
}

func TestMergeSemantics(t *testing.T) {
	mk := func(counter, gauge float64, obsv []float64) *Snapshot {
		r := NewRegistry()
		r.Counter("c_total").Add(counter)
		r.Gauge("g").Set(gauge)
		h := r.Histogram("h", []float64{1, 10})
		for _, v := range obsv {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := mk(3, 100, []float64{0.5, 5})
	b := mk(4, 200, []float64{20})
	m := Merge(a, nil, b)

	if got := m.Find("c_total", nil).Value; got != 7 {
		t.Errorf("merged counter = %v, want 7 (sum)", got)
	}
	if got := m.Find("g", nil).Value; got != 200 {
		t.Errorf("merged gauge = %v, want 200 (last)", got)
	}
	h := m.Find("h", nil)
	if h.Count != 3 || h.Value != 25.5 {
		t.Errorf("merged histogram count/sum = %d/%v, want 3/25.5", h.Count, h.Value)
	}
	if h.Buckets[0].Count != 1 || h.Buckets[1].Count != 2 {
		t.Errorf("merged cumulative buckets = %+v, want 1, 2", h.Buckets)
	}
}

func TestMergeDisjointSeriesPassThrough(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Counter("only_a_total").Add(1)
	rb.Counter("only_b_total").Add(2)
	m := Merge(ra.Snapshot(), rb.Snapshot())
	if m.Find("only_a_total", nil) == nil || m.Find("only_b_total", nil) == nil {
		t.Fatal("series present in one snapshot must pass through the merge")
	}
	if len(m.Series) != 2 {
		t.Fatalf("merged %d series, want 2", len(m.Series))
	}
}

func TestMergeLayoutMismatchPanics(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Histogram("h", []float64{1, 2})
	rb.Histogram("h", []float64{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched histogram layouts did not panic")
		}
	}()
	Merge(ra.Snapshot(), rb.Snapshot())
}

func TestSumByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", L("s", "a")).Add(1)
	r.Counter("x_total", L("s", "b")).Add(2)
	r.Counter("y_total").Add(100)
	if got := r.Snapshot().SumByName("x_total"); got != 3 {
		t.Fatalf("SumByName = %v, want 3", got)
	}
}

func TestDiff(t *testing.T) {
	mk := func(c float64, obsv int) *Snapshot {
		r := NewRegistry()
		r.Counter("c_total", L("s", "a")).Add(c)
		h := r.Histogram("h", []float64{1})
		for i := 0; i < obsv; i++ {
			h.Observe(0.5)
		}
		return r.Snapshot()
	}
	before, after := mk(3, 1), mk(10, 4)
	// A series only in after.
	after.Series = append(after.Series, Series{Name: "new_total", Type: "counter", Value: 5})

	entries := Diff(before, after)
	byName := map[string]DiffEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	if e := byName["c_total"]; e.Before != 3 || e.After != 10 || e.Delta != 7 {
		t.Errorf("counter diff = %+v, want 3 -> 10 (Δ7)", e)
	}
	if e := byName["h"]; e.Before != 1 || e.After != 4 || e.Delta != 3 {
		t.Errorf("histogram diff compares counts: %+v, want 1 -> 4 (Δ3)", e)
	}
	if e := byName["new_total"]; e.Before != 0 || e.Delta != 5 {
		t.Errorf("one-sided diff = %+v, want 0 -> 5", e)
	}
	if e := byName["c_total"]; e.Labels != `{s="a"}` {
		t.Errorf("rendered labels = %q", e.Labels)
	}
}

// sortedSnapshot is Registry.Snapshot as it was before the registry kept
// its instruments in identity order: sort every id, then build a fresh
// label map and bucket slice per series. It lives only here, as the oracle
// the one-pass snapshot must match byte for byte.
func sortedSnapshot(r *Registry) *Snapshot {
	ids := sortedKeys(r.byID)
	snap := &Snapshot{Series: make([]Series, 0, len(ids))}
	for _, id := range ids {
		ins := r.byID[id]
		s := Series{Name: ins.name, Type: ins.kind.String(), Labels: cloneLabels(ins.labels)}
		switch ins.kind {
		case KindCounter:
			s.Value = ins.c.v
		case KindGauge:
			s.Value = ins.g.v
		case KindHistogram:
			h := ins.h
			s.Value = h.sum
			s.Count = h.count
			s.Buckets = make([]Bucket, len(h.uppers))
			var cum uint64
			for i, ub := range h.uppers {
				cum += h.counts[i]
				s.Buckets[i] = Bucket{LE: ub, Count: cum}
			}
		}
		snap.Series = append(snap.Series, s)
	}
	return snap
}

// snapshotJSON renders snap as WriteJSON does.
func snapshotJSON(t testing.TB, snap *Snapshot) string {
	t.Helper()
	var b strings.Builder
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSnapshotMatchesSortedOracle runs seeded random programs of
// registrations (in random order, with label lists permuted), repeat
// registrations, counter adds, gauge sets and histogram observes, taking
// snapshots along the way. Every snapshot must be byte-equal JSON to the
// sort-everything oracle, carry exactly the labels each series was
// registered with, and stay unchanged by everything the program does after
// it was taken — its label maps are the registry's, shared read-only.
func TestSnapshotMatchesSortedOracle(t *testing.T) {
	layouts := [][]float64{{1, 2, 4}, {0.5}, WattBuckets}
	labelKeys := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		var counters []*Counter
		var gauges []*Gauge
		var hists []*Histogram
		registered := map[string]map[string]string{} // identity → labels
		type taken struct {
			snap *Snapshot
			json string
		}
		var snaps []taken
		check := func(when string) {
			got := reg.Snapshot()
			g, w := snapshotJSON(t, got), snapshotJSON(t, sortedSnapshot(reg))
			if g != w {
				t.Fatalf("seed %d, %s: snapshot diverges from the sorted oracle:\n--- got ---\n%s--- want ---\n%s", seed, when, g, w)
			}
			if len(got.Series) != len(registered) {
				t.Fatalf("seed %d, %s: %d series, registered %d identities", seed, when, len(got.Series), len(registered))
			}
			for _, sr := range got.Series {
				want, ok := registered[sr.id()]
				if !ok || len(sr.Labels) != len(want) {
					t.Fatalf("seed %d, %s: series %s has labels %v, registered %v", seed, when, sr.Name, sr.Labels, want)
				}
				for k, v := range want {
					if sr.Labels[k] != v {
						t.Fatalf("seed %d, %s: series %s has labels %v, registered %v", seed, when, sr.Name, sr.Labels, want)
					}
				}
			}
			snaps = append(snaps, taken{got, g})
		}
		for op := 0; op < 200; op++ {
			switch k := rng.Intn(10); {
			case k < 3:
				var ls []Label
				want := map[string]string{}
				for _, i := range rng.Perm(len(labelKeys))[:rng.Intn(len(labelKeys)+1)] {
					ls = append(ls, L(labelKeys[i], strconv.Itoa(rng.Intn(3))))
					want[labelKeys[i]] = ls[len(ls)-1].Value
				}
				name := rng.Intn(len(layouts))
				var id string
				switch rng.Intn(3) {
				case 0:
					id = fmt.Sprintf("c%d_total", name)
					counters = append(counters, reg.Counter(id, ls...))
				case 1:
					id = fmt.Sprintf("g%d", name)
					gauges = append(gauges, reg.Gauge(id, ls...))
				default:
					id = fmt.Sprintf("h%d", name)
					hists = append(hists, reg.Histogram(id, layouts[name], ls...))
				}
				registered[mapSeriesID(id, want)] = want
			case k < 5 && len(counters) > 0:
				counters[rng.Intn(len(counters))].Add(float64(rng.Intn(5)) + rng.Float64())
			case k < 6 && len(gauges) > 0:
				gauges[rng.Intn(len(gauges))].Set(rng.NormFloat64() * 1e3)
			case k < 8 && len(hists) > 0:
				h := hists[rng.Intn(len(hists))]
				h.Observe(rng.Float64() * 2 * h.uppers[len(h.uppers)-1]) // up to half in +Inf
			case k < 9:
				check(fmt.Sprintf("op %d", op))
			}
		}
		check("end of program")
		for i, s := range snaps {
			if g := snapshotJSON(t, s.snap); g != s.json {
				t.Fatalf("seed %d: snapshot %d changed after it was taken:\n--- now ---\n%s--- then ---\n%s", seed, i, g, s.json)
			}
		}
	}
}

// TestSnapshotAllocs guards the snapshot cost on a registry shaped like the
// live plane's: it must not grow with the number of series or histograms.
// A snapshot makes three allocations: the Snapshot, its Series slice and
// one bucket array the histograms share.
func TestSnapshotAllocs(t *testing.T) {
	const counters, gauges, histograms = 300, 60, 12
	reg := NewRegistry()
	for i := 0; i < counters; i++ {
		reg.Counter(fmt.Sprintf("event_%d_total", i%20), L("server", strconv.Itoa(i/20)), L("node", "soa")).Inc()
	}
	for i := 0; i < gauges; i++ {
		reg.Gauge("budget_watts", L("server", strconv.Itoa(i))).Set(float64(i))
	}
	for i := 0; i < histograms; i++ {
		reg.Histogram("frame_bytes", ByteBuckets, L("peer", strconv.Itoa(i))).Observe(float64(i * 100))
	}
	allocs := testing.AllocsPerRun(200, func() { _ = reg.Snapshot() })
	if allocs > 3 {
		t.Errorf("Snapshot allocates %v times, want <= 3", allocs)
	}
}

// TestRegisterAllocs guards registration, which every instrumented agent
// pays per series at setup: resolving a registered 5-label counter again
// allocates nothing, and a new one whose label set the registry already
// holds allocates its identity and its instrument, which holds the
// counter, plus the amortized growth of the registry's index.
func TestRegisterAllocs(t *testing.T) {
	reg := NewRegistry()
	labels := []Label{L("system", "smartoclock"), L("class", "web"), L("server", "s0"), L("rack", "r0"), L("reason", "power")}
	reg.Counter("soa_rejects_total", labels...)
	if a := testing.AllocsPerRun(1000, func() { reg.Counter("soa_rejects_total", labels...) }); a != 0 {
		t.Errorf("re-registering a 5-label counter allocates %v times, want 0", a)
	}
	names := make([]string, 1001)
	for i := range names {
		names[i] = fmt.Sprintf("soa_event_%04d_total", i)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() { reg.Counter(names[i], labels...); i++ }); a > 3 {
		t.Errorf("registering a new 5-label counter allocates %v times, want <= 3", a)
	}
}

// TestMergeAllocs guards the shard merge: merging k registry snapshots
// allocates a fixed handful of blocks — the plan, the output and one bucket
// arena — however many series each input holds.
func TestMergeAllocs(t *testing.T) {
	snaps := func(series int) []*Snapshot {
		out := make([]*Snapshot, 4)
		for s := range out {
			reg := NewRegistry()
			for i := 0; i < series; i++ {
				ls := []Label{L("shard", strconv.Itoa(s)), L("server", strconv.Itoa(i/8))}
				reg.Counter(fmt.Sprintf("c%d_total", i%8), ls...).Add(float64(i))
				if i%8 == 0 {
					reg.Histogram("h", FractionBuckets, ls...).Observe(0.5)
				}
			}
			out[s] = reg.Snapshot()
		}
		return out
	}
	var allocs []float64
	for _, series := range []int{16, 512} {
		in := snaps(series)
		allocs = append(allocs, testing.AllocsPerRun(20, func() { Merge(in...) }))
	}
	if allocs[0] != allocs[1] || allocs[1] > 8 {
		t.Errorf("merging 4 snapshots of 16 and 512 series allocates %v times, want the same <= 8", allocs)
	}
}
