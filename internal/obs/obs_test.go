package obs

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Component: SOA, Kind: "reject"}) // must not panic
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be empty")
	}
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Fatal("nil tracer must write nothing")
	}
	tr.Append(New()) // no-op, must not panic
}

func TestEmitOrderPreserved(t *testing.T) {
	tr := New()
	for i, k := range []string{"a", "b", "c"} {
		tr.Emit(Event{Time: t0.Add(time.Duration(i) * time.Second), Component: Rack, Kind: k})
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Kind != "a" || evs[2].Kind != "c" {
		t.Fatalf("events out of order: %+v", evs)
	}
}

func TestFilteredTracer(t *testing.T) {
	tr := NewTracer(0, Rack, Invariant)
	tr.Emit(Event{Component: Rack, Kind: "cap"})
	tr.Emit(Event{Component: SOA, Kind: "reject"}) // filtered out
	tr.Emit(Event{Component: Invariant, Kind: "violation"})
	if tr.Len() != 2 {
		t.Fatalf("filtered tracer recorded %d events, want 2", tr.Len())
	}
	counts := map[Component]int{}
	for _, ev := range tr.Events() {
		counts[ev.Component]++
	}
	if counts[Rack] != 1 || counts[Invariant] != 1 || counts[SOA] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestParseComponents(t *testing.T) {
	got, err := ParseComponents(" soa, rack ,alert,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Component{SOA, Rack, Alert}
	if len(got) != len(want) {
		t.Fatalf("ParseComponents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseComponents = %v, want %v", got, want)
		}
	}
	if _, err := ParseComponents("soa,bogus"); err == nil {
		t.Fatal("unknown component accepted")
	}
	if got, err := ParseComponents(""); err != nil || got != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
}

func TestConcatShardOrder(t *testing.T) {
	a, b := New(), New()
	a.Emit(Event{Time: t0, Component: SOA, Kind: "from-a"})
	b.Emit(Event{Time: t0, Component: SOA, Kind: "from-b"})
	merged := Concat(a, nil, b)
	evs := merged.Events()
	if len(evs) != 2 || evs[0].Kind != "from-a" || evs[1].Kind != "from-b" {
		t.Fatalf("concat order wrong: %+v", evs)
	}
}

func TestBoundedTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Time: t0.Add(time.Duration(i) * time.Second), Component: Rack, Kind: string(rune('a' + i))})
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].Kind != "c" || evs[1].Kind != "d" || evs[2].Kind != "e" {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], `"kind":"c"`) {
		t.Fatalf("JSONL not in oldest-first order:\n%s", b.String())
	}
}

func TestBoundedAppend(t *testing.T) {
	dst := NewTracer(2)
	src := New()
	for _, k := range []string{"x", "y", "z"} {
		src.Emit(Event{Component: GOA, Kind: k})
	}
	dst.Append(src)
	if dst.Len() != 2 || dst.Dropped() != 1 {
		t.Fatalf("Len/Dropped = %d/%d, want 2/1", dst.Len(), dst.Dropped())
	}
	if evs := dst.Events(); evs[0].Kind != "y" || evs[1].Kind != "z" {
		t.Fatalf("append kept wrong window: %+v", evs)
	}
}

func TestEventSpanFieldsOmittedWhenZero(t *testing.T) {
	tr := New()
	tr.Emit(Event{Time: t0, Component: SOA, Kind: "grant"})
	tr.Emit(Event{Time: t0, Component: SOA, Kind: "grant", Span: 7, Parent: 3})
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if strings.Contains(lines[0], "span") || strings.Contains(lines[0], "parent") {
		t.Fatalf("zero span leaked into JSON: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"span":7`) || !strings.Contains(lines[1], `"parent":3`) {
		t.Fatalf("span fields missing: %s", lines[1])
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	mk := func() string {
		tr := New()
		tr.Emit(Event{Time: t0, Component: GOA, Kind: "budget", Source: "goa", Target: "srv-0", Value: 512.25})
		tr.Emit(Event{Time: t0.Add(time.Minute), Component: Chaos, Kind: "crash", Target: "soa-1", Detail: "plan"})
		var b strings.Builder
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := mk()
	for i := 0; i < 3; i++ {
		if got := mk(); got != first {
			t.Fatalf("JSONL output varies across writes:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, `"component":"goa"`) || !strings.Contains(first, `"value":512.25`) {
		t.Fatalf("unexpected encoding:\n%s", first)
	}
	// Zero-valued optional fields stay omitted to keep traces compact.
	if strings.Contains(first, `"detail":""`) || strings.Contains(strings.Split(first, "\n")[1], `"value"`) {
		t.Fatalf("omitempty fields leaked:\n%s", first)
	}
	if lines := strings.Count(first, "\n"); lines != 2 {
		t.Fatalf("want one line per event, got %d lines", lines)
	}
}

// TestAppendSinceMatchesEventsTail pins the incremental read path against
// Events: for every seen count, AppendSince returns exactly the held events
// recorded after the first seen, oldest first — the last
// min(Total-seen, Len) events of Events() — on bounded rings across several
// wraps, an unbounded tracer and a nil one.
func TestAppendSinceMatchesEventsTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 3, 64, 0} {
		tr := NewTracer(capacity)
		limit := 5*max(capacity, 8) + 7
		for emitted := 0; emitted < limit; {
			for n := rng.Intn(max(capacity, 8)/2 + 2); n > 0; n-- {
				tr.Emit(Event{Time: t0, Component: SOA, Kind: "k", Value: float64(emitted)})
				emitted++
			}
			evs := tr.Events()
			total := tr.Total()
			if total != uint64(emitted) || total != uint64(len(evs))+tr.Dropped() {
				t.Fatalf("capacity %d: Total %d, emitted %d, held %d + dropped %d",
					capacity, total, emitted, len(evs), tr.Dropped())
			}
			for seen := uint64(0); seen <= total+1; seen++ {
				fresh := min(total-min(seen, total), uint64(len(evs)))
				want := evs[uint64(len(evs))-fresh:]
				got := tr.AppendSince(nil, seen)
				if len(got) != len(want) {
					t.Fatalf("capacity %d total %d seen %d: %d events, want %d", capacity, total, seen, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("capacity %d total %d seen %d: event %d = %v, want %v", capacity, total, seen, i, got[i].Value, want[i].Value)
					}
				}
			}
		}
	}
	var nilTr *Tracer
	if nilTr.Total() != 0 || nilTr.AppendSince(nil, 0) != nil {
		t.Fatal("nil tracer must have nothing to append")
	}
}
