package causal

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func TestSourceDeterministicAndStreamed(t *testing.T) {
	a1 := NewSource(42, 0)
	a2 := NewSource(42, 0)
	b := NewSource(42, 1)
	c := NewSource(43, 0)
	for i := 0; i < 100; i++ {
		x := a1.Next()
		if x == 0 {
			t.Fatalf("draw %d: zero span", i)
		}
		if y := a2.Next(); y != x {
			t.Fatalf("draw %d: same (seed,stream) diverged: %v vs %v", i, x, y)
		}
		if y := b.Next(); y == x {
			t.Fatalf("draw %d: stream 1 collided with stream 0", i)
		}
		if y := c.Next(); y == x {
			t.Fatalf("draw %d: seed 43 collided with seed 42", i)
		}
	}
}

func TestSpanRoundTrip(t *testing.T) {
	src := NewSource(7, 3)
	for i := 0; i < 10; i++ {
		id := src.Next()
		got, err := ParseSpan(id.String())
		if err != nil {
			t.Fatalf("parse %q: %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("round trip %v -> %q -> %v", id, id.String(), got)
		}
	}
	if _, err := ParseSpan(""); err == nil {
		t.Fatal("empty span parsed")
	}
	if _, err := ParseSpan("zz zz"); err == nil {
		t.Fatal("garbage span parsed")
	}
	if got, err := ParseSpan("255"); err != nil || got != 0x255 {
		// hex wins for ambiguous digit strings, matching String output
		t.Fatalf("ParseSpan(255) = %v, %v", got, err)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if got := r.Emit(Record{Site: "x"}); got != 0 {
		t.Fatalf("nil Emit = %v", got)
	}
	if r.Dropped() != 0 || r.Records() != nil {
		t.Fatal("nil recorder holds state")
	}
}

func TestEmitAssignsAndKeepsSpans(t *testing.T) {
	r := NewRecorder(1, 0)
	auto := r.Emit(Record{Time: t0, Site: "a", Verdict: "ok"})
	if auto == 0 {
		t.Fatal("auto span is zero")
	}
	pre := SpanID(0xABC)
	kept := r.Emit(Record{Span: pre, Time: t0, Site: "b", Verdict: "ok"})
	if kept != pre {
		t.Fatalf("explicit span replaced: %v vs %v", kept, pre)
	}
	recs := r.Records()
	if len(recs) != 2 || recs[0].Span != auto || recs[1].Span != pre {
		t.Fatalf("records = %+v", recs)
	}
}

func TestBoundedRecorderRing(t *testing.T) {
	r := NewBounded(1, 0, 3)
	var spans []SpanID
	for i := 0; i < 5; i++ {
		spans = append(spans, r.Emit(Record{Time: t0.Add(time.Duration(i) * time.Minute), Site: "s"}))
	}
	if n := len(r.Records()); n != 3 {
		t.Fatalf("held = %d", n)
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d", r.Dropped())
	}
	recs := r.Records()
	for i, want := range spans[2:] {
		if recs[i].Span != want {
			t.Fatalf("record %d span = %v, want %v", i, recs[i].Span, want)
		}
	}
}

func buildChainLog() *Log {
	return &Log{Records: buildChainRecorder().Records()}
}

// buildChainRecorder emits buildChainLog's records into a fresh recorder.
func buildChainRecorder() *Recorder {
	r := NewRecorder(9, 0)
	req := r.Emit(Record{Time: t0, Kind: KindMessage, Component: "wi", Site: "wi.request", Subject: "vm-1", Verdict: "sent"})
	grant := r.Emit(Record{Time: t0, Parent: req, Kind: KindDecision, Component: "soa", Site: "soa.admit", Subject: "vm-1", Verdict: "grant"})
	r.Emit(Record{Time: t0.Add(time.Minute), Parent: grant, Kind: KindDecision, Component: "soa", Site: "soa.session", Subject: "vm-1", Verdict: "stop"})
	r.Emit(Record{Time: t0, Kind: KindDecision, Component: "rack", Site: "rack.cap", Verdict: "cap"})
	return r
}

func TestChainAndChildren(t *testing.T) {
	l := buildChainLog()
	leaf := l.Records[2].Span
	chain := l.Chain(leaf)
	if len(chain) != 3 {
		t.Fatalf("chain len = %d, want 3", len(chain))
	}
	if chain[0].Site != "soa.session" || chain[1].Site != "soa.admit" || chain[2].Site != "wi.request" {
		t.Fatalf("chain order = %s %s %s", chain[0].Site, chain[1].Site, chain[2].Site)
	}
	kids := l.Children(l.Records[0].Span)
	if len(kids) != 1 || kids[0].Site != "soa.admit" {
		t.Fatalf("children = %+v", kids)
	}
	if l.Find(0) != nil || len(l.Chain(0)) != 0 {
		t.Fatal("zero span resolved")
	}
}

func TestChainCycleTerminates(t *testing.T) {
	l := &Log{Records: []Record{
		{Span: 1, Parent: 2, Site: "a"},
		{Span: 2, Parent: 1, Site: "b"},
	}}
	if got := len(l.Chain(1)); got != 2 {
		t.Fatalf("cycle chain len = %d", got)
	}
	st := l.Stats()
	if st.MaxDepth < 1 || st.MaxDepth > 2 {
		t.Fatalf("cycle stats depth = %d", st.MaxDepth)
	}
}

func TestStats(t *testing.T) {
	l := buildChainLog()
	st := l.Stats()
	if st.Decisions != 3 || st.Messages != 1 {
		t.Fatalf("decisions/messages = %d/%d", st.Decisions, st.Messages)
	}
	if st.MaxDepth != 3 {
		t.Fatalf("max depth = %d", st.MaxDepth)
	}
	if st.DeepSpan != l.Records[2].Span {
		t.Fatalf("deep span = %v", st.DeepSpan)
	}
	if st.Ticks != 2 || st.MaxTick != 3 || st.MeanTick != 2 {
		t.Fatalf("ticks = %d maxtick = %d meantick = %v", st.Ticks, st.MaxTick, st.MeanTick)
	}
	if (&Log{}).Stats() != (Stats{}) {
		t.Fatal("empty log stats nonzero")
	}
}

func TestWriteReadRoundTripAndDeterminism(t *testing.T) {
	l := buildChainLog()
	var b1, b2 bytes.Buffer
	if err := l.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two writes of the same log differ")
	}
	if strings.Contains(b1.String(), `>`) {
		t.Fatal("HTML escaping leaked into the log")
	}
	back, err := ReadLog(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("round trip len %d vs %d", back.Len(), l.Len())
	}
	for i := range l.Records {
		if back.Records[i].Span != l.Records[i].Span || back.Records[i].Site != l.Records[i].Site {
			t.Fatalf("record %d changed in round trip", i)
		}
	}
}

// TestAppendSinceMatchesRecordsTail pins the incremental read path against
// Records: for every seen count, AppendSince returns exactly the held
// records emitted after the first seen, oldest first — the last
// min(Total-seen, Len) records of Records(). Bursts of random size drive
// bounded rings across several wraps; an unbounded and a nil recorder
// ride along.
func TestAppendSinceMatchesRecordsTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 3, 64, 0} {
		r := NewRecorder(1, 0)
		if capacity > 0 {
			r = NewBounded(1, 0, capacity)
		}
		limit := 5*max(capacity, 8) + 7
		for r.Total() < uint64(limit) {
			for n := rng.Intn(max(capacity, 8)/2 + 2); n > 0; n-- {
				r.Emit(Record{Time: t0, Site: "s", Verdict: "v"})
			}
			checkAppendSince(t, capacity, r)
		}
		if capacity > 0 && r.Dropped() == 0 {
			t.Fatalf("capacity %d: ring never wrapped", capacity)
		}
	}
	var nilRec *Recorder
	if nilRec.Total() != 0 || nilRec.AppendSince(nil, 0) != nil {
		t.Fatal("nil recorder must have nothing to append")
	}
}

func checkAppendSince(t *testing.T, capacity int, r *Recorder) {
	t.Helper()
	recs := r.Records()
	total := r.Total()
	if total != uint64(len(recs))+r.Dropped() {
		t.Fatalf("capacity %d: Total %d != held %d + dropped %d", capacity, total, len(recs), r.Dropped())
	}
	prefix := []Record{{Site: "prefix"}}
	for seen := uint64(0); seen <= total+1; seen++ {
		fresh := min(total-min(seen, total), uint64(len(recs)))
		want := recs[uint64(len(recs))-fresh:]
		got := r.AppendSince(prefix[:1:1], seen)
		if len(got) != 1+len(want) || got[0].Site != "prefix" {
			t.Fatalf("capacity %d total %d seen %d: got %d records after the prefix, want %d",
				capacity, total, seen, len(got)-1, len(want))
		}
		for i := range want {
			if got[1+i].Span != want[i].Span {
				t.Fatalf("capacity %d total %d seen %d: record %d is span %v, want %v",
					capacity, total, seen, i, got[1+i].Span, want[i].Span)
			}
		}
	}
}
