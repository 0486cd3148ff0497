package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/store"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestRingTail(t *testing.T) {
	r := NewRing(3)
	if got := r.Tail(5); len(got) != 0 {
		t.Fatalf("empty ring tail = %v", got)
	}
	for i := 0; i < 5; i++ {
		r.Append(obs.Event{Kind: fmt.Sprintf("e%d", i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len=%d, want 3", r.Len())
	}
	got := r.Tail(10)
	want := []string{"e2", "e3", "e4"}
	if len(got) != len(want) {
		t.Fatalf("tail = %+v, want %v", got, want)
	}
	for i, w := range want {
		if got[i].Kind != w {
			t.Errorf("tail[%d] = %s, want %s", i, got[i].Kind, w)
		}
	}
	if got := r.Tail(2); len(got) != 2 || got[0].Kind != "e3" || got[1].Kind != "e4" {
		t.Errorf("tail(2) = %+v, want e3,e4", got)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(4)
	r.Append(obs.Event{Kind: "a"}, obs.Event{Kind: "b"})
	got := r.Tail(10)
	if len(got) != 2 || got[0].Kind != "a" || got[1].Kind != "b" {
		t.Fatalf("partial tail = %+v", got)
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(16)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t)

	// Empty until the harness publishes.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || body != "" {
		t.Fatalf("pre-publish /metrics = %d %q", code, body)
	}

	reg := metrics.NewRegistry()
	reg.Counter("rack_cap_events_total", metrics.L("rack", "r0")).Add(3)
	reg.Gauge("rack_power_watts", metrics.L("rack", "r0")).Set(6400)
	s.PublishSnapshot(reg.Snapshot())

	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"# TYPE rack_cap_events_total counter",
		`rack_cap_events_total{rack="r0"} 3`,
		`rack_power_watts{rack="r0"} 6400`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestStatez(t *testing.T) {
	s, ts := newTestServer(t)

	// Before any publish the zero StateInfo serves: no checkpoint path, zero
	// writes.
	code, body := get(t, ts.URL+"/statez")
	if code != http.StatusOK {
		t.Fatalf("pre-publish /statez status = %d", code)
	}
	var zero store.StateInfo
	if err := json.Unmarshal([]byte(body), &zero); err != nil {
		t.Fatalf("pre-publish /statez not JSON: %v\n%s", err, body)
	}
	if zero.Writes != 0 || zero.CheckpointPath != "" {
		t.Fatalf("pre-publish state = %+v, want zero", zero)
	}

	want := store.StateInfo{
		CheckpointPath: "/var/run/soc/state.json",
		LastSavedAt:    t0.Add(5 * time.Minute),
		LastBytes:      4096,
		Writes:         7,
		RestoredFrom:   "/var/run/soc/old.json",
		RestoredAt:     t0,
	}
	s.PublishState(want)

	code, body = get(t, ts.URL+"/statez")
	if code != http.StatusOK {
		t.Fatalf("/statez status = %d", code)
	}
	var got store.StateInfo
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/statez not JSON: %v\n%s", err, body)
	}
	if got != want {
		t.Fatalf("/statez = %+v, want %+v", got, want)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestTraceTail(t *testing.T) {
	s, ts := newTestServer(t)
	var events []obs.Event
	for i := 0; i < 20; i++ {
		events = append(events, obs.Event{
			Time:      t0.Add(time.Duration(i) * time.Second),
			Component: obs.Rack, Kind: "cap", Value: float64(i),
		})
	}
	s.PublishEvents(events)

	// Default n=100 clamps to the ring capacity (16).
	code, body := get(t, ts.URL+"/trace/tail")
	if code != http.StatusOK {
		t.Fatalf("/trace/tail status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 16 {
		t.Fatalf("tail lines = %d, want ring cap 16", len(lines))
	}
	if !strings.Contains(lines[len(lines)-1], `"value":19`) {
		t.Errorf("last tail line is not the newest event: %s", lines[len(lines)-1])
	}

	code, body = get(t, ts.URL+"/trace/tail?n=3")
	if code != http.StatusOK {
		t.Fatalf("?n=3 status = %d", code)
	}
	if lines := strings.Split(strings.TrimSpace(body), "\n"); len(lines) != 3 {
		t.Fatalf("tail?n=3 lines = %d", len(lines))
	}

	if code, _ := get(t, ts.URL+"/trace/tail?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n status = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/trace/tail?n=-1"); code != http.StatusBadRequest {
		t.Errorf("negative n status = %d, want 400", code)
	}
}

// TestTraceTailEdges covers the request-bound edge cases: n beyond
// MaxTailRequest and values that overflow int must be rejected with 400,
// never silently clamped, while the boundary value itself is accepted.
func TestTraceTailEdges(t *testing.T) {
	s, ts := newTestServer(t)
	s.PublishEvents([]obs.Event{{Component: obs.Rack, Kind: "cap"}})

	reject := []string{
		fmt.Sprint(MaxTailRequest + 1), // just past the cap
		"1000000000",                   // absurd but parseable
		"9223372036854775807",          // max int64
		"92233720368547758080",         // overflows int64 (Atoi errors)
		"18446744073709551616",         // overflows uint64 too
		"0",
		"-9223372036854775808",
		"+1e9", // float syntax is not an integer
	}
	for _, n := range reject {
		code, body := get(t, ts.URL+"/trace/tail?n="+n)
		if code != http.StatusBadRequest {
			t.Errorf("n=%s status = %d, want 400", n, code)
		}
		if !strings.Contains(body, fmt.Sprint(MaxTailRequest)) {
			t.Errorf("n=%s error %q does not state the bound", n, body)
		}
	}

	// The documented maximum is itself valid and clamps to what the ring
	// holds.
	code, body := get(t, ts.URL+fmt.Sprintf("/trace/tail?n=%d", MaxTailRequest))
	if code != http.StatusOK {
		t.Fatalf("n=max status = %d, want 200", code)
	}
	if lines := strings.Split(strings.TrimSpace(body), "\n"); len(lines) != 1 {
		t.Fatalf("n=max returned %d events, ring holds 1", len(lines))
	}
}

// TestTraceTailComponentFilter covers the server-side ?component= filter:
// filtering happens over the full held window (not the post-truncation
// tail), multiple names combine as a union, and unknown names are 400s
// naming the valid set.
func TestTraceTailComponentFilter(t *testing.T) {
	s, ts := newTestServer(t)
	var events []obs.Event
	for i := 0; i < 5; i++ {
		events = append(events,
			obs.Event{Time: t0.Add(time.Duration(2*i) * time.Second), Component: obs.Rack, Kind: "cap"},
			obs.Event{Time: t0.Add(time.Duration(2*i+1) * time.Second), Component: obs.SOA, Kind: "grant"},
		)
	}
	s.PublishEvents(events)

	code, body := get(t, ts.URL+"/trace/tail?component=rack")
	if code != http.StatusOK {
		t.Fatalf("?component=rack status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 5 {
		t.Fatalf("rack-only tail = %d lines, want 5", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, `"component":"rack"`) {
			t.Errorf("rack filter leaked: %s", l)
		}
	}

	// The filter applies before the tail cut: asking for 2 rack events must
	// return the 2 newest rack events, not whatever survives in the last 2
	// slots of the mixed window.
	code, body = get(t, ts.URL+"/trace/tail?component=rack&n=2")
	if code != http.StatusOK {
		t.Fatalf("rack n=2 status = %d", code)
	}
	if lines := strings.Split(strings.TrimSpace(body), "\n"); len(lines) != 2 {
		t.Fatalf("rack n=2 = %d lines", len(lines))
	}

	// Union of components.
	code, body = get(t, ts.URL+"/trace/tail?component=rack,soa")
	if code != http.StatusOK {
		t.Fatalf("rack,soa status = %d", code)
	}
	if lines := strings.Split(strings.TrimSpace(body), "\n"); len(lines) != 10 {
		t.Fatalf("rack,soa tail = %d lines, want 10", len(lines))
	}

	code, body = get(t, ts.URL+"/trace/tail?component=nonsense")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown component status = %d, want 400", code)
	}
	if !strings.Contains(body, "nonsense") || !strings.Contains(body, "rack") {
		t.Errorf("unknown-component error %q should name the bad value and the valid set", body)
	}
}

// TestTraceTailSpanFilter covers ?span=: an event matches when the span is
// its own or its parent, and a malformed span is a 400.
func TestTraceTailSpanFilter(t *testing.T) {
	s, ts := newTestServer(t)
	s.PublishEvents([]obs.Event{
		{Time: t0, Component: obs.SOA, Kind: "request", Span: 0xabc},
		{Time: t0.Add(time.Second), Component: obs.SOA, Kind: "grant", Span: 0xdef, Parent: 0xabc},
		{Time: t0.Add(2 * time.Second), Component: obs.Rack, Kind: "cap", Span: 0x123},
	})

	code, body := get(t, ts.URL+"/trace/tail?span=0000000000000abc")
	if code != http.StatusOK {
		t.Fatalf("?span status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("span filter = %d lines, want request+child grant", len(lines))
	}
	if code, _ := get(t, ts.URL+"/trace/tail?span=zzz"); code != http.StatusBadRequest {
		t.Errorf("bad span status = %d, want 400", code)
	}

	// Filters compose: span 0xabc AND component rack matches nothing.
	code, body = get(t, ts.URL+"/trace/tail?span=0000000000000abc&component=rack")
	if code != http.StatusOK {
		t.Fatalf("composed filter status = %d", code)
	}
	if strings.TrimSpace(body) != "" {
		t.Errorf("composed filter should be empty, got %q", body)
	}
}

func provRecord(span, parent causal.SpanID, site, verdict string, at time.Time) causal.Record {
	return causal.Record{
		Span: span, Parent: parent, Time: at,
		Kind: causal.KindDecision, Component: "soa", Site: site, Verdict: verdict,
	}
}

// TestExplain covers the /explain endpoint: usage and parse 400s, a 404
// for an unheld span, and a 200 whose chain reads root-first with the
// decision's children attached.
func TestExplain(t *testing.T) {
	s, ts := newTestServer(t)
	s.PublishProvenance([]causal.Record{
		provRecord(0xa, 0, "wi.request", "-", t0),
		provRecord(0xb, 0xa, "soa.admit", "grant", t0.Add(time.Second)),
		provRecord(0xc, 0xb, "soa.session", "stop", t0.Add(2*time.Second)),
	})

	if code, body := get(t, ts.URL+"/explain"); code != http.StatusBadRequest || !strings.Contains(body, "usage") {
		t.Errorf("missing span = %d %q, want 400 usage", code, body)
	}
	if code, _ := get(t, ts.URL+"/explain?span=xyz"); code != http.StatusBadRequest {
		t.Errorf("bad span = %d, want 400", code)
	}
	if code, body := get(t, ts.URL+"/explain?span=00000000000000ff"); code != http.StatusNotFound ||
		!strings.Contains(body, "00000000000000ff") {
		t.Errorf("unheld span = %d %q, want 404 naming the span", code, body)
	}

	code, body := get(t, ts.URL+"/explain?span=000000000000000b")
	if code != http.StatusOK {
		t.Fatalf("/explain status = %d: %s", code, body)
	}
	var ex Explanation
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatalf("/explain not JSON: %v\n%s", err, body)
	}
	if ex.Record.Site != "soa.admit" || ex.Record.Verdict != "grant" {
		t.Errorf("record = %+v, want the admit decision", ex.Record)
	}
	if len(ex.Chain) != 2 || ex.Chain[0].Site != "wi.request" || ex.Chain[1].Site != "soa.admit" {
		t.Errorf("chain should read root-first request->admit, got %+v", ex.Chain)
	}
	if len(ex.Children) != 1 || ex.Children[0].Site != "soa.session" {
		t.Errorf("children = %+v, want the session stop", ex.Children)
	}
	if ex.Held != 3 || ex.Total != 3 {
		t.Errorf("held/total = %d/%d, want 3/3", ex.Held, ex.Total)
	}
}

// TestExplainRecent covers the span-discovery path: /explain?recent=N
// lists the newest held records oldest-first, and out-of-range N is a 400.
func TestExplainRecent(t *testing.T) {
	s, ts := newTestServer(t)
	s.PublishProvenance([]causal.Record{
		provRecord(0xa, 0, "wi.request", "-", t0),
		provRecord(0xb, 0xa, "soa.admit", "grant", t0.Add(time.Second)),
		provRecord(0xc, 0xb, "soa.session", "stop", t0.Add(2*time.Second)),
	})

	code, body := get(t, ts.URL+"/explain?recent=2")
	if code != http.StatusOK {
		t.Fatalf("?recent status = %d: %s", code, body)
	}
	var rr RecentRecords
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatalf("?recent not JSON: %v\n%s", err, body)
	}
	if len(rr.Records) != 2 || rr.Records[0].Site != "soa.admit" || rr.Records[1].Site != "soa.session" {
		t.Errorf("recent = %+v, want the 2 newest oldest-first", rr.Records)
	}
	if rr.Held != 3 || rr.Total != 3 {
		t.Errorf("held/total = %d/%d, want 3/3", rr.Held, rr.Total)
	}

	for _, bad := range []string{"0", "-1", "bogus", fmt.Sprint(MaxTailRequest + 1)} {
		if code, _ := get(t, ts.URL+"/explain?recent="+bad); code != http.StatusBadRequest {
			t.Errorf("recent=%s status = %d, want 400", bad, code)
		}
	}
}

// TestExplainWindowEviction verifies the bounded record ring reports an
// aged-out window honestly: Held < Total and the chain stops where the
// ancestor fell out.
func TestExplainWindowEviction(t *testing.T) {
	s := NewServer(4)
	s.prov = NewRecordRing(2)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	s.PublishProvenance([]causal.Record{
		provRecord(0xa, 0, "wi.request", "-", t0),
		provRecord(0xb, 0xa, "soa.admit", "grant", t0.Add(time.Second)),
		provRecord(0xc, 0xb, "soa.session", "stop", t0.Add(2*time.Second)),
	})

	// 0xa was evicted by the 2-slot ring.
	if code, _ := get(t, ts.URL+"/explain?span=000000000000000a"); code != http.StatusNotFound {
		t.Errorf("evicted span = %d, want 404", code)
	}
	code, body := get(t, ts.URL+"/explain?span=000000000000000c")
	if code != http.StatusOK {
		t.Fatalf("/explain status = %d", code)
	}
	var ex Explanation
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Held != 2 || ex.Total != 3 {
		t.Errorf("held/total = %d/%d, want 2/3", ex.Held, ex.Total)
	}
	if len(ex.Chain) != 2 || ex.Chain[0].Site != "soa.admit" {
		t.Errorf("chain should stop at the held admit, got %+v", ex.Chain)
	}
}

// TestRecordRing exercises the provenance ring directly: unbounded growth
// at cap 0, overwrite at capacity, oldest-first unwrap.
func TestRecordRing(t *testing.T) {
	r := NewRecordRing(0)
	for i := 1; i <= 3; i++ {
		r.Append(causal.Record{Span: causal.SpanID(i)})
	}
	if len(r.buf) != 3 {
		t.Fatalf("unbounded ring len = %d", len(r.buf))
	}

	b := NewRecordRing(2)
	for i := 1; i <= 5; i++ {
		b.Append(causal.Record{Span: causal.SpanID(i)})
	}
	recs := b.Records()
	if len(recs) != 2 || recs[0].Span != 4 || recs[1].Span != 5 {
		t.Fatalf("bounded ring = %+v, want spans 4,5 oldest-first", recs)
	}
}

// TestMount verifies extra planes share the telemetry listener and do not
// shadow the built-in endpoints.
func TestMount(t *testing.T) {
	s := NewServer(4)
	s.Mount("/api/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "mounted")
	}))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if code, body := get(t, ts.URL+"/api/v1/anything"); code != http.StatusTeapot || body != "mounted" {
		t.Fatalf("mounted subtree = %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz after mount = %d %q", code, body)
	}
}

func TestPprofIndex(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d (goroutine profile missing)", code)
	}
}

// TestStartClose exercises the real listener path used by soccluster.
func TestStartClose(t *testing.T) {
	s := NewServer(0)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("live /healthz = %d %q", code, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestConcurrentPublishAndScrape gives the race detector publisher/scraper
// interleavings: a harness goroutine publishing snapshots and events while
// HTTP clients scrape.
func TestConcurrentPublishAndScrape(t *testing.T) {
	s, ts := newTestServer(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			reg := metrics.NewRegistry()
			reg.Counter("ticks_total").Add(float64(i))
			s.PublishSnapshot(reg.Snapshot())
			s.PublishEvents([]obs.Event{{Component: obs.Rack, Kind: "tick", Value: float64(i)}})
		}
	}()
	for i := 0; i < 20; i++ {
		if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK {
			t.Fatalf("scrape %d failed: %d", i, code)
		}
		if code, _ := get(t, ts.URL+"/trace/tail?n=5"); code != http.StatusOK {
			t.Fatalf("tail %d failed: %d", i, code)
		}
	}
	<-done
}
