package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smartoclock/internal/api"
	"smartoclock/internal/causal"
	"smartoclock/internal/telemetry"
)

// writeProvLog writes a small provenance log to a temporary file: a
// request (span 1) whose admission (span 2) causes a session (span 3) and
// a cap (span 4).
func writeProvLog(t *testing.T) string {
	t.Helper()
	t0 := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	log := &causal.Log{Records: []causal.Record{
		{Span: 1, Time: t0, Kind: causal.KindMessage, Component: "wi", Site: "wi.request"},
		{Span: 2, Parent: 1, Time: t0, Kind: causal.KindDecision, Component: "soa", Site: "soa.admit", Verdict: "admit"},
		{Span: 3, Parent: 2, Time: t0.Add(time.Minute), Kind: causal.KindDecision, Component: "soa", Site: "soa.session", Verdict: "start"},
		{Span: 4, Parent: 2, Time: t0.Add(time.Minute), Kind: causal.KindDecision, Component: "rack", Site: "rack.cap", Verdict: "cap"},
	}}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func spans(recs []causal.Record) []causal.SpanID {
	out := make([]causal.SpanID, len(recs))
	for i := range recs {
		out[i] = recs[i].Span
	}
	return out
}

func sameSpans(got []causal.Record, want ...causal.SpanID) bool {
	g := spans(got)
	if len(g) != len(want) {
		return false
	}
	for i := range want {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

func TestExplainOffline(t *testing.T) {
	path := writeProvLog(t)

	res, code, err := explainOffline(path, causal.SpanID(2).String(), 0)
	if err != nil || code != exitOK {
		t.Fatalf("known span: code %d, %v", code, err)
	}
	ex := res.(*telemetry.Explanation)
	if ex.Span != "0000000000000002" || ex.Record.Site != "soa.admit" {
		t.Errorf("explained %s %s, want span 2 soa.admit", ex.Span, ex.Record.Site)
	}
	if !sameSpans(ex.Chain, 1, 2) {
		t.Errorf("chain %v, want root first [1 2]", spans(ex.Chain))
	}
	if !sameSpans(ex.Children, 3, 4) {
		t.Errorf("children %v, want [3 4]", spans(ex.Children))
	}
	if ex.Held != 4 || ex.Total != 4 {
		t.Errorf("window %d of %d, want 4 of 4", ex.Held, ex.Total)
	}

	for _, c := range []struct {
		span string
		code int
	}{
		{"00000000000000ff", exitNotFound},
		{"not-a-span", exitUsage},
		{"", exitUsage},
	} {
		if _, code, err := explainOffline(path, c.span, 0); err == nil || code != c.code {
			t.Errorf("span %q: code %d (%v), want %d", c.span, code, err, c.code)
		}
	}
	if _, code, err := explainOffline(filepath.Join(t.TempDir(), "missing.jsonl"), "1", 0); err == nil || code != exitFailure {
		t.Errorf("missing log: code %d (%v), want %d", code, err, exitFailure)
	}

	res, code, err = explainOffline(path, "", 2)
	if err != nil || code != exitOK {
		t.Fatalf("recent: code %d, %v", code, err)
	}
	rr := res.(*telemetry.RecentRecords)
	if !sameSpans(rr.Records, 3, 4) || rr.Held != 4 || rr.Total != 4 {
		t.Errorf("recent 2: records %v, window %d of %d; want [3 4], 4 of 4", spans(rr.Records), rr.Held, rr.Total)
	}
}

func TestRenderWindowNote(t *testing.T) {
	path := writeProvLog(t)
	res, _, err := explainOffline(path, "2", 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := res.(*telemetry.Explanation)
	var whole bytes.Buffer
	render(&whole, ex)
	out := whole.String()
	if !strings.Contains(out, "causal chain (root first):\n") || !strings.Contains(out, "consequences:\n") {
		t.Errorf("rendering lacks the chain or consequences:\n%s", out)
	}
	if strings.Contains(out, "window holds") {
		t.Errorf("whole log rendered with a window note:\n%s", out)
	}

	ex.Held, ex.Total = 4, 9
	var aged bytes.Buffer
	render(&aged, ex)
	if want := out + "\n(window holds 4 of 9 records; older ancestors may have aged out)\n"; aged.String() != want {
		t.Errorf("partial window rendered\n%s\nwant\n%s", aged.String(), want)
	}
}

// TestBaseURL checks that an address with or without a scheme or a
// trailing slash reaches the server, both through the API client and
// through explain's /explain request.
func TestBaseURL(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	hostport := strings.TrimPrefix(srv.URL, "http://")

	for _, addr := range []string{
		hostport,
		hostport + "/",
		"http://" + hostport,
		"http://" + hostport + "//",
	} {
		mu.Lock()
		paths = paths[:0]
		mu.Unlock()
		base := baseURL(addr)
		if base != srv.URL {
			t.Errorf("baseURL(%q) = %q, want %q", addr, base, srv.URL)
		}
		if _, err := api.NewClient(base, "").Status(context.Background()); err != nil {
			t.Errorf("status via %q: %v", addr, err)
		}
		var ex telemetry.Explanation
		if code, err := explainLive(base, "span=1", time.Second, &ex); err != nil {
			t.Errorf("explain via %q: code %d, %v", addr, code, err)
		}
		mu.Lock()
		if got, want := strings.Join(paths, " "), "/api/v1/status /explain"; got != want {
			t.Errorf("via %q the server saw %q, want %q", addr, got, want)
		}
		mu.Unlock()
	}
	if got := baseURL("https://ops.example:9188/"); got != "https://ops.example:9188" {
		t.Errorf("baseURL kept or replaced an https scheme wrongly: %q", got)
	}
}

// TestExplainLiveExitCodes maps the /explain statuses to explain's exit
// codes: a malformed query is a usage error, an unknown span is not found.
func TestExplainLiveExitCodes(t *testing.T) {
	for _, c := range []struct {
		status int
		code   int
	}{
		{http.StatusBadRequest, exitUsage},
		{http.StatusNotFound, exitNotFound},
		{http.StatusInternalServerError, exitFailure},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "telemetry: no", c.status)
		}))
		var ex telemetry.Explanation
		if code, err := explainLive(srv.URL, "span=1", time.Second, &ex); err == nil || code != c.code {
			t.Errorf("status %d: code %d (%v), want %d", c.status, code, err, c.code)
		}
		srv.Close()
	}
}
