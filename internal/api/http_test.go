package api

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// fakeService is a canned Service: every method succeeds with a fixed,
// deterministic response and records the call, so transport tests assert
// on exactly what crossed the port.
type fakeService struct {
	calls []string
	// fail, when set, is returned by every method (error-mapping tests).
	fail error
}

func (f *fakeService) record(cmd string, spec any) {
	if spec == nil {
		f.calls = append(f.calls, cmd)
		return
	}
	b, _ := json.Marshal(spec)
	f.calls = append(f.calls, cmd+" "+string(b))
}

func (f *fakeService) Status(context.Context) (*ClusterStatus, error) {
	f.record(CmdStatus, nil)
	if f.fail != nil {
		return nil, f.fail
	}
	return &ClusterStatus{
		Now: t0, Ticks: 42, Requests: 7, Granted: 5,
		Rack: RackStatus{Name: "rack-live", LimitWatts: 1000, PowerWatts: 640},
	}, nil
}

func (f *fakeService) RegisterDeployment(_ context.Context, spec DeploymentSpec) (*DeploymentStatus, error) {
	f.record(CmdDeploy, spec)
	if f.fail != nil {
		return nil, f.fail
	}
	return &DeploymentStatus{Name: spec.Name, Server: spec.Server, Cores: []int{4, 5}, Util: spec.Util}, nil
}

func (f *fakeService) DrainDeployment(_ context.Context, name string) error {
	f.record(CmdDrain, DrainSpec{Name: name})
	return f.fail
}

func (f *fakeService) SetProfile(_ context.Context, spec ProfileSpec) error {
	f.record(CmdProfile, spec)
	return f.fail
}

func (f *fakeService) SetBudget(_ context.Context, spec BudgetSpec) error {
	f.record(CmdBudget, spec)
	return f.fail
}

func (f *fakeService) AssignBudgets(_ context.Context, spec AssignSpec) (*AssignStatus, error) {
	f.record(CmdAssign, spec)
	if f.fail != nil {
		return nil, f.fail
	}
	return &AssignStatus{Servers: 4, Budgets: map[string]float64{"lv-00": 250, "lv-01": 250}}, nil
}

func (f *fakeService) SetSeverity(_ context.Context, spec SeveritySpec) error {
	f.record(CmdSeverity, spec)
	return f.fail
}

func (f *fakeService) StartOverclock(_ context.Context, spec OCSpec) (*OCStatus, error) {
	f.record(CmdOCStart, spec)
	if f.fail != nil {
		return nil, f.fail
	}
	return &OCStatus{Granted: true, Cores: []int{0, 1}}, nil
}

func (f *fakeService) StopOverclock(_ context.Context, spec StopSpec) error {
	f.record(CmdOCStop, spec)
	return f.fail
}

func (f *fakeService) SetChaos(_ context.Context, spec ChaosSpec) (*ChaosStatus, error) {
	f.record(CmdChaos, spec)
	if f.fail != nil {
		return nil, f.fail
	}
	return &ChaosStatus{Agent: spec.Agent, Down: spec.Down, DownAgents: []string{spec.Agent}}, nil
}

func (f *fakeService) ForceCheckpoint(context.Context) (*CheckpointStatus, error) {
	f.record(CmdCheckpoint, nil)
	if f.fail != nil {
		return nil, f.fail
	}
	return &CheckpointStatus{Path: "state.json", Bytes: 2048, Writes: 3, SavedAt: t0}, nil
}

func (f *fakeService) Advance(_ context.Context, spec AdvanceSpec) (*AdvanceStatus, error) {
	f.record(CmdAdvance, spec)
	if f.fail != nil {
		return nil, f.fail
	}
	return &AdvanceStatus{Ticks: spec.Ticks, Now: t0.Add(time.Minute)}, nil
}

func (f *fakeService) Shutdown(context.Context) error {
	f.record(CmdShutdown, nil)
	return f.fail
}

var _ Service = (*fakeService)(nil)

// testCreds is the four-token matrix every conformance case draws from: a
// token per scope plus an expired one. "wrong scope" picks a token whose
// scopes exclude the route's.
const testCreds = "reader:tok-read:read;" +
	"operator:tok-operate:operate;" +
	"admin:tok-admin:admin;" +
	"chaos:tok-chaos:chaos;" +
	"expired:tok-expired:read+operate+admin+chaos:2026-01-01T00:00:00Z"

// tokenForScope returns a valid token holding scope, and one that holds
// every scope but it.
func tokenForScope(s Scope) (valid, wrong string) {
	valid = "tok-" + string(s)
	for _, other := range Scopes() {
		if other != s {
			return valid, "tok-" + string(other)
		}
	}
	panic("unreachable")
}

func newTestHandler(t *testing.T, svc Service, cfg HandlerConfig) http.Handler {
	t.Helper()
	auth, err := ParseCredentials(testCreds)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Time { return t0 }
	}
	return NewHandler(svc, auth, cfg)
}

func doReq(t *testing.T, h http.Handler, method, path, token, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// minimalBody returns a body that passes validation for each command.
func minimalBody(cmd string) string {
	switch cmd {
	case CmdDeploy:
		return `{"name":"web","server":"lv-00","cores":2,"util":0.5}`
	case CmdDrain:
		return `{"name":"web"}`
	case CmdProfile:
		return `{"server":"lv-00","median_watts":200,"requested_cores":4,"granted_cores":2}`
	case CmdBudget:
		return `{"server":"lv-00","watts":250}`
	case CmdAssign:
		return `{"step_minutes":30}`
	case CmdSeverity:
		return `{"server":"lv-00","severity":2}`
	case CmdOCStart:
		return `{"server":"lv-00","vm":"web","cores":2,"target_mhz":3800}`
	case CmdOCStop:
		return `{"server":"lv-00","vm":"web"}`
	case CmdChaos:
		return `{"agent":"goa","down":true}`
	case CmdAdvance:
		return `{"ticks":3}`
	default:
		return ""
	}
}

// TestAuthMatrix drives every route through the four token cases the
// conformance battery requires: valid scope, wrong scope, expired, and no
// token at all. Only the valid case may reach the service.
func TestAuthMatrix(t *testing.T) {
	for _, rt := range Routes() {
		valid, wrong := tokenForScope(rt.Scope)
		cases := []struct {
			name   string
			token  string
			status int
		}{
			{"valid", valid, http.StatusOK},
			{"wrong-scope", wrong, http.StatusForbidden},
			{"expired", "tok-expired", http.StatusUnauthorized},
			{"no-token", "", http.StatusUnauthorized},
		}
		for _, tc := range cases {
			t.Run(rt.Cmd+"/"+tc.name, func(t *testing.T) {
				svc := &fakeService{}
				h := newTestHandler(t, svc, HandlerConfig{})
				w := doReq(t, h, rt.Method, rt.Path, tc.token, minimalBody(rt.Cmd))
				if w.Code != tc.status {
					t.Fatalf("%s %s with %s token: status %d, want %d\n%s",
						rt.Method, rt.Path, tc.name, w.Code, tc.status, w.Body)
				}
				if tc.status == http.StatusOK && len(svc.calls) != 1 {
					t.Fatalf("valid call did not reach the service: calls=%v", svc.calls)
				}
				if tc.status != http.StatusOK && len(svc.calls) != 0 {
					t.Fatalf("%s token leaked through to the service: calls=%v", tc.name, svc.calls)
				}
				if w.Code == http.StatusUnauthorized {
					if w.Header().Get("WWW-Authenticate") == "" {
						t.Error("401 without WWW-Authenticate")
					}
					if strings.Contains(w.Body.String(), "expired") || strings.Contains(w.Body.String(), "unknown") {
						t.Errorf("401 body leaks failure detail: %s", w.Body)
					}
				}
			})
		}
	}
}

// TestAuthMatrixCoversAllMutatingRoutes pins the acceptance criterion: the
// matrix above must include every mutating endpoint, so a new route cannot
// silently skip conformance.
func TestAuthMatrixCoversAllMutatingRoutes(t *testing.T) {
	mutating := 0
	seen := map[string]bool{}
	for _, rt := range Routes() {
		if seen[rt.Method+" "+rt.Path] {
			t.Errorf("duplicate route %s %s", rt.Method, rt.Path)
		}
		seen[rt.Method+" "+rt.Path] = true
		if rt.Mutating {
			mutating++
		}
		if _, ok := RouteFor(rt.Cmd); !ok {
			t.Errorf("RouteFor(%q) missing", rt.Cmd)
		}
	}
	if mutating != len(Routes())-1 {
		t.Fatalf("mutating routes = %d, want all but status (%d)", mutating, len(Routes())-1)
	}
}

func TestUnknownTokenIs401(t *testing.T) {
	h := newTestHandler(t, &fakeService{}, HandlerConfig{})
	w := doReq(t, h, http.MethodGet, "/api/v1/status", "tok-made-up", "")
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("unknown token status = %d, want 401", w.Code)
	}
}

func TestBodyTooLarge(t *testing.T) {
	h := newTestHandler(t, &fakeService{}, HandlerConfig{MaxBody: 64})
	big := `{"name":"` + strings.Repeat("x", 200) + `"}`
	w := doReq(t, h, http.MethodPost, "/api/v1/deployments/drain", "tok-operate", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body status = %d, want 413\n%s", w.Code, w.Body)
	}
}

func TestStrictDecode(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"name":"web","oops":1}`,
		"trailing data": `{"name":"web"} {"name":"web2"}`,
		"wrong type":    `{"name":3}`,
		"not json":      `drain web`,
		"validation":    `{"name":""}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			svc := &fakeService{}
			h := newTestHandler(t, svc, HandlerConfig{})
			w := doReq(t, h, http.MethodPost, "/api/v1/deployments/drain", "tok-operate", body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s: status = %d, want 400\n%s", name, w.Code, w.Body)
			}
			if len(svc.calls) != 0 {
				t.Fatalf("%s: bad body reached the service", name)
			}
		})
	}
}

func TestErrorKindMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
	}{
		{Invalidf("x"), http.StatusBadRequest},
		{NotFoundf("x"), http.StatusNotFound},
		{Conflictf("x"), http.StatusConflict},
		{Unavailablef("x"), http.StatusServiceUnavailable},
		{fmt.Errorf("plain"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		h := newTestHandler(t, &fakeService{fail: tc.err}, HandlerConfig{})
		w := doReq(t, h, http.MethodGet, "/api/v1/status", "tok-read", "")
		if w.Code != tc.status {
			t.Errorf("%v -> %d, want %d", tc.err, w.Code, tc.status)
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("%v: error envelope missing: %s", tc.err, w.Body)
		}
	}
}

func TestRateLimit429(t *testing.T) {
	l := NewRateLimiter(1, 2)
	l.now = func() time.Time { return t0 }
	h := newTestHandler(t, &fakeService{}, HandlerConfig{Limiter: l})

	for i := 0; i < 2; i++ {
		if w := doReq(t, h, http.MethodGet, "/api/v1/status", "tok-read", ""); w.Code != http.StatusOK {
			t.Fatalf("burst request %d status = %d", i, w.Code)
		}
	}
	if w := doReq(t, h, http.MethodGet, "/api/v1/status", "tok-read", ""); w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst status = %d, want 429", w.Code)
	}
	// Another credential has its own bucket.
	if w := doReq(t, h, http.MethodPost, "/api/v1/severity", "tok-operate", minimalBody(CmdSeverity)); w.Code != http.StatusOK {
		t.Fatalf("independent credential status = %d", w.Code)
	}
	// Unauthenticated probing shares one bucket and gets throttled too.
	if w := doReq(t, h, http.MethodGet, "/api/v1/status", "bad-token", ""); w.Code != http.StatusUnauthorized {
		t.Fatal("first probe should be an orderly 401")
	}
	if w := doReq(t, h, http.MethodGet, "/api/v1/status", "another-bad", ""); w.Code != http.StatusUnauthorized {
		t.Fatal("second probe should be an orderly 401")
	}
	if w := doReq(t, h, http.MethodGet, "/api/v1/status", "third-bad", ""); w.Code != http.StatusTooManyRequests {
		t.Fatalf("third probe status = %d, want 429", w.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := newTestHandler(t, &fakeService{}, HandlerConfig{})
	w := doReq(t, h, http.MethodGet, "/api/v1/deployments", "tok-operate", "")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route status = %d, want 405", w.Code)
	}
}

// TestClientRoundTrip exercises Client -> NewHandler -> fakeService over a
// real listener, including the error path.
func TestClientRoundTrip(t *testing.T) {
	svc := &fakeService{}
	ts := httptest.NewServer(newTestHandler(t, svc, HandlerConfig{}))
	defer ts.Close()

	admin := NewClient(ts.URL, "tok-admin")
	operator := NewClient(ts.URL, "tok-operate")
	reader := NewClient(ts.URL, "tok-read")
	ctx := context.Background()

	st, err := reader.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 42 || st.Rack.Name != "rack-live" {
		t.Fatalf("status = %+v", st)
	}

	dep, err := operator.RegisterDeployment(ctx, DeploymentSpec{Name: "web", Server: "lv-00", Cores: 2, Util: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Name != "web" || len(dep.Cores) != 2 {
		t.Fatalf("deployment = %+v", dep)
	}

	cp, err := admin.ForceCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Bytes != 2048 {
		t.Fatalf("checkpoint = %+v", cp)
	}

	// A scope the token lacks surfaces as a typed RemoteError.
	_, err = reader.StartOverclock(ctx, OCSpec{Server: "lv-00", VM: "vm"})
	re, ok := err.(*RemoteError)
	if !ok || re.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong-scope client err = %v", err)
	}
}

// TestGoldenTranscript replays a fixed request sequence and compares the
// full wire transcript (request line, status, response body) against
// testdata/transcript.golden. Regenerate with:
//
//	go test ./internal/api -run Golden -update
func TestGoldenTranscript(t *testing.T) {
	svc := &fakeService{}
	h := newTestHandler(t, svc, HandlerConfig{})

	type step struct {
		method, path, token, body string
	}
	steps := []step{
		{http.MethodGet, "/api/v1/status", "tok-read", ""},
		{http.MethodPost, "/api/v1/deployments", "tok-operate", `{"name":"web","server":"lv-00","cores":2,"util":0.5}`},
		{http.MethodPost, "/api/v1/profiles", "tok-operate", `{"server":"lv-00","median_watts":210.5,"requested_cores":4,"granted_cores":2}`},
		{http.MethodPost, "/api/v1/budgets", "tok-operate", `{"server":"lv-00","watts":250}`},
		{http.MethodPost, "/api/v1/budgets/assign", "tok-operate", `{"step_minutes":30}`},
		{http.MethodPost, "/api/v1/severity", "tok-operate", `{"server":"lv-00","severity":3}`},
		{http.MethodPost, "/api/v1/overclock", "tok-operate", `{"server":"lv-00","vm":"web","target_mhz":3800}`},
		{http.MethodPost, "/api/v1/overclock/stop", "tok-operate", `{"server":"lv-00","vm":"web"}`},
		{http.MethodPost, "/api/v1/chaos", "tok-chaos", `{"agent":"goa","down":true}`},
		{http.MethodPost, "/api/v1/checkpoint", "tok-admin", ""},
		{http.MethodPost, "/api/v1/advance", "tok-admin", `{"ticks":3}`},
		{http.MethodPost, "/api/v1/deployments/drain", "tok-operate", `{"name":"web"}`},
		{http.MethodPost, "/api/v1/shutdown", "tok-admin", ""},
		// Error shapes are part of the wire contract too.
		{http.MethodGet, "/api/v1/status", "", ""},
		{http.MethodPost, "/api/v1/chaos", "tok-operate", `{"agent":"goa","down":true}`},
		{http.MethodPost, "/api/v1/deployments", "tok-operate", `{"name":"","server":"lv-00","cores":2}`},
		{http.MethodPost, "/api/v1/deployments", "tok-operate", `{"nope":1}`},
	}

	var b strings.Builder
	for _, s := range steps {
		w := doReq(t, h, s.method, s.path, s.token, s.body)
		tok := s.token
		if tok == "" {
			tok = "-"
		}
		fmt.Fprintf(&b, ">>> %s %s token=%s body=%s\n<<< %d\n%s\n", s.method, s.path, tok, s.body, w.Code, w.Body.String())
	}
	fmt.Fprintf(&b, "=== service calls ===\n%s\n", strings.Join(svc.calls, "\n"))

	golden := filepath.Join("testdata", "transcript.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != b.String() {
		t.Errorf("transcript differs from %s (rerun with -update if the change is intended):\n--- want ---\n%s\n--- got ---\n%s",
			golden, want, b.String())
	}
}

// TestScopesSorted guards the documented scope list used by docs and CLI
// help.
func TestScopesSorted(t *testing.T) {
	names := make([]string, 0)
	for _, s := range Scopes() {
		names = append(names, string(s))
	}
	uniq := map[string]bool{}
	for _, n := range names {
		if uniq[n] {
			t.Fatalf("duplicate scope %s", n)
		}
		uniq[n] = true
		if _, err := ParseScope(n); err != nil {
			t.Fatalf("ParseScope(%q): %v", n, err)
		}
	}
	if _, err := ParseScope("root"); err == nil {
		t.Fatal("ParseScope accepted an unknown scope")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	_ = sorted // order is semantic (read < operate < admin < chaos), not lexical
}
