package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"smartoclock/internal/api"
)

// liveCreds is the four-scope token matrix the conformance battery draws
// from, plus a credential that expired long before the tests run.
const liveCreds = "reader:tok-read:read;" +
	"operator:tok-operate:operate;" +
	"admin:tok-admin:admin;" +
	"chaosbot:tok-chaos:chaos;" +
	"expired:tok-expired:read+operate+admin+chaos:2020-01-01T00:00:00Z"

// wrongTokenFor returns a live token that lacks the given scope.
func wrongTokenFor(s api.Scope) string {
	if s == api.ScopeOperate {
		return "tok-admin"
	}
	return "tok-operate"
}

// liveHarness owns one hold-mode live cluster run with the control-plane
// API served over a real HTTP listener.
type liveHarness struct {
	url  string
	ctrl *LiveController
	done chan struct{}
	res  *LiveResult
	err  error
}

// startLiveHarness boots a held live cluster under the authenticated API.
// The run only ticks when a test advances it, so every assertion sees a
// deterministic world.
func startLiveHarness(t *testing.T, mutate func(*LiveConfig)) *liveHarness {
	t.Helper()
	ctrl := NewLiveController()
	cfg := DefaultLiveConfig()
	cfg.Pace = 0
	cfg.Duration = 2 * time.Hour
	cfg.Control = ctrl
	cfg.Hold = true
	if mutate != nil {
		mutate(&cfg)
	}
	handler, err := api.Config{Tokens: liveCreds}.Build(ctrl) // Rate 0: no limiter in tests
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)

	h := &liveHarness{url: ts.URL, ctrl: ctrl, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.res, h.err = RunLive(cfg, nil)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = h.client("tok-admin").Shutdown(ctx)
		select {
		case <-h.done:
		case <-time.After(30 * time.Second):
			t.Error("live run did not stop")
		}
	})
	return h
}

func (h *liveHarness) client(token string) *api.Client { return api.NewClient(h.url, token) }

// stop shuts the run down and returns its result.
func (h *liveHarness) stop(t *testing.T) *LiveResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.client("tok-admin").Shutdown(ctx); err != nil {
		var re *api.RemoteError
		// A second Shutdown (from Cleanup) racing the first may see the run
		// already gone; anything else is a real failure.
		if !errors.As(err, &re) || re.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("shutdown: %v", err)
		}
	}
	select {
	case <-h.done:
	case <-time.After(30 * time.Second):
		t.Fatal("live run did not stop after Shutdown")
	}
	if h.err != nil {
		t.Fatalf("RunLive: %v", h.err)
	}
	return h.res
}

func statusOf(t *testing.T, c *api.Client) *api.ClusterStatus {
	t.Helper()
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	return st
}

func serverStatus(t *testing.T, st *api.ClusterStatus, name string) *api.ServerStatus {
	t.Helper()
	for i := range st.Servers {
		if st.Servers[i].Name == name {
			return &st.Servers[i]
		}
	}
	t.Fatalf("server %s missing from status (%d servers)", name, len(st.Servers))
	return nil
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLiveConformance is the BDD battery of the acceptance criteria: every
// mutating endpoint crossed with the four-token auth matrix against a real
// held cluster, asserting both the HTTP status and the resulting cluster
// state. Denied calls must leave the world byte-identical; the valid call
// must produce its documented effect.
func TestLiveConformance(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "state.json")
	h := startLiveHarness(t, func(cfg *LiveConfig) {
		cfg.CheckpointPath = ckptPath
		cfg.CheckpointEvery = time.Minute
	})
	ctx := context.Background()
	reader := h.client("tok-read")

	// Given: each scenario says how to invoke its endpoint through a client
	// holding an arbitrary token, and how the world must change when — and
	// only when — the call is authorized.
	scenarios := []struct {
		cmd  string
		call func(c *api.Client) error
		then func(t *testing.T, before, after *api.ClusterStatus)
	}{
		{api.CmdDeploy, func(c *api.Client) error {
			_, err := c.RegisterDeployment(ctx, api.DeploymentSpec{Name: "web", Server: "lv-00", Cores: 2, Util: 0.5})
			return err
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if n := len(serverStatus(t, before, "lv-00").Deployments); n != 0 {
				t.Fatalf("deployments before = %d", n)
			}
			deps := serverStatus(t, after, "lv-00").Deployments
			if len(deps) != 1 || deps[0].Name != "web" || len(deps[0].Cores) != 2 {
				t.Fatalf("deployments after = %+v", deps)
			}
		}},
		{api.CmdProfile, func(c *api.Client) error {
			return c.SetProfile(ctx, api.ProfileSpec{Server: "lv-00", MedianWatts: 220, RequestedCores: 4, GrantedCores: 2})
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if len(before.ProfiledServers) != 0 {
				t.Fatalf("profiles before = %v", before.ProfiledServers)
			}
			if len(after.ProfiledServers) != 1 || after.ProfiledServers[0] != "lv-00" {
				t.Fatalf("profiles after = %v", after.ProfiledServers)
			}
		}},
		{api.CmdBudget, func(c *api.Client) error {
			return c.SetBudget(ctx, api.BudgetSpec{Server: "lv-01", Watts: 500})
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if b := serverStatus(t, after, "lv-01").BudgetWatts; b != 500 {
				t.Fatalf("budget after = %g, want 500", b)
			}
		}},
		{api.CmdAssign, func(c *api.Client) error {
			_, err := c.AssignBudgets(ctx, api.AssignSpec{})
			return err
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			// Only lv-00 is profiled, so only it gets an assigned template:
			// the gOA hands the single profiled server the full rack limit.
			if b := serverStatus(t, after, "lv-00").BudgetWatts; b <= 0 {
				t.Fatalf("assigned budget = %g", b)
			}
		}},
		{api.CmdSeverity, func(c *api.Client) error {
			return c.SetSeverity(ctx, api.SeveritySpec{Server: "lv-02", Severity: 3})
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if s := serverStatus(t, before, "lv-02"); s.Severity == 3 {
				t.Fatal("severity already 3 before the call")
			}
			if s := serverStatus(t, after, "lv-02"); s.Severity != 3 || s.SeverityName == "" {
				t.Fatalf("severity after = %+v", s)
			}
		}},
		{api.CmdOCStart, func(c *api.Client) error {
			st, err := c.StartOverclock(ctx, api.OCSpec{Server: "lv-00", VM: "web"})
			if err == nil && !st.Granted {
				return fmt.Errorf("overclock denied: %s", st.Reason)
			}
			return err
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if n := len(serverStatus(t, before, "lv-00").Sessions); n != 0 {
				t.Fatalf("sessions before = %d", n)
			}
			sess := serverStatus(t, after, "lv-00").Sessions
			if len(sess) != 1 || sess[0].VM != "web" || len(sess[0].Cores) != 2 {
				t.Fatalf("sessions after = %+v", sess)
			}
		}},
		{api.CmdOCStop, func(c *api.Client) error {
			return c.StopOverclock(ctx, api.StopSpec{Server: "lv-00", VM: "web"})
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if n := len(serverStatus(t, after, "lv-00").Sessions); n != 0 {
				t.Fatalf("sessions after stop = %d", n)
			}
		}},
		{api.CmdChaos, func(c *api.Client) error {
			_, err := c.SetChaos(ctx, api.ChaosSpec{Agent: "lv-01", Down: true})
			return err
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if len(before.ChaosDown) != 0 {
				t.Fatalf("chaos before = %v", before.ChaosDown)
			}
			if len(after.ChaosDown) != 1 || after.ChaosDown[0] != "soa/lv-01" {
				t.Fatalf("chaos after = %v (bare server name should normalize)", after.ChaosDown)
			}
		}},
		{api.CmdCheckpoint, func(c *api.Client) error {
			_, err := c.ForceCheckpoint(ctx)
			return err
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if after.Checkpoint.Writes != before.Checkpoint.Writes+1 {
				t.Fatalf("checkpoint writes %d -> %d", before.Checkpoint.Writes, after.Checkpoint.Writes)
			}
			if _, err := os.Stat(ckptPath); err != nil {
				t.Fatalf("forced checkpoint file: %v", err)
			}
		}},
		{api.CmdAdvance, func(c *api.Client) error {
			_, err := c.Advance(ctx, api.AdvanceSpec{Ticks: 3})
			return err
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if after.Ticks != before.Ticks+3 {
				t.Fatalf("ticks %d -> %d, want +3", before.Ticks, after.Ticks)
			}
			if want := before.Now.Add(3 * 5 * time.Second); !after.Now.Equal(want) {
				t.Fatalf("now %v -> %v, want %v", before.Now, after.Now, want)
			}
		}},
		{api.CmdDrain, func(c *api.Client) error {
			return c.DrainDeployment(ctx, "web")
		}, func(t *testing.T, before, after *api.ClusterStatus) {
			if n := len(serverStatus(t, after, "lv-00").Deployments); n != 0 {
				t.Fatalf("deployments after drain = %d", n)
			}
		}},
	}

	for _, sc := range scenarios {
		rt, ok := api.RouteFor(sc.cmd)
		if !ok {
			t.Fatalf("no route for %s", sc.cmd)
		}
		// When an unauthorized caller tries it, then the request is refused
		// with the documented status and the world does not move.
		denied := []struct {
			name   string
			token  string
			status int
		}{
			{"wrong-scope", wrongTokenFor(rt.Scope), http.StatusForbidden},
			{"expired", "tok-expired", http.StatusUnauthorized},
			{"no-token", "", http.StatusUnauthorized},
		}
		for _, d := range denied {
			t.Run(sc.cmd+"/"+d.name, func(t *testing.T) {
				before := statusOf(t, reader)
				err := sc.call(h.client(d.token))
				var re *api.RemoteError
				if !errors.As(err, &re) || re.StatusCode != d.status {
					t.Fatalf("err = %v, want HTTP %d", err, d.status)
				}
				after := statusOf(t, reader)
				if b, a := mustJSON(t, before), mustJSON(t, after); !bytes.Equal(b, a) {
					t.Fatalf("denied call mutated the cluster:\nbefore %s\nafter  %s", b, a)
				}
			})
		}
		// When an authorized caller does it, then the effect is observable.
		t.Run(sc.cmd+"/valid", func(t *testing.T) {
			before := statusOf(t, reader)
			if err := sc.call(h.client("tok-"+string(rt.Scope))); err != nil {
				t.Fatalf("authorized call failed: %v", err)
			}
			sc.then(t, before, statusOf(t, reader))
		})
	}

	// Shutdown is its own final scenario: denied first, then for real.
	for _, d := range []struct {
		token  string
		status int
	}{{wrongTokenFor(api.ScopeAdmin), http.StatusForbidden}, {"tok-expired", http.StatusUnauthorized}, {"", http.StatusUnauthorized}} {
		err := h.client(d.token).Shutdown(ctx)
		var re *api.RemoteError
		if !errors.As(err, &re) || re.StatusCode != d.status {
			t.Fatalf("denied shutdown err = %v, want HTTP %d", err, d.status)
		}
	}
	res := h.stop(t)
	if res.Violations != 0 {
		t.Fatalf("invariant violations = %d", res.Violations)
	}
	if res.Ticks != 3 {
		t.Fatalf("ticks = %d, want exactly the 3 advanced", res.Ticks)
	}
}

// TestLiveServiceErrors covers the typed rejections of the driven adapter:
// conflicts, not-founds and unavailables must come back as their mapped
// HTTP statuses against a real cluster.
func TestLiveServiceErrors(t *testing.T) {
	h := startLiveHarness(t, nil) // no checkpoint path configured
	ctx := context.Background()
	op := h.client("tok-operate")
	admin := h.client("tok-admin")

	wantStatus := func(err error, status int, what string) {
		t.Helper()
		var re *api.RemoteError
		if !errors.As(err, &re) || re.StatusCode != status {
			t.Fatalf("%s err = %v, want HTTP %d", what, err, status)
		}
	}

	if _, err := op.RegisterDeployment(ctx, api.DeploymentSpec{Name: "dup", Server: "lv-00", Cores: 2, Util: 0.4}); err != nil {
		t.Fatal(err)
	}
	_, err := op.RegisterDeployment(ctx, api.DeploymentSpec{Name: "dup", Server: "lv-01", Cores: 2, Util: 0.4})
	wantStatus(err, http.StatusConflict, "duplicate deployment")

	_, err = op.RegisterDeployment(ctx, api.DeploymentSpec{Name: "ghost", Server: "lv-99", Cores: 2, Util: 0.4})
	wantStatus(err, http.StatusNotFound, "unknown server")

	_, err = op.RegisterDeployment(ctx, api.DeploymentSpec{Name: "huge", Server: "lv-00", Cores: 10000, Util: 0.4})
	wantStatus(err, http.StatusConflict, "over-allocating deployment")

	wantStatus(op.DrainDeployment(ctx, "nobody"), http.StatusNotFound, "draining a stranger")
	wantStatus(op.StopOverclock(ctx, api.StopSpec{Server: "lv-00", VM: "dup"}), http.StatusNotFound, "stopping a non-session")

	_, err = h.client("tok-chaos").SetChaos(ctx, api.ChaosSpec{Agent: "soa/lv-99", Down: true})
	wantStatus(err, http.StatusNotFound, "chaos on unknown agent")

	_, err = op.AssignBudgets(ctx, api.AssignSpec{})
	wantStatus(err, http.StatusServiceUnavailable, "assign with no profiles")

	_, err = admin.ForceCheckpoint(ctx)
	wantStatus(err, http.StatusServiceUnavailable, "checkpoint without a path")

	// The reserved VM name and malformed specs die in validation.
	_, err = op.RegisterDeployment(ctx, api.DeploymentSpec{Name: "vm", Server: "lv-00", Cores: 1, Util: 0.4})
	wantStatus(err, http.StatusBadRequest, "reserved deployment name")

	if res := h.stop(t); res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
}

// TestAdvanceRequiresHold pins the free-running mode contract: advance is a
// hold-mode verb and conflicts otherwise, while other mutations still work.
func TestAdvanceRequiresHold(t *testing.T) {
	ctrl := NewLiveController()
	cfg := DefaultLiveConfig()
	cfg.Pace = time.Millisecond
	cfg.Duration = 10 * time.Minute
	cfg.Control = ctrl
	handler, err := api.Config{Tokens: liveCreds}.Build(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	done := make(chan error, 1)
	go func() {
		_, err := RunLive(cfg, nil)
		done <- err
	}()

	ctx := context.Background()
	admin := api.NewClient(ts.URL, "tok-admin")
	_, aerr := admin.Advance(ctx, api.AdvanceSpec{Ticks: 1})
	var re *api.RemoteError
	if !errors.As(aerr, &re) || re.StatusCode != http.StatusConflict {
		t.Fatalf("advance in free-run err = %v, want 409", aerr)
	}
	if err := api.NewClient(ts.URL, "tok-operate").SetSeverity(ctx, api.SeveritySpec{Server: "lv-00", Severity: 1}); err != nil {
		t.Fatalf("severity in free-run: %v", err)
	}
	if err := admin.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("free-running live run did not stop")
	}
}

// TestHoldRequiresController pins config validation.
func TestHoldRequiresController(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Hold = true
	if _, err := RunLive(cfg, nil); err == nil {
		t.Fatal("hold mode without a controller was accepted")
	}
	cfg = DefaultLiveConfig()
	cfg.HW.Cores = 0
	if _, err := RunLive(cfg, nil); err == nil {
		t.Fatal("a server without cores was accepted")
	}
}

// loadSmokeRun boots a held cluster, mutates it from concurrent clients with
// disjoint per-server targets, advances deterministically, forces a final
// checkpoint, and returns the checkpoint bytes with the run result.
func loadSmokeRun(t *testing.T, seed int64) ([]byte, *api.ClusterStatus, *LiveResult) {
	t.Helper()
	ckptPath := filepath.Join(t.TempDir(), "state.json")
	h := startLiveHarness(t, func(cfg *LiveConfig) {
		cfg.Seed = seed
		cfg.CheckpointPath = ckptPath
		cfg.CheckpointEvery = time.Minute
	})
	ctx := context.Background()
	const workers = 4 // one per server: disjoint targets keep phase A commutative
	const roundsPerWorker = 10

	// Phase A: concurrent mutation storm. Zero ticks elapse (hold mode) and
	// each worker only touches its own server and deployment, so the final
	// world is independent of interleaving.
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := h.client("tok-operate")
			server := fmt.Sprintf("lv-%02d", i)
			dep := fmt.Sprintf("load-%d", i)
			if _, err := c.RegisterDeployment(ctx, api.DeploymentSpec{Name: dep, Server: server, Cores: 2, Util: 0.45}); err != nil {
				errs <- fmt.Errorf("%s deploy: %w", server, err)
				return
			}
			for j := 0; j < roundsPerWorker; j++ {
				if err := c.SetProfile(ctx, api.ProfileSpec{
					Server: server, MedianWatts: 180 + float64(10*i), RequestedCores: 4, GrantedCores: 2,
				}); err != nil {
					errs <- fmt.Errorf("%s profile: %w", server, err)
					return
				}
				if err := c.SetBudget(ctx, api.BudgetSpec{Server: server, Watts: 400 + float64(25*i)}); err != nil {
					errs <- fmt.Errorf("%s budget: %w", server, err)
					return
				}
				if err := c.SetSeverity(ctx, api.SeveritySpec{Server: server, Severity: i % 4}); err != nil {
					errs <- fmt.Errorf("%s severity: %w", server, err)
					return
				}
			}
			st, err := c.StartOverclock(ctx, api.OCSpec{Server: server, VM: dep})
			if err != nil {
				errs <- fmt.Errorf("%s oc: %w", server, err)
				return
			}
			_ = st // admission may deny under the rack limit; the decision itself must be clean
		}()
	}
	// A reader hammers Status throughout the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := h.client("tok-read")
		for j := 0; j < 3*roundsPerWorker; j++ {
			if _, err := c.Status(ctx); err != nil {
				errs <- fmt.Errorf("reader: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Phase B: deterministic time. 60 ticks of 5 s crosses several profile,
	// budget and checkpoint periods, all under the invariant battery.
	admin := h.client("tok-admin")
	adv, err := admin.Advance(ctx, api.AdvanceSpec{Ticks: 60})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Ticks != 60 {
		t.Fatalf("advanced %d ticks, want 60", adv.Ticks)
	}

	// Phase C: force the final checkpoint and capture the world.
	cp, err := admin.ForceCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cp.Bytes {
		t.Fatalf("checkpoint file %d bytes, status says %d", len(data), cp.Bytes)
	}
	st := statusOf(t, h.client("tok-read"))
	res := h.stop(t)
	return data, st, res
}

// TestControlPlaneLoadSmoke is the load battery of the acceptance criteria:
// concurrent clients mutate a live cluster (run under -race in CI), the
// invariant battery must stay silent, the checkpoint metrics must agree
// with the API's accounting, and two runs of the same seed must land on
// byte-identical final checkpoints.
func TestControlPlaneLoadSmoke(t *testing.T) {
	data1, st1, res1 := loadSmokeRun(t, 7)
	data2, st2, res2 := loadSmokeRun(t, 7)

	if res1.Violations != 0 || res2.Violations != 0 {
		t.Fatalf("invariant violations = %d / %d, want 0", res1.Violations, res2.Violations)
	}
	if st1.Violations != 0 {
		t.Fatalf("status reports %d violations", st1.Violations)
	}

	// Cross-check the checkpoint accounting across all three surfaces:
	// result counter, status endpoint, and the checkpoint_* metrics.
	if res1.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want periodic (5 min / 1 min) plus the forced one", res1.Checkpoints)
	}
	if st1.Checkpoint.Writes != res1.Checkpoints {
		t.Fatalf("status writes %d != result checkpoints %d", st1.Checkpoint.Writes, res1.Checkpoints)
	}
	if got := res1.Metrics.SumByName("checkpoint_writes_total"); got != float64(res1.Checkpoints) {
		t.Fatalf("checkpoint_writes_total = %g, result says %d", got, res1.Checkpoints)
	}
	if got := res1.Metrics.SumByName("checkpoint_errors_total"); got != 0 {
		t.Fatalf("checkpoint_errors_total = %g", got)
	}
	if res1.Metrics.SumByName("checkpoint_bytes") == 0 {
		t.Fatal("checkpoint_bytes gauge never set")
	}

	// Determinism: same seed, same concurrent storm (commutative by
	// construction), same ticks — the final durable state must match to the
	// byte.
	if !bytes.Equal(data1, data2) {
		t.Fatalf("checkpoints differ across identical seeds: %d vs %d bytes", len(data1), len(data2))
	}
	if res1.Ticks != res2.Ticks || res1.Ticks != 60 {
		t.Fatalf("ticks = %d / %d, want 60", res1.Ticks, res2.Ticks)
	}
	// The mutation surfaces agree too (modulo wall-clock-free fields).
	if b1, b2 := mustJSON(t, st1.Servers), mustJSON(t, st2.Servers); !bytes.Equal(b1, b2) {
		t.Fatalf("server states differ across identical seeds:\n%s\n%s", b1, b2)
	}
}

// holdLargeRackRun drives a held 300-server cluster up to its first budget
// push and one tick past it (the tick that drains the push), then returns the
// forced final checkpoint with the run result.
func holdLargeRackRun(t *testing.T) ([]byte, *LiveResult) {
	t.Helper()
	ckptPath := filepath.Join(t.TempDir(), "state.json")
	h := startLiveHarness(t, func(cfg *LiveConfig) {
		cfg.Servers = 300
		cfg.CheckpointPath = ckptPath
	})
	ctx := context.Background()
	admin := h.client("tok-admin")
	// Profiles go up at tick 24 and land at 25; the push at tick 36 is the
	// first the gOA can fund; tick 37 applies it.
	for _, ticks := range []int{24, 12, 1} {
		if _, err := admin.Advance(ctx, api.AdvanceSpec{Ticks: ticks}); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := admin.ForceCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	return data, h.stop(t)
}

// TestHoldModeLargeRackLosesNoMessages is the regression test for silent
// message loss: a budget push to more servers than the (once fixed, 256-deep)
// inbox holds used to shed the excess without a trace, leaving hold mode's
// "the next tick drains exactly what this tick sent" untrue. Every server
// must see the push, and two same-seed runs must stay violation-free and
// land on byte-identical checkpoints.
func TestHoldModeLargeRackLosesNoMessages(t *testing.T) {
	data1, res1 := holdLargeRackRun(t)
	data2, res2 := holdLargeRackRun(t)
	if res1.Violations != 0 || res2.Violations != 0 {
		t.Fatalf("violations = %d / %d, want 0 (a shed message or a timed-out delivery barrier counts)",
			res1.Violations, res2.Violations)
	}
	budgeted := map[string]bool{}
	for _, r := range res1.Provenance.Records {
		if r.Site == "soa.budget" {
			budgeted[r.Subject] = true
		}
	}
	if len(budgeted) != 300 {
		t.Fatalf("%d of 300 sOAs applied the budget push", len(budgeted))
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("checkpoints differ across identical runs: %d vs %d bytes", len(data1), len(data2))
	}
}
