package experiment

import (
	"strings"
	"testing"
	"time"

	"smartoclock/internal/policy"
	"smartoclock/internal/trace"
)

// TestZooMatrixZeroViolations is the zoo's acceptance bar: every safe
// policy set crossed with every scenario runs with zero invariant
// violations, and no cell is vacuously safe — each one actually requests,
// grants, and audits overclocking while enforcement stays busy.
func TestZooMatrixZeroViolations(t *testing.T) {
	cfg := DefaultZooConfig()
	res, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	pols, scs := map[string]bool{}, map[string]bool{}
	warnings := 0
	for _, c := range res.Cells {
		pols[c.Policy] = true
		scs[c.Scenario] = true
		warnings += c.Warnings
		if len(c.Violations) != 0 {
			t.Errorf("%s×%s: %d violations", c.Policy, c.Scenario, len(c.Violations))
		}
		if c.Requests == 0 || c.Granted == 0 {
			t.Errorf("%s×%s: vacuous cell (req=%d granted=%d)", c.Policy, c.Scenario, c.Requests, c.Granted)
		}
		if c.AdmissionAudits == 0 {
			t.Errorf("%s×%s: admission audit saw no decisions", c.Policy, c.Scenario)
		}
		if c.InvariantChecks == 0 {
			t.Errorf("%s×%s: invariant checker never ran", c.Policy, c.Scenario)
		}
	}
	if len(pols) < 2 {
		t.Errorf("matrix covers %d policy sets, want ≥2", len(pols))
	}
	if len(scs) < 5 {
		t.Errorf("matrix covers %d scenarios, want ≥5", len(scs))
	}
	if warnings == 0 {
		t.Error("no rack warnings anywhere: enforcement never engaged")
	}
}

// TestZooCanaryPolicyDetected is the negative control: an intentionally
// over-granting admission policy must trip the decision-time admission
// audit. A zoo that stays green under the canary has a silently broken
// checker, not a safe policy.
func TestZooCanaryPolicyDetected(t *testing.T) {
	cfg := DefaultZooConfig()
	cfg.Duration = 30 * time.Minute
	res := RunZooCell(cfg, policy.Canary(), trace.ZooBenign(cfg.Seed), 7)
	if res.Err == nil {
		t.Fatal("canary policy ran violation-free: the invariant checker is silently green")
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "admission-within-budget" {
			found = true
			if !strings.Contains(v.Detail, "over-grant") {
				t.Errorf("violation does not name the policy: %s", v.Detail)
			}
			break
		}
	}
	if !found {
		t.Fatalf("no admission-within-budget violation among %d; first: %v",
			len(res.Violations), res.Violations[0])
	}
}

// TestZooDeterminismAcrossWorkers extends the byte-determinism suite to
// every zoo scenario: the full matrix renders byte-identically at workers
// 1, 2 and 8, with and without shuffled dispatch.
func TestZooDeterminismAcrossWorkers(t *testing.T) {
	cfg := DefaultZooConfig()
	cfg.Duration = 20 * time.Minute
	run := func(workers int, shuffle int64) string {
		c := cfg
		c.Workers = workers
		c.ShuffleSeed = shuffle
		res, err := RunZoo(c)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format()
	}
	want := run(1, 0)
	if !strings.Contains(want, "benign") || !strings.Contains(want, "sensor-drift") {
		t.Fatalf("matrix output missing scenarios:\n%s", want)
	}
	for _, w := range []int{2, 8} {
		for _, shuffle := range []int64{0, 12345, 777} {
			if got := run(w, shuffle); got != want {
				t.Fatalf("workers=%d shuffle=%d diverges from workers=1:\n--- want ---\n%s\n--- got ---\n%s",
					w, shuffle, want, got)
			}
		}
	}
}

// TestZooSeedChangesOutcome guards against a matrix frozen by accident: a
// different root seed must actually change what happens.
func TestZooSeedChangesOutcome(t *testing.T) {
	cfg := DefaultZooConfig()
	cfg.Duration = 20 * time.Minute
	a, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1234
	b, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() == b.Format() {
		t.Fatal("seeds 1 and 1234 produce identical matrices")
	}
}

func TestZooConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*ZooConfig){
		"zero tick":       func(c *ZooConfig) { c.Tick = 0 },
		"grace sub-tick":  func(c *ZooConfig) { c.EnforcementGrace = time.Second },
		"zero rack limit": func(c *ZooConfig) { c.RackLimitScale = 0 },
		"drop over 1":     func(c *ZooConfig) { c.DropProb = 1.5 },
	} {
		cfg := DefaultZooConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config validated", name)
		}
		if _, err := RunZoo(cfg); err == nil {
			t.Errorf("%s: RunZoo accepted invalid config", name)
		}
	}
}
