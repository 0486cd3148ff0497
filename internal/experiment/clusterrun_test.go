package experiment

import (
	"testing"
	"time"

	"smartoclock/internal/invariant"
)

// clusterUnderBattery steps cfg's emulation tick by tick with the rig
// invariant battery armed and checked at the end of every tick: on each rack
// the rig's watch (rack power within its limit after a 15 s grace, gOA
// budget conservation where the rig booted a gOA, sessions within their
// grant) and the independent per-core lifetime accounting.
func clusterUnderBattery(t *testing.T, cfg ClusterConfig) *invariant.Checker {
	t.Helper()
	r, err := newClusterRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := invariant.NewChecker()
	slack := 12 * cfg.Tick
	r.main.watch(c, 15*time.Second)
	r.main.watchLedgers(c, slack)
	r.spare.watch(c, 15*time.Second)
	r.spare.watchLedgers(c, slack)
	ticks := int(cfg.Duration / cfg.Tick)
	for tick := 0; tick < ticks; tick++ {
		r.tick(tick)
		c.Check(r.now)
	}
	if got := c.Checks(); got != int64(ticks) {
		t.Errorf("%d checks, want one per tick (%d)", got, ticks)
	}
	return c
}

// TestClusterUnderInvariantBattery holds the Figs 12–14 emulation to the
// paper's two safety claims. SmartOClock keeps rack power within its limit
// and every core within its lifetime budget with a generous budget, a
// scarce one and a lowered rack limit. NaiveOClock, which grants every
// request, overdraws the scarce budget and violates nothing else.
func TestClusterUnderInvariantBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulations")
	}
	for _, tc := range []struct {
		name          string
		sys           ClusterSystem
		budget, limit float64
	}{
		{"SmartOClock/budget=2", SysSmartOClock, 2, 1},
		{"SmartOClock/budget=0.05", SysSmartOClock, 0.05, 1},
		{"SmartOClock/limit=0.8", SysSmartOClock, 2, 0.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smokeClusterCfg(tc.sys)
			cfg.OCBudgetScale, cfg.RackLimitScale = tc.budget, tc.limit
			if err := clusterUnderBattery(t, cfg).Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("NaiveOClock/budget=0.05", func(t *testing.T) {
		cfg := smokeClusterCfg(SysNaiveOClock)
		cfg.OCBudgetScale = 0.05
		c := clusterUnderBattery(t, cfg)
		if c.Total() == 0 {
			t.Fatal("naive overclocking kept every core within a 5% lifetime budget")
		}
		for _, v := range c.Violations() {
			if v.Invariant != "core-budget-never-overdrawn" {
				t.Errorf("unexpected violation %v", v)
			}
		}
		t.Logf("%d violations, first %v", c.Total(), c.Violations()[0])
	})
}

// TestNaiveOClockBootsNoGOA: NaiveOClock grants every request and splits no
// budget, so an observed power-constrained sweep exports gOA series for
// SmartOClock only.
func TestNaiveOClockBootsNoGOA(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulations")
	}
	cfg := smokeClusterCfg(SysBaseline)
	cfg.Observe = true
	_, pc, err := RunPowerConstrained(cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"goa_budget_computations_total", "goa_last_budget_sum_watts"} {
		for sys, want := range map[ClusterSystem]bool{SysNaiveOClock: false, SysSmartOClock: true} {
			got := false
			for _, s := range pc[sys].Metrics.Series {
				got = got || s.Name == name
			}
			if got != want {
				t.Errorf("%v exports %s: %v, want %v", sys, name, got, want)
			}
		}
	}
}
