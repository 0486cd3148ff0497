package experiment

import (
	"reflect"
	"testing"
	"time"
)

// TestRecoveryWarmBeatsCold is the headline acceptance test: after a
// control-plane crash, a warm restart (restored from a checkpoint) must show
// a strictly smaller grant-availability gap than a cold restart, at every
// checkpoint staleness — and must recover overclocking sooner.
func TestRecoveryWarmBeatsCold(t *testing.T) {
	res, err := RunRecovery(DefaultRecoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleCoreTicks == 0 {
		t.Fatal("oracle run never granted — the rig is vacuous")
	}
	if len(res.Runs) < 2 || res.Runs[0].Mode != "cold" {
		t.Fatalf("unexpected run set: %+v", res.Runs)
	}
	cold := res.Runs[0]
	if cold.GapCoreTicks <= 0 {
		t.Fatalf("cold restart shows no availability gap (%d) — nothing to recover from", cold.GapCoreTicks)
	}
	warms := res.Runs[1:]
	if len(warms) != len(res.Config.Staleness) {
		t.Fatalf("want %d warm runs, got %d", len(res.Config.Staleness), len(warms))
	}
	for _, w := range warms {
		if w.Mode != "warm" {
			t.Fatalf("unexpected mode %q", w.Mode)
		}
		if w.GapCoreTicks >= cold.GapCoreTicks {
			t.Errorf("warm(staleness=%v) gap %d not strictly smaller than cold gap %d",
				w.Staleness, w.GapCoreTicks, cold.GapCoreTicks)
		}
		if cold.TimeToFirstGrant >= 0 && w.TimeToFirstGrant >= 0 &&
			w.TimeToFirstGrant > cold.TimeToFirstGrant {
			t.Errorf("warm(staleness=%v) first grant %v slower than cold %v",
				w.Staleness, w.TimeToFirstGrant, cold.TimeToFirstGrant)
		}
		// A warm gOA restores its profiles, so it never misses more pushes
		// than the cold gOA, which has to relearn them.
		if w.PushesMissed > cold.PushesMissed {
			t.Errorf("warm(staleness=%v) missed %d pushes, cold missed %d",
				w.Staleness, w.PushesMissed, cold.PushesMissed)
		}
	}

	// The table renders without issue and names every run.
	if s := res.Format(); len(s) == 0 {
		t.Fatal("empty report")
	}
}

// TestRecoveryDeterministic: the sweep is a pure function of its config.
func TestRecoveryDeterministic(t *testing.T) {
	cfg := DefaultRecoveryConfig()
	cfg.Duration = 40 * time.Minute
	cfg.CrashAt = 20 * time.Minute
	cfg.Staleness = []time.Duration{5 * time.Minute}
	a, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OracleCoreTicks != b.OracleCoreTicks || !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Errorf("recovery sweep not deterministic:\n%+v\nvs\n%+v", a.Runs, b.Runs)
	}
}

func TestRecoveryConfigValidate(t *testing.T) {
	if err := DefaultRecoveryConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*RecoveryConfig){
		"zero tick":       func(c *RecoveryConfig) { c.Tick = 0 },
		"one server":      func(c *RecoveryConfig) { c.Servers = 1 },
		"crash past end":  func(c *RecoveryConfig) { c.CrashAt = c.Duration },
		"stale pre-start": func(c *RecoveryConfig) { c.Staleness = []time.Duration{c.CrashAt + time.Minute} },
		"zero rack limit": func(c *RecoveryConfig) { c.RackLimitScale = 0 },
		"no cores":        func(c *RecoveryConfig) { c.HW.Cores = 0 },
	} {
		cfg := DefaultRecoveryConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config validated", name)
		}
		if _, err := RunRecovery(cfg); err == nil {
			t.Errorf("%s: RunRecovery accepted invalid config", name)
		}
	}
}
