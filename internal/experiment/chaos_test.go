package experiment

import (
	"testing"
	"time"
)

// TestChaosRunHoldsInvariants is the gOA-unavailability ablation as a
// regression test: a 3-hour run with 25% message loss, delays, duplicates,
// a 1-hour gOA outage and 6 sOA crash/restarts must finish with zero
// invariant violations — and must not be vacuously safe (overclocking was
// granted, messages were actually lost, faults actually fired).
func TestChaosRunHoldsInvariants(t *testing.T) {
	cfg := DefaultChaosConfig()
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("invariants violated:\n%v", res.Err)
	}

	// Non-vacuity: the safety result only means something if the run was
	// genuinely hostile and genuinely overclocking.
	if lf := res.Transport.LossFraction(); lf < 0.20 {
		t.Errorf("loss fraction %.3f < 0.20 — fault injection too gentle", lf)
	}
	if res.Granted == 0 {
		t.Error("no overclock session was ever granted — nothing was at risk")
	}
	if res.Crashes == 0 || res.Restarts == 0 {
		t.Errorf("crashes=%d restarts=%d — process faults did not fire", res.Crashes, res.Restarts)
	}
	if res.StaleBudgetTicks == 0 {
		t.Error("no stale-budget ticks — the gOA outage never forced a fallback")
	}
	if res.InvariantChecks == 0 {
		t.Fatal("invariant checker never ran")
	}
	wantTicks := int(cfg.Duration / cfg.Tick)
	if res.Ticks < wantTicks-1 {
		t.Errorf("ticks = %d, want ~%d", res.Ticks, wantTicks)
	}
}

// TestChaosWarmRestart: with checkpointing on, crashed sOAs come back from
// their last checkpoint instead of cold — and the run stays invariant-clean.
func TestChaosWarmRestart(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.WarmRestart = true
	cfg.CheckpointEvery = 2 * time.Minute
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("invariants violated under warm restart:\n%v", res.Err)
	}
	if res.Checkpoints == 0 {
		t.Fatal("no checkpoints taken despite CheckpointEvery")
	}
	if res.Restarts == 0 {
		t.Fatal("no restarts fired — warm path untested")
	}
	// Crashes are scheduled from 5 minutes in and the first checkpoint lands
	// at 2 minutes, so every restart should have had a checkpoint to restore.
	if res.WarmRestores != res.Restarts {
		t.Errorf("warm restores = %d, restarts = %d — some restarts fell back to cold", res.WarmRestores, res.Restarts)
	}

	// Warm restart must also be deterministic.
	again, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Transport != res.Transport || again.Granted != res.Granted ||
		again.WarmRestores != res.WarmRestores || again.Checkpoints != res.Checkpoints {
		t.Errorf("warm-restart run not deterministic: %+v vs %+v", res, again)
	}
}

// TestChaosDeterministic: same config, same seed — identical run, down to
// every fault counter and every decision.
func TestChaosDeterministic(t *testing.T) {
	cold := DefaultChaosConfig()
	cold.Duration = 45 * time.Minute
	cold.GOAOutageStart = 15 * time.Minute
	cold.GOAOutage = 10 * time.Minute
	cold.SOACrashes = 2
	warm := cold
	warm.SOACrashes = 4
	warm.WarmRestart = true
	warm.CheckpointEvery = 2 * time.Minute
	for _, cfg := range []ChaosConfig{cold, warm} {
		a, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.WarmRestart && a.WarmRestores == 0 {
			t.Errorf("warm run restored no sOA from a checkpoint (%d restarts)", a.Restarts)
		}
		if a.Transport != b.Transport {
			t.Errorf("warm=%v: transport stats differ: %+v vs %+v", cfg.WarmRestart, a.Transport, b.Transport)
		}
		if a.Requests != b.Requests || a.Granted != b.Granted {
			t.Errorf("warm=%v: oc activity differs: %d/%d vs %d/%d", cfg.WarmRestart, a.Requests, a.Granted, b.Requests, b.Granted)
		}
		if a.StaleBudgetTicks != b.StaleBudgetTicks || a.CapEvents != b.CapEvents || a.Warnings != b.Warnings ||
			a.Crashes != b.Crashes || a.Restarts != b.Restarts ||
			a.Checkpoints != b.Checkpoints || a.WarmRestores != b.WarmRestores {
			t.Errorf("warm=%v: run metrics differ: %+v vs %+v", cfg.WarmRestart, a, b)
		}
	}
}

func TestChaosConfigValidate(t *testing.T) {
	ok := DefaultChaosConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*ChaosConfig){
		"zero tick":       func(c *ChaosConfig) { c.Tick = 0 },
		"no servers":      func(c *ChaosConfig) { c.Servers = 0 },
		"no budget":       func(c *ChaosConfig) { c.OCBudgetFraction = 0 },
		"grace sub-tick":  func(c *ChaosConfig) { c.EnforcementGrace = c.Tick / 2 },
		"short duration":  func(c *ChaosConfig) { c.Duration = c.Tick / 2 },
		"zero rack limit": func(c *ChaosConfig) { c.RackLimitScale = 0 },
		"drop over 1":     func(c *ChaosConfig) { c.DropProb = 1.5 },
		"no cores":        func(c *ChaosConfig) { c.HW.Cores = 0 },
	} {
		cfg := DefaultChaosConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config validated", name)
		}
		if _, err := RunChaos(cfg); err == nil {
			t.Errorf("%s: RunChaos accepted invalid config", name)
		}
	}
}
