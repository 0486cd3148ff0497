package experiment

import (
	"strings"
	"testing"
	"time"

	"smartoclock/internal/parallel"
	"smartoclock/internal/power"
)

// smokeOversubCfg shrinks the oversubscription sweep for CI: same ratio
// sweep and arrival machinery as the default profile, 40 simulated minutes.
func smokeOversubCfg() OversubConfig {
	cfg := DefaultOversubConfig()
	cfg.Duration = 40 * time.Minute
	cfg.Arrivals = 12
	cfg.ArrivalEvery = 3 * time.Minute
	return cfg
}

func TestOversubConfigValidate(t *testing.T) {
	mod := func(f func(*OversubConfig)) OversubConfig {
		cfg := DefaultOversubConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  OversubConfig
		ok   bool
	}{
		{"default", DefaultOversubConfig(), true},
		{"smoke", smokeOversubCfg(), true},
		{"zero tick", mod(func(c *OversubConfig) { c.Tick = 0 }), false},
		{"duration under tick", mod(func(c *OversubConfig) { c.Duration = time.Second }), false},
		{"no ratios", mod(func(c *OversubConfig) { c.Ratios = nil }), false},
		{"negative ratio", mod(func(c *OversubConfig) { c.Ratios = []float64{1.0, -0.5} }), false},
		{"zero limit", mod(func(c *OversubConfig) { c.LimitWatts = 0 }), false},
		{"no arrivals", mod(func(c *OversubConfig) { c.Arrivals = 0 }), false},
		{"zero arrival spacing", mod(func(c *OversubConfig) { c.ArrivalEvery = 0 }), false},
		{"huge history step", mod(func(c *OversubConfig) { c.HistoryStep = 48 * time.Hour }), false},
		{"quantile over 1", mod(func(c *OversubConfig) { c.Quantile = 1.5 }), false},
		{"zero template age", mod(func(c *OversubConfig) { c.MaxTemplateAge = 0 }), false},
		{"no base servers", mod(func(c *OversubConfig) { c.BaseServers = 0 }), false},
		{"limit scale at 1", mod(func(c *OversubConfig) { c.ContentionLimitScale = 1.0 }), false},
		{"zero budget epoch", mod(func(c *OversubConfig) { c.BudgetEpoch = 0 }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

// TestRunOversubInvariantsHold is the headline safety test: across the
// ratio sweep, admission plus severity-ordered capping keep both
// oversubscription invariants green — and the run is not vacuous (servers
// were admitted, rejected, conservatively assessed, and the rack actually
// had to cap).
func TestRunOversubInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("oversubscription sweep")
	}
	res, err := RunOversub(smokeOversubCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("invariant violations: %v", res.Err)
	}
	var admitted, rejected, fallback, caps int
	for _, c := range res.Cells {
		if c.InvariantChecks == 0 {
			t.Fatalf("ratio %.2f: invariants never ran", c.Ratio)
		}
		if c.Offered == 0 {
			t.Fatalf("ratio %.2f: no arrivals offered", c.Ratio)
		}
		if c.Offered != c.Admitted+c.Rejected {
			t.Fatalf("ratio %.2f: offered %d != admitted %d + rejected %d",
				c.Ratio, c.Offered, c.Admitted, c.Rejected)
		}
		admitted += c.Admitted
		rejected += c.Rejected
		fallback += c.Fallback
		caps += c.CapEvents
	}
	if admitted == 0 || rejected == 0 || fallback == 0 {
		t.Fatalf("vacuous sweep: admitted=%d rejected=%d fallback=%d — every admission path must be exercised",
			admitted, rejected, fallback)
	}
	if caps == 0 {
		t.Fatal("vacuous sweep: capping never engaged, the severity discipline went untested")
	}
	// More oversubscription budget must never admit fewer deployments.
	for i := 1; i < len(res.Cells); i++ {
		lo, hi := res.Cells[i-1], res.Cells[i]
		if hi.Ratio > lo.Ratio && hi.Admitted < lo.Admitted {
			t.Fatalf("ratio %.2f admitted %d < ratio %.2f admitted %d",
				hi.Ratio, hi.Admitted, lo.Ratio, lo.Admitted)
		}
	}
}

// TestRunContentionTradeoff checks the combined sweep: overclock sessions
// and oversubscription admission share one rack without violating any
// invariant (the overclock battery stays armed), overclocking actually
// delivers core-hours, and raising the ratio admits at least as many
// deployments.
func TestRunContentionTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep")
	}
	res, err := RunContention(smokeOversubCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("invariant violations: %v", res.Err)
	}
	for i, c := range res.Cells {
		if c.OCCoreHours <= 0 {
			t.Fatalf("ratio %.2f: no overclocked core-hours delivered", c.Ratio)
		}
		if c.InvariantChecks == 0 {
			t.Fatalf("ratio %.2f: invariants never ran", c.Ratio)
		}
		if i > 0 && c.Ratio > res.Cells[i-1].Ratio && c.Admitted < res.Cells[i-1].Admitted {
			t.Fatalf("ratio %.2f admitted %d < ratio %.2f admitted %d",
				c.Ratio, c.Admitted, res.Cells[i-1].Ratio, res.Cells[i-1].Admitted)
		}
	}
}

// RunOversubCanary runs the deliberately unsafe negative controls at an
// aggressive ratio with admission bypassed: one cell with capping disabled
// (invariant.NoBrownout must fire — over-admission without enforcement
// browns the rack out) and one with severity-inverted capping
// (invariant.SeverityOrder must fire — critical work shed while harvest
// runs free). A battery that stays green under these cells is silently
// broken.
func RunOversubCanary(cfg OversubConfig) (noCapping, inverted *OversubCellResult, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	const canaryRatio = 1.6
	noCapping = runOversubCell(cfg, canaryRatio, parallel.ChildSeed(cfg.Seed, 900),
		false, power.CapDisabledUnsafe, true)
	inverted = runOversubCell(cfg, canaryRatio, parallel.ChildSeed(cfg.Seed, 901),
		false, power.CapInvertedUnsafe, true)
	return noCapping, inverted, nil
}

// TestRunOversubCanary proves the battery has teeth. Over-admission with
// capping disabled must trip invariant.NoBrownout; severity-inverted
// capping must trip invariant.SeverityOrder. If either unsafe cell comes
// back green, the invariants are decorative.
func TestRunOversubCanary(t *testing.T) {
	if testing.Short() {
		t.Skip("canary cells")
	}
	noCapping, inverted, err := RunOversubCanary(smokeOversubCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertTripped := func(cell *OversubCellResult, invariantName, mode string) {
		t.Helper()
		if cell.Err == nil {
			t.Fatalf("%s cell reported no violations — the %s invariant is not protecting anything",
				mode, invariantName)
		}
		for _, v := range cell.Violations {
			if v.Invariant == invariantName {
				return
			}
		}
		t.Fatalf("%s cell violated invariants, but never %q: %v", mode, invariantName, cell.Err)
	}
	assertTripped(noCapping, "no-brownout", "capping-disabled")
	assertTripped(inverted, "severity-order", "severity-inverted")
}

// TestOversubDeterminism asserts the byte-identity contract for both
// runners: any worker count, any dispatch shuffle, same formatted tables.
func TestOversubDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated sweeps")
	}
	base := smokeOversubCfg()
	base.Duration = 24 * time.Minute
	base.Arrivals = 8
	for _, seed := range []int64{1, 7, 1234} {
		cfg := base
		cfg.Seed = seed
		cfg.Workers = 1
		cfg.ShuffleSeed = 0
		ov, err := RunOversub(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := RunContention(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantOv, wantCt := ov.Format(), ct.Format()
		for _, workers := range []int{2, 8} {
			for _, shuffle := range []int64{0, 99} {
				cfg.Workers = workers
				cfg.ShuffleSeed = shuffle
				ov2, err := RunOversub(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := ov2.Format(); got != wantOv {
					t.Fatalf("seed %d workers=%d shuffle=%d: RunOversub output differs\n--- want ---\n%s\n--- got ---\n%s",
						seed, workers, shuffle, wantOv, got)
				}
				ct2, err := RunContention(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := ct2.Format(); got != wantCt {
					t.Fatalf("seed %d workers=%d shuffle=%d: RunContention output differs\n--- want ---\n%s\n--- got ---\n%s",
						seed, workers, shuffle, wantCt, got)
				}
			}
		}
	}
}

func TestOversubGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("oversubscription sweep")
	}
	res, err := RunOversub(smokeOversubCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	checkGolden(t, "oversub_smoke.golden", res.Format())
}

func TestContentionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep")
	}
	res, err := RunContention(smokeOversubCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	checkGolden(t, "contention_smoke.golden", res.Format())
}

// TestOversubFormatMentionsInvariants pins the report captions to their
// safety framing so socreport keeps telling readers what zero violations
// certifies.
func TestOversubFormatMentionsInvariants(t *testing.T) {
	r := &OversubResult{Cells: []OversubCellResult{{Ratio: 1}}}
	if !strings.Contains(r.Format(), "invariant violations must be 0") {
		t.Fatal("oversub table caption lost its invariant framing")
	}
	c := &ContentionResult{Cells: []OversubCellResult{{Ratio: 1}}}
	if !strings.Contains(c.Format(), "OC core-h") {
		t.Fatal("contention table lost its overclock column")
	}
}
