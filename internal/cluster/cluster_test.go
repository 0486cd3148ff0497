package cluster

import (
	"testing"
	"time"

	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/power"
)

// Interface conformance checks.
var (
	_ core.Host    = (*Server)(nil)
	_ power.Server = (*Server)(nil)
)

func newServer() *Server {
	cfg := machine.DefaultConfig()
	cfg.Cores = 8
	return NewServer("s1", cfg, 0)
}

func TestInitialFrequencies(t *testing.T) {
	s := newServer()
	for i := 0; i < s.NumCores(); i++ {
		if s.EffectiveFreq(i) != s.TurboMHz() {
			t.Fatalf("core %d initial = %d", i, s.EffectiveFreq(i))
		}
	}
}

func TestDesiredFreqApplied(t *testing.T) {
	s := newServer()
	s.SetDesiredFreq(0, 4000)
	if s.EffectiveFreq(0) != 4000 || s.DesiredFreq(0) != 4000 {
		t.Fatalf("freq = %d/%d", s.EffectiveFreq(0), s.DesiredFreq(0))
	}
}

func TestCapCeilingBoundsEffectiveFreq(t *testing.T) {
	s := newServer()
	s.SetDesiredFreq(0, 4000)
	// 7 levels: ceiling = 4000 - 700 = 3300 (turbo).
	s.ForceCap(7)
	if s.EffectiveFreq(0) != 3300 {
		t.Fatalf("capped freq = %d, want 3300", s.EffectiveFreq(0))
	}
	// Deeper: below turbo.
	s.ForceCap(10)
	if s.EffectiveFreq(0) != 3000 {
		t.Fatalf("capped freq = %d, want 3000", s.EffectiveFreq(0))
	}
	// Desired preserved; uncapping restores it.
	s.ForceCap(0)
	if s.EffectiveFreq(0) != 4000 {
		t.Fatalf("uncapped freq = %d, want 4000", s.EffectiveFreq(0))
	}
}

func TestCapLevelClamps(t *testing.T) {
	s := newServer()
	s.ForceCap(-5)
	if s.CapLevel() != 0 {
		t.Fatal("negative level not clamped")
	}
	s.ForceCap(10000)
	if s.CapLevel() != s.MaxCapLevel() {
		t.Fatalf("level = %d, max = %d", s.CapLevel(), s.MaxCapLevel())
	}
	if s.EffectiveFreq(0) != s.Machine().Config().MinMHz {
		t.Fatalf("floor freq = %d", s.EffectiveFreq(0))
	}
}

func TestMaxCapLevelNonDivisibleRange(t *testing.T) {
	// 3950-1500 = 2450 MHz is not a multiple of the 100 MHz step. The
	// deepest level must round UP (25 levels) so full-throttle capping
	// reaches the MinMHz floor; floor division (24 levels) would strand
	// the ceiling at 1550 MHz.
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.MaxOCMHz = 3950
	cfg.MinMHz = 1500
	cfg.StepMHz = 100
	s := NewServer("odd", cfg, 0)
	if got, want := s.MaxCapLevel(), 25; got != want {
		t.Fatalf("MaxCapLevel = %d, want %d", got, want)
	}
	s.SetDesiredFreq(0, cfg.MaxOCMHz)
	s.ForceCap(s.MaxCapLevel())
	if s.EffectiveFreq(0) != cfg.MinMHz {
		t.Fatalf("deepest cap freq = %d, want floor %d", s.EffectiveFreq(0), cfg.MinMHz)
	}
	// An exactly divisible range is unchanged: (4000-1500)/100 = 25.
	s2 := newServer()
	if got, want := s2.MaxCapLevel(), 25; got != want {
		t.Fatalf("divisible MaxCapLevel = %d, want %d", got, want)
	}
}

func TestCappingReducesPower(t *testing.T) {
	s := newServer()
	for i := 0; i < s.NumCores(); i++ {
		s.SetCoreUtil(i, 0.9)
		s.SetDesiredFreq(i, 4000)
	}
	before := s.Power()
	s.ForceCap(7)
	if s.Power() >= before {
		t.Fatal("capping must reduce power")
	}
}

func TestOCDeltaWattsPositive(t *testing.T) {
	s := newServer()
	d := s.OCDeltaWatts(4, 4000, 0.9)
	if d <= 0 {
		t.Fatalf("delta = %v", d)
	}
	if s.OCDeltaWatts(4, 3300, 0.9) != 0 {
		t.Fatal("delta at turbo must be 0")
	}
}

func TestAdvanceAccumulatesWear(t *testing.T) {
	s := newServer()
	s.SetCoreUtil(0, 1.0)
	s.SetDesiredFreq(0, 4000)
	s.Advance(time.Hour)
	ocAged := s.Machine().Aged(0)
	turboAged := s.Machine().Aged(1)
	if ocAged <= turboAged {
		t.Fatalf("overclocked core must age faster: %v vs %v", ocAged, turboAged)
	}
	if s.Energy() <= 0 {
		t.Fatal("no energy recorded")
	}
	if s.MeanAgedSeconds() <= 0 {
		t.Fatal("no mean aging")
	}
}

func TestVMPlacementAndControl(t *testing.T) {
	s := newServer()
	vm1, err := PlaceVM(s, "vm1", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := PlaceVM(s, "vm2", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceVM(s, "vm3", 2, 8); err == nil {
		t.Fatal("over-allocation accepted")
	}
	vm1.SetUtil(0.7)
	if s.CoreUtil(0) != 0.7 || s.CoreUtil(3) != 0.7 {
		t.Fatal("VM util not applied")
	}
	if s.CoreUtil(4) != 0 {
		t.Fatal("neighbour VM affected")
	}
	if vm2.Freq() != s.TurboMHz() {
		t.Fatalf("vm2 freq = %d", vm2.Freq())
	}
	s.SetDesiredFreq(0, 4000)
	if vm1.Freq() != 4000 {
		t.Fatalf("vm1 freq = %d", vm1.Freq())
	}
	empty := &VM{Name: "e", Server: s}
	if empty.Freq() != s.TurboMHz() {
		t.Fatal("empty VM freq fallback wrong")
	}
}

// TestSOAOnClusterServer wires a real sOA to a cluster server and verifies
// the full grant→overclock→cap→revert cycle end to end.
func TestSOAOnClusterServer(t *testing.T) {
	s := newServer()
	start := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), s.NumCores(), start)
	soa := core.NewSOA(core.DefaultSOAConfig(), s, budgets, 2000, start)
	for i := 0; i < s.NumCores(); i++ {
		s.SetCoreUtil(i, 0.5)
	}
	d := soa.Request(start, core.Request{VM: "vm1", Cores: 4, TargetMHz: 4000, Priority: core.PriorityMetric})
	if !d.Granted {
		t.Fatalf("grant failed: %+v", d)
	}
	if s.Machine().OverclockedCores() != 4 {
		t.Fatalf("OC cores = %d", s.Machine().OverclockedCores())
	}
	// Rack caps the server: effective frequency drops even though the
	// session's desired frequency stays.
	s.ForceCap(7)
	if s.Machine().OverclockedCores() != 0 {
		t.Fatal("cap did not strip overclock")
	}
	soa.OnRackEvent(start, power.Event{Kind: power.EventCap})
	if soa.ExtraWatts() != 0 {
		t.Fatal("sOA did not revert budget")
	}
}

// TestCapReconciliationAllLevels sweeps every cap level against a spread of
// desired frequencies and checks the apply/CapCeiling reconciliation
// invariant exactly: the effective frequency is min(desired, ceiling),
// where the ceiling drops one DVFS step per level from MaxOC and floors at
// MinMHz, and capping never rewrites the sOA's desired frequency.
func TestCapReconciliationAllLevels(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 8
	s := NewServer("s1", cfg, 0)
	desired := []int{cfg.MinMHz, 2500, cfg.TurboMHz, 3700, cfg.MaxOCMHz}
	for i, d := range desired {
		s.SetDesiredFreq(i, d)
	}
	for level := 0; level <= s.MaxCapLevel(); level++ {
		s.ForceCap(level)
		if s.CapLevel() != level {
			t.Fatalf("CapLevel = %d, want %d", s.CapLevel(), level)
		}
		ceiling := cfg.MaxOCMHz - level*cfg.StepMHz
		if ceiling < cfg.MinMHz {
			ceiling = cfg.MinMHz
		}
		for i, d := range desired {
			want := d
			if want > ceiling {
				want = ceiling
			}
			if got := s.EffectiveFreq(i); got != want {
				t.Fatalf("level %d core %d (desired %d): effective = %d, want %d",
					level, i, d, got, want)
			}
			if s.DesiredFreq(i) != d {
				t.Fatalf("level %d rewrote desired[%d]: %d", level, i, s.DesiredFreq(i))
			}
		}
	}
	// The deepest level must bottom out exactly at MinMHz.
	s.ForceCap(s.MaxCapLevel())
	if got := s.EffectiveFreq(len(desired) - 1); got != cfg.MinMHz {
		t.Fatalf("max level effective = %d, want floor %d", got, cfg.MinMHz)
	}
	// Full release restores every desired frequency.
	s.ForceCap(0)
	for i, d := range desired {
		if got := s.EffectiveFreq(i); got != d {
			t.Fatalf("after release core %d = %d, want %d", i, got, d)
		}
	}
}

// TestCapReapplyAfterRelease covers the re-apply path: requests made while
// capped are ceiling-bounded immediately but remembered in full, partial
// release raises the ceiling one step at a time, and a fresh cap after a
// full release digs in again from the restored frequencies.
func TestCapReapplyAfterRelease(t *testing.T) {
	s := newServer()
	s.SetDesiredFreq(0, 4000)
	s.ForceCap(7) // ceiling 3300: overclock fully stripped
	if got := s.EffectiveFreq(0); got != 3300 {
		t.Fatalf("capped freq = %d, want 3300", got)
	}
	// A request made while capped takes effect only up to the ceiling...
	s.SetDesiredFreq(1, 3900)
	if got := s.EffectiveFreq(1); got != 3300 {
		t.Fatalf("capped new request = %d, want 3300", got)
	}
	// ...but is remembered in full for release.
	if s.DesiredFreq(1) != 3900 {
		t.Fatalf("desired[1] = %d, want 3900", s.DesiredFreq(1))
	}
	// Partial release: ceiling rises to 3700, both cores follow it.
	s.ForceCap(3)
	if a, b := s.EffectiveFreq(0), s.EffectiveFreq(1); a != 3700 || b != 3700 {
		t.Fatalf("partial release = %d/%d, want 3700/3700", a, b)
	}
	// Full release restores each core's own desired frequency.
	s.ForceCap(0)
	if a, b := s.EffectiveFreq(0), s.EffectiveFreq(1); a != 4000 || b != 3900 {
		t.Fatalf("release = %d/%d, want 4000/3900", a, b)
	}
	// Re-cap after release reconciles again, below turbo this time.
	s.ForceCap(12) // ceiling 2800
	if a, b := s.EffectiveFreq(0), s.EffectiveFreq(1); a != 2800 || b != 2800 {
		t.Fatalf("re-cap = %d/%d, want 2800/2800", a, b)
	}
	s.ForceCap(0)
	if a, b := s.EffectiveFreq(0), s.EffectiveFreq(1); a != 4000 || b != 3900 {
		t.Fatalf("second release = %d/%d, want 4000/3900", a, b)
	}
}
