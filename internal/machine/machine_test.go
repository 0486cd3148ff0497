package machine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.StepMHz = 0 },
		func(c *Config) { c.MinMHz = 0 },
		func(c *Config) { c.MinMHz = c.TurboMHz + 1 },
		func(c *Config) { c.MaxOCMHz = c.TurboMHz - 1 },
		func(c *Config) { c.DynCoreWatts = 0 },
		func(c *Config) { c.IdleWatts = -1 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := DefaultConfig()
	c.Cores = -1
	New(c)
}

func TestVoltageRatio(t *testing.T) {
	c := DefaultConfig()
	if got := c.VoltageRatio(c.TurboMHz); got != 1 {
		t.Fatalf("ratio at turbo = %v", got)
	}
	if got := c.VoltageRatio(2000); got != 1 {
		t.Fatalf("ratio below turbo = %v", got)
	}
	got := c.VoltageRatio(c.MaxOCMHz)
	want := 1 + c.VoltSlope*float64(c.MaxOCMHz-c.TurboMHz)/float64(c.TurboMHz)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ratio at max OC = %v, want %v", got, want)
	}
	if got <= 1 {
		t.Fatal("OC voltage ratio must exceed 1")
	}
}

func TestClampFreq(t *testing.T) {
	c := DefaultConfig()
	if got := c.ClampFreq(100); got != c.MinMHz-c.MinMHz%c.StepMHz {
		t.Fatalf("clamp low = %d", got)
	}
	if got := c.ClampFreq(99999); got != c.MaxOCMHz {
		t.Fatalf("clamp high = %d", got)
	}
	if got := c.ClampFreq(3350); got != 3300 {
		t.Fatalf("step align = %d", got)
	}
}

// TestCapLadder: the ladder starts uncapped at MaxOC, never rises, and its
// deepest level — rounded up — lands exactly on MinMHz, one level above it
// still short of the floor. The odd config's 2550 MHz range is not a whole
// number of 100 MHz steps, which is what the round-up is for.
func TestCapLadder(t *testing.T) {
	odd := DefaultConfig()
	odd.MinMHz = 1450
	for _, c := range []Config{DefaultConfig(), odd} {
		top := c.MaxCapLevel()
		if got := c.CapCeiling(0); got != c.MaxOCMHz {
			t.Errorf("min %d: CapCeiling(0) = %d, want MaxOC %d", c.MinMHz, got, c.MaxOCMHz)
		}
		for l := 1; l <= top+1; l++ {
			if c.CapCeiling(l) > c.CapCeiling(l-1) {
				t.Errorf("min %d: ceiling rises from level %d to %d", c.MinMHz, l-1, l)
			}
		}
		if got := c.CapCeiling(top); got != c.MinMHz {
			t.Errorf("min %d: CapCeiling(MaxCapLevel=%d) = %d, want MinMHz", c.MinMHz, top, got)
		}
		if got := c.CapCeiling(top - 1); got <= c.MinMHz {
			t.Errorf("min %d: CapCeiling(%d) = %d, already at the floor", c.MinMHz, top-1, got)
		}
	}
}

func TestCorePowerMonotonicInFreqAndUtil(t *testing.T) {
	c := DefaultConfig()
	prev := 0.0
	for f := c.MinMHz; f <= c.MaxOCMHz; f += c.StepMHz {
		p := c.CorePower(f, 0.8)
		if p < prev {
			t.Fatalf("core power not monotone in freq at %d MHz", f)
		}
		prev = p
	}
	if c.CorePower(c.TurboMHz, 0.9) <= c.CorePower(c.TurboMHz, 0.1) {
		t.Fatal("core power not monotone in util")
	}
}

func TestCorePowerClampsUtil(t *testing.T) {
	c := DefaultConfig()
	if c.CorePower(c.TurboMHz, -1) != c.CorePower(c.TurboMHz, 0) {
		t.Fatal("negative util not clamped")
	}
	if c.CorePower(c.TurboMHz, 2) != c.CorePower(c.TurboMHz, 1) {
		t.Fatal("util > 1 not clamped")
	}
}

func TestOCCostSuperlinear(t *testing.T) {
	c := DefaultConfig()
	// Power at max OC must exceed the pure frequency ratio: voltage rises.
	turbo := c.CorePower(c.TurboMHz, 1)
	oc := c.CorePower(c.MaxOCMHz, 1)
	freqRatio := float64(c.MaxOCMHz) / float64(c.TurboMHz)
	if oc/turbo <= freqRatio {
		t.Fatalf("OC power ratio %.3f not superlinear vs freq ratio %.3f", oc/turbo, freqRatio)
	}
}

func TestOCCoreCostCalibration(t *testing.T) {
	// §IV-C worked example: ~10 W per overclocked core.
	c := DefaultConfig()
	cost := c.OCCoreCost()
	if cost < 7 || cost > 13 {
		t.Fatalf("OC per-core cost = %.2f W, want ≈10 W", cost)
	}
}

func TestMachineInitialState(t *testing.T) {
	m := New(DefaultConfig())
	for i := 0; i < m.Cores(); i++ {
		if m.Freq(i) != m.Config().TurboMHz {
			t.Fatalf("core %d initial freq = %d", i, m.Freq(i))
		}
		if m.Util(i) != 0 {
			t.Fatalf("core %d initial util = %v", i, m.Util(i))
		}
	}
	if got := m.Power(); got != m.Config().IdleWatts+float64(m.Cores())*m.Config().StaticCoreWatts {
		t.Fatalf("idle power = %v", got)
	}
}

func TestSetFreqAppliesClamp(t *testing.T) {
	m := New(DefaultConfig())
	applied := m.SetFreq(0, 5000)
	if applied != m.Config().MaxOCMHz || m.Freq(0) != applied {
		t.Fatalf("applied = %d", applied)
	}
}

func TestSetUtilClampsAndMeanUtil(t *testing.T) {
	m := New(DefaultConfig())
	m.SetUtil(0, 2)
	m.SetUtil(1, -5)
	if m.Util(0) != 1 || m.Util(1) != 0 {
		t.Fatal("util clamping failed")
	}
}

func TestPowerRisesWithOverclocking(t *testing.T) {
	m := New(DefaultConfig())
	for i := 0; i < m.Cores(); i++ {
		m.SetUtil(i, 0.8)
	}
	base := m.Power()
	for i := 0; i < 8; i++ {
		m.SetFreq(i, m.Config().MaxOCMHz)
	}
	oc := m.Power()
	if oc <= base {
		t.Fatal("overclocking must raise power")
	}
	perCore := (oc - base) / 8
	if perCore <= 0 || perCore > m.Config().OCCoreCost() {
		t.Fatalf("per-core OC delta = %v", perCore)
	}
}

func TestAdvanceAccumulatesEnergyAndOCTime(t *testing.T) {
	m := New(DefaultConfig())
	m.SetFreq(0, m.Config().MaxOCMHz)
	p := m.Power()
	m.Advance(10 * time.Second)
	if math.Abs(m.Energy()-p*10) > 1e-9 {
		t.Fatalf("Energy = %v, want %v", m.Energy(), p*10)
	}
	if m.OCTime(0) != 10*time.Second {
		t.Fatalf("OCTime(0) = %v", m.OCTime(0))
	}
	if m.OCTime(1) != 0 {
		t.Fatalf("OCTime(1) = %v", m.OCTime(1))
	}
	if m.TotalOCCoreSeconds() != 10 {
		t.Fatalf("TotalOCCoreSeconds = %v", m.TotalOCCoreSeconds())
	}
}

func TestAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(DefaultConfig()).Advance(-time.Second)
}

func TestMaxPower(t *testing.T) {
	m := New(DefaultConfig())
	turboMax := m.MaxPower(m.Config().TurboMHz)
	ocMax := m.MaxPower(m.Config().MaxOCMHz)
	if ocMax <= turboMax {
		t.Fatal("max power at OC must exceed turbo")
	}
	// Setting everything to max util at OC must reach MaxPower.
	for i := 0; i < m.Cores(); i++ {
		m.SetUtil(i, 1)
		m.SetFreq(i, m.Config().MaxOCMHz)
	}
	if math.Abs(m.Power()-ocMax) > 1e-9 {
		t.Fatalf("Power = %v, MaxPower = %v", m.Power(), ocMax)
	}
}

func TestPredictPowerMatchesMachine(t *testing.T) {
	c := DefaultConfig()
	m := New(c)
	ocCores, ocUtil, baseUtil := 10, 0.9, 0.4
	for i := 0; i < c.Cores; i++ {
		if i < ocCores {
			m.SetFreq(i, c.MaxOCMHz)
			m.SetUtil(i, ocUtil)
		} else {
			m.SetUtil(i, baseUtil)
		}
	}
	pred := c.PredictPower(ocCores, c.MaxOCMHz, ocUtil, baseUtil)
	if math.Abs(pred-m.Power()) > 1e-9 {
		t.Fatalf("PredictPower = %v, machine = %v", pred, m.Power())
	}
}

func TestPredictPowerClampsCores(t *testing.T) {
	c := DefaultConfig()
	if c.PredictPower(-5, c.MaxOCMHz, 1, 0) != c.PredictPower(0, c.MaxOCMHz, 1, 0) {
		t.Fatal("negative cores not clamped")
	}
	if c.PredictPower(c.Cores+10, c.MaxOCMHz, 1, 0) != c.PredictPower(c.Cores, c.MaxOCMHz, 1, 0) {
		t.Fatal("excess cores not clamped")
	}
}

// Property: server power is bounded by [idle floor, MaxPower(MaxOC)] for any
// utilization/frequency assignment.
func TestPowerBoundedProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(freqs []int16, utils []float64) bool {
		m := New(c)
		for i := 0; i < m.Cores(); i++ {
			if i < len(freqs) {
				m.SetFreq(i, int(freqs[i]))
			}
			if i < len(utils) {
				u := utils[i]
				if math.IsNaN(u) || math.IsInf(u, 0) {
					u = 0
				}
				m.SetUtil(i, math.Abs(math.Mod(u, 1)))
			}
		}
		p := m.Power()
		floor := c.IdleWatts + float64(c.Cores)*c.StaticCoreWatts
		return p >= floor-1e-9 && p <= m.MaxPower(c.MaxOCMHz)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPower(b *testing.B) {
	m := New(DefaultConfig())
	for i := 0; i < m.Cores(); i++ {
		m.SetUtil(i, 0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Power()
	}
}

func TestSetCoreMaxOCClampsFrequency(t *testing.T) {
	m := New(DefaultConfig())
	m.SetFreq(0, 4000)
	applied := m.SetCoreMaxOC(0, 3600)
	if applied != 3600 {
		t.Fatalf("applied max = %d", applied)
	}
	if m.Freq(0) != 3600 {
		t.Fatalf("freq after max change = %d", m.Freq(0))
	}
	// Later requests respect the individual ceiling.
	if got := m.SetFreq(0, 4000); got != 3600 {
		t.Fatalf("SetFreq over core max = %d", got)
	}
	// Other cores keep the full range.
	if got := m.SetFreq(1, 4000); got != 4000 {
		t.Fatalf("unaffected core = %d", got)
	}
}

func TestSetCoreMaxOCBounds(t *testing.T) {
	m := New(DefaultConfig())
	if got := m.SetCoreMaxOC(0, 1000); got != m.Config().TurboMHz {
		t.Fatalf("below-turbo max = %d", got)
	}
	if got := m.SetCoreMaxOC(0, 9999); got != m.Config().MaxOCMHz {
		t.Fatalf("above-range max = %d", got)
	}
	if got := m.SetCoreMaxOC(0, 3750); got != 3700 {
		t.Fatalf("step alignment = %d", got)
	}
}

func TestRandomizeCoreMaxOCAndFastestCores(t *testing.T) {
	m := New(DefaultConfig())
	m.RandomizeCoreMaxOC(rand.New(rand.NewSource(3)), 3500)
	distinct := map[int]bool{}
	for i := 0; i < m.Cores(); i++ {
		max := m.CoreMaxOC(i)
		if max < 3500 || max > m.Config().MaxOCMHz {
			t.Fatalf("core %d max = %d out of range", i, max)
		}
		if max%m.Config().StepMHz != 0 {
			t.Fatalf("core %d max = %d not step-aligned", i, max)
		}
		distinct[max] = true
	}
	if len(distinct) < 2 {
		t.Fatal("variability produced uniform cores")
	}
	fastest := m.FastestCores(8)
	if len(fastest) != 8 {
		t.Fatalf("FastestCores returned %d", len(fastest))
	}
	// Every selected core is at least as fast as every unselected one.
	selected := map[int]bool{}
	minSel := m.Config().MaxOCMHz
	for _, c := range fastest {
		selected[c] = true
		if m.CoreMaxOC(c) < minSel {
			minSel = m.CoreMaxOC(c)
		}
	}
	for i := 0; i < m.Cores(); i++ {
		if !selected[i] && m.CoreMaxOC(i) > minSel {
			t.Fatalf("core %d (max %d) faster than selected minimum %d", i, m.CoreMaxOC(i), minSel)
		}
	}
	if m.FastestCores(0) != nil {
		t.Fatal("FastestCores(0) must be nil")
	}
	if got := m.FastestCores(1000); len(got) != m.Cores() {
		t.Fatalf("FastestCores clamped = %d", len(got))
	}
}

// Property: per-core frequency never exceeds the core's individual
// maximum, for any interleaving of SetFreq and SetCoreMaxOC.
func TestCoreMaxOCInvariantProperty(t *testing.T) {
	c := DefaultConfig()
	c.Cores = 8
	f := func(ops []uint16) bool {
		m := New(c)
		for _, op := range ops {
			core := int(op) % c.Cores
			mhz := c.MinMHz + int(op)%(c.MaxOCMHz-c.MinMHz+200)
			if op%3 == 0 {
				m.SetCoreMaxOC(core, mhz)
			} else {
				m.SetFreq(core, mhz)
			}
			for i := 0; i < c.Cores; i++ {
				if m.Freq(i) > m.CoreMaxOC(i) {
					return false
				}
				if m.Freq(i) > c.MaxOCMHz || m.CoreMaxOC(i) < c.TurboMHz {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
