package machine

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refPower is Power before it cached its sum or read the step table: the
// idle watts plus Config.CorePower of every core, in core order. The cached
// Power and the fused Advance must match it bit for bit, so the table is
// checked against the formula rather than against itself.
func refPower(m *Machine) float64 {
	p := m.cfg.IdleWatts
	for i := range m.cores {
		p += m.cfg.CorePower(m.cores[i].freq, m.cores[i].util)
	}
	return p
}

// testConfigs returns the default machine, a 4-core one, and a 6-core one
// whose turbo, minimum and maximum frequencies are off the step grid, so a
// core's initial turbo frequency takes the step table's extra entry.
func testConfigs() []Config {
	small := DefaultConfig()
	small.Cores = 4
	offGrid := DefaultConfig()
	offGrid.Cores, offGrid.TurboMHz, offGrid.MinMHz, offGrid.MaxOCMHz = 6, 3350, 1550, 4050
	return []Config{DefaultConfig(), small, offGrid}
}

// randomMHz draws a frequency around the machine's range: out-of-range
// values on both sides and values off the step grid, so clamping and step
// alignment run too.
func randomMHz(rng *rand.Rand, c Config) int {
	return c.MinMHz - 3*c.StepMHz + rng.Intn(c.MaxOCMHz-c.MinMHz+6*c.StepMHz)
}

// randomUtil draws a utilization that is often a repeat of the core's
// current value, a signed zero or outside [0, 1].
func randomUtil(rng *rand.Rand, m *Machine, core int) float64 {
	switch rng.Intn(7) {
	case 0:
		return m.Util(core) // same-value write
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	case 3:
		return -0.2 - rng.Float64()
	case 4:
		return 1 + rng.Float64()
	case 5:
		return 1
	default:
		return rng.Float64()
	}
}

// randomWrite applies write op (0–6) at core: a frequency, a same-value
// frequency, one frequency over a run of cores, a utilization, a maximum at
// or below the current frequency, or a new maximum for one core or
// (rarely) every core.
func randomWrite(rng *rand.Rand, m *Machine, core, op int) {
	cfg := m.cfg
	switch op {
	case 0:
		m.SetFreq(core, randomMHz(rng, cfg))
	case 1:
		m.SetFreq(core, m.Freq(core)) // same-value write
	case 2:
		lo := rng.Intn(cfg.Cores)
		hi := min(lo+rng.Intn(cfg.Cores+2), cfg.Cores)
		mhz := randomMHz(rng, cfg)
		for i := lo; i < hi; i++ {
			m.SetFreq(i, mhz)
		}
	case 3, 4:
		m.SetUtil(core, randomUtil(rng, m, core))
	case 5:
		// At or below the current frequency, so the core is re-clamped
		// whenever it runs above the new maximum.
		m.SetCoreMaxOC(core, m.Freq(core)-rng.Intn(4)*cfg.StepMHz)
	case 6:
		if rng.Intn(20) == 0 {
			m.RandomizeCoreMaxOC(rng, cfg.TurboMHz+rng.Intn(4)*cfg.StepMHz)
		} else {
			m.SetCoreMaxOC(core, randomMHz(rng, cfg))
		}
	}
}

// TestPowerCacheMatchesReference drives seeded random sequences of every
// writer of core frequency and utilization (same-value writes, clamped
// values, -0, maxima below the current frequency, whole-machine
// randomization) plus Advance, and after every step compares Power with
// the uncached sum and the integrated energy with one integrated from it,
// both bit for bit.
func TestPowerCacheMatchesReference(t *testing.T) {
	for _, cfg := range testConfigs() {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := New(cfg)
			energy := 0.0
			for step := 0; step < 2000; step++ {
				core := rng.Intn(cfg.Cores)
				op := rng.Intn(8)
				if op < 7 {
					randomWrite(rng, m, core, op)
				} else {
					dt := time.Duration(rng.Intn(5000)) * time.Millisecond
					energy += refPower(m) * dt.Seconds()
					m.Advance(dt)
					if got := m.Energy(); math.Float64bits(got) != math.Float64bits(energy) {
						t.Fatalf("cores=%d seed %d step %d: energy %v, reference %v", cfg.Cores, seed, step, got, energy)
					}
				}
				if got, want := m.Power(), refPower(m); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cores=%d seed %d step %d op %d: Power %v (%#x), reference %v (%#x)",
						cfg.Cores, seed, step, op, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestPowerCacheSignedZeroUtil pins the one write == cannot see: -0 over +0
// is stored (Util reports it), and Power still matches the reference.
func TestPowerCacheSignedZeroUtil(t *testing.T) {
	m := New(DefaultConfig())
	_ = m.Power()
	m.SetUtil(3, math.Copysign(0, -1))
	if !math.Signbit(m.Util(3)) {
		t.Fatalf("Util(3) = %v, want -0", m.Util(3))
	}
	if got, want := m.Power(), refPower(m); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Power %v, reference %v", got, want)
	}
}
