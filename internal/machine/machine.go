// Package machine simulates the server hardware SmartOClock controls:
// per-core DVFS actuators, utilization and power sensors, and PMT-like
// time-in-state and wear-out counters.
//
// On real hardware the Server Overclocking Agent reads Intel PMT / AMD HSMP
// telemetry and sets frequencies through ACPI CPPC. This package exposes the
// same operations — set a core's frequency, read the server's power draw,
// read cumulative overclocked time — against a calibrated analytical power
// model, so the agent code above it is identical to what would run on metal.
package machine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"smartoclock/internal/lifetime"
	"smartoclock/internal/metrics"
)

// Config describes a server model. All frequencies are in MHz.
type Config struct {
	// Cores is the number of physical cores.
	Cores int
	// TurboMHz is the maximum vendor-supported (turbo) frequency; cloud
	// CPUs in performance mode run at this frequency when unconstrained.
	TurboMHz int
	// MaxOCMHz is the maximum overclocked frequency validated with vendors.
	MaxOCMHz int
	// MinMHz is the lowest frequency the capping mechanism may force.
	MinMHz int
	// StepMHz is the DVFS step granularity (the paper uses 100 MHz steps).
	StepMHz int

	// IdleWatts is platform static power (fans, DRAM refresh, uncore) at
	// nominal voltage, independent of core activity.
	IdleWatts float64
	// StaticCoreWatts is per-core leakage at turbo voltage.
	StaticCoreWatts float64
	// DynCoreWatts is per-core dynamic power at turbo frequency and 100%
	// utilization.
	DynCoreWatts float64
	// VoltSlope is the relative voltage increase per relative frequency
	// increase beyond turbo (dV/V per df/f). Overclocking raises voltage,
	// which is what makes its power cost superlinear.
	VoltSlope float64
}

// DefaultConfig models the paper's evaluation servers: 64-core AMD parts
// with 3.3 GHz turbo and 4.0 GHz maximum overclock. The power constants are
// calibrated so overclocking a fully-utilized core costs ≈10 W (§IV-C's
// worked example: 5 cores ⇒ +50 W).
func DefaultConfig() Config {
	return Config{
		Cores:           64,
		TurboMHz:        3300,
		MaxOCMHz:        4000,
		MinMHz:          1500,
		StepMHz:         100,
		IdleWatts:       100,
		StaticCoreWatts: 1.5,
		DynCoreWatts:    7.0,
		VoltSlope:       1.3,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("machine: Cores = %d, must be positive", c.Cores)
	case c.StepMHz <= 0:
		return fmt.Errorf("machine: StepMHz = %d, must be positive", c.StepMHz)
	case c.MinMHz <= 0 || c.MinMHz > c.TurboMHz:
		return fmt.Errorf("machine: MinMHz = %d out of range (turbo %d)", c.MinMHz, c.TurboMHz)
	case c.MaxOCMHz < c.TurboMHz:
		return fmt.Errorf("machine: MaxOCMHz = %d below turbo %d", c.MaxOCMHz, c.TurboMHz)
	case c.IdleWatts < 0 || c.StaticCoreWatts < 0 || c.DynCoreWatts <= 0:
		return fmt.Errorf("machine: power constants must be non-negative (dyn positive)")
	}
	return nil
}

// VoltageRatio returns V(f)/V(turbo) for frequency mhz. At or below turbo
// the ratio is 1 (cloud parts run a fixed performance-mode voltage);
// beyond turbo it rises linearly with the frequency overshoot.
func (c *Config) VoltageRatio(mhz int) float64 {
	if mhz <= c.TurboMHz {
		return 1
	}
	over := float64(mhz-c.TurboMHz) / float64(c.TurboMHz)
	return 1 + c.VoltSlope*over
}

// ClampFreq clamps mhz into [MinMHz, MaxOCMHz] and aligns it down to the
// step granularity. It and the cap ladder below run per core on both rig
// hosts: a value receiver, even inlined, would copy the Config at each call.
func (c *Config) ClampFreq(mhz int) int {
	if mhz < c.MinMHz {
		mhz = c.MinMHz
	}
	if mhz > c.MaxOCMHz {
		mhz = c.MaxOCMHz
	}
	return mhz - mhz%c.StepMHz
}

// MaxCapLevel returns the deepest capping level: each level lowers the
// frequency ceiling one DVFS step from MaxOC. The division rounds up, so
// when the MaxOC→Min range is not a whole number of steps the deepest level
// still reaches MinMHz rather than stranding the ceiling one partial step
// above the floor.
func (c *Config) MaxCapLevel() int {
	return (c.MaxOCMHz - c.MinMHz + c.StepMHz - 1) / c.StepMHz
}

// CapCeiling returns the frequency ceiling at a capping level: level 0 is
// uncapped (MaxOC), and each level strips one DVFS step, overclock first and
// then below turbo, flooring at MinMHz.
func (c *Config) CapCeiling(level int) int {
	return max(c.MaxOCMHz-level*c.StepMHz, c.MinMHz)
}

// CorePower returns the power of one core at frequency mhz and utilization
// util in [0,1]: leakage scales with V², dynamic power with f·V².
func (c *Config) CorePower(mhz int, util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	vr := c.VoltageRatio(mhz)
	v2 := vr * vr
	fr := float64(mhz) / float64(c.TurboMHz)
	return c.StaticCoreWatts*v2 + c.DynCoreWatts*fr*v2*util
}

// NameplateWatts returns the server's worst-case draw without overclocking:
// platform idle plus every core busy at turbo. Oversubscription admission
// uses it as the conservative fallback when no trustworthy day template
// exists — it is what a rack would have to provision per server without
// prediction.
func (c Config) NameplateWatts() float64 {
	return c.IdleWatts + float64(c.Cores)*c.CorePower(c.TurboMHz, 1)
}

// OCCoreCost returns the extra power of running one fully-utilized core at
// MaxOCMHz instead of TurboMHz — the per-core overclock cost the Global
// Overclocking Agent uses when splitting headroom.
func (c Config) OCCoreCost() float64 {
	return c.CorePower(c.MaxOCMHz, 1) - c.CorePower(c.TurboMHz, 1)
}

// Machine is one simulated server.
type Machine struct {
	cfg    Config
	cores  []coreState
	energy float64 // joules

	// power caches Power, which walks every core. SetFreq, SetUtil and
	// SetCoreMaxOC, the only writers of a core's freq and util, set
	// powerDirty only when the value they store actually changes.
	power      float64
	powerDirty bool

	// steps holds each reachable frequency's constants (see stepIndex);
	// aging is the wear model they and Advance use.
	steps []stepFactors
	aging lifetime.AgingModel
	// elapsed is the wall-clock time the wear counters observed: every
	// core sees every Advance, so one value serves them all.
	elapsed time.Duration

	// obs, when non-nil, holds resolved metric handles (see Instrument).
	obs *machineObs
}

// coreState is one core's actuator and sensor state. Keeping it in one
// record makes a machine's cores one allocation rather than four.
type coreState struct {
	freq   int // MHz
	step   int // index of freq in Machine.steps
	maxOC  int // individual maximum frequency (silicon variability, §VI)
	util   float64
	ocTime time.Duration
	// aged is the core's accumulated aging in reference time: the wear-out
	// counter §VI asks vendors to expose.
	aged time.Duration
}

// stepFactors are one frequency's per-core constants, each computed once by
// the expression Config.CorePower or lifetime.AgingModel.Accel evaluates on
// the same inputs, so reading them yields the same bits.
type stepFactors struct {
	static float64 // StaticCoreWatts·v²
	dyn    float64 // DynCoreWatts·fr·v²: times util, the core's dynamic power
	accel  float64 // aging acceleration at the step's voltage
}

// newSteps builds the per-frequency table stepIndex addresses: every step
// from ClampFreq(MinMHz) up to MaxOCMHz, then TurboMHz when it is off that
// grid.
func newSteps(c Config, aging lifetime.AgingModel) []stepFactors {
	lo := c.ClampFreq(c.MinMHz)
	n := (c.MaxOCMHz-lo)/c.StepMHz + 1
	offGrid := c.TurboMHz%c.StepMHz != 0
	if offGrid {
		n++
	}
	steps := make([]stepFactors, n)
	for i := range steps {
		mhz := lo + i*c.StepMHz
		if offGrid && i == n-1 {
			mhz = c.TurboMHz
		}
		vr := c.VoltageRatio(mhz)
		v2 := vr * vr
		fr := float64(mhz) / float64(c.TurboMHz)
		steps[i] = stepFactors{
			static: c.StaticCoreWatts * v2,
			dyn:    c.DynCoreWatts * fr * v2,
			accel:  aging.Accel(vr),
		}
	}
	return steps
}

// stepIndex returns the index of frequency mhz in the step table. Every
// frequency a core can hold is on the step grid (ClampFreq aligns it) except
// TurboMHz, which New stores unaligned and the table keeps last.
func (m *Machine) stepIndex(mhz int) int {
	if mhz%m.cfg.StepMHz != 0 {
		return len(m.steps) - 1
	}
	return (mhz - m.cfg.ClampFreq(m.cfg.MinMHz)) / m.cfg.StepMHz
}

// setFreq stores core c's frequency and its step index.
func (m *Machine) setFreq(c *coreState, mhz int) {
	c.freq = mhz
	c.step = m.stepIndex(mhz)
	m.powerDirty = true
}

// machineObs holds the machine's resolved instruments: the PMT-like
// counters a real deployment would scrape from the BMC.
type machineObs struct {
	energy  *metrics.Gauge
	ocSecs  *metrics.Gauge
	ocCores *metrics.Gauge
}

// Instrument attaches the machine's hardware counters to a registry; the
// gauges refresh on every Advance.
func (m *Machine) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	m.obs = &machineObs{
		energy:  reg.Gauge("machine_energy_joules", labels...),
		ocSecs:  reg.Gauge("machine_oc_core_seconds", labels...),
		ocCores: reg.Gauge("machine_oc_cores", labels...),
	}
}

// New creates a machine from cfg with all cores at turbo and idle, aging
// under lifetime.DefaultAgingModel. It panics on an invalid configuration
// (a construction-time programming error, matching the package's
// hardware-bringup role).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	aging := lifetime.DefaultAgingModel()
	m := &Machine{cfg: cfg, cores: make([]coreState, cfg.Cores), steps: newSteps(cfg, aging), aging: aging}
	for i := range m.cores {
		m.setFreq(&m.cores[i], cfg.TurboMHz)
		m.cores[i].maxOC = cfg.MaxOCMHz
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Cores returns the number of cores.
func (m *Machine) Cores() int { return m.cfg.Cores }

// SetFreq sets core i's frequency (clamped to the machine range, the
// core's individual maximum, and step-aligned) and returns the applied
// value.
func (m *Machine) SetFreq(i int, mhz int) int {
	c := &m.cores[i]
	f := m.cfg.ClampFreq(mhz)
	if f > c.maxOC {
		f = c.maxOC
	}
	if f != c.freq {
		m.setFreq(c, f)
	}
	return f
}

// SetCoreMaxOC sets core i's individual maximum frequency: silicon
// variability means some cores can run faster than others, a property
// server parts do not normally expose but §VI's vendor engagements aim to
// leverage (ACPI CPPC preferred cores). The value is clamped to
// [TurboMHz, MaxOCMHz] and step-aligned; the core's current frequency is
// re-clamped.
func (m *Machine) SetCoreMaxOC(i int, mhz int) int {
	if mhz < m.cfg.TurboMHz {
		mhz = m.cfg.TurboMHz
	}
	if mhz > m.cfg.MaxOCMHz {
		mhz = m.cfg.MaxOCMHz
	}
	mhz -= mhz % m.cfg.StepMHz
	c := &m.cores[i]
	c.maxOC = mhz
	if c.freq > mhz {
		m.setFreq(c, mhz)
	}
	return mhz
}

// CoreMaxOC returns core i's individual maximum frequency.
func (m *Machine) CoreMaxOC(i int) int { return m.cores[i].maxOC }

// RandomizeCoreMaxOC assigns each core an individual maximum drawn
// uniformly from [minMHz, MaxOCMHz] (step-aligned), modelling
// manufacturing variability. It uses the provided deterministic source.
func (m *Machine) RandomizeCoreMaxOC(rng *rand.Rand, minMHz int) {
	if minMHz < m.cfg.TurboMHz {
		minMHz = m.cfg.TurboMHz
	}
	span := (m.cfg.MaxOCMHz - minMHz) / m.cfg.StepMHz
	for i := range m.cores {
		mhz := minMHz
		if span > 0 {
			mhz += rng.Intn(span+1) * m.cfg.StepMHz
		}
		m.SetCoreMaxOC(i, mhz)
	}
}

// FastestCores returns the indices of the n cores with the highest
// individual maximum frequencies (ties broken by index) — the "preferred
// cores" a §VI-style scheduler would target first.
func (m *Machine) FastestCores(n int) []int {
	if n <= 0 {
		return nil
	}
	if n > len(m.cores) {
		n = len(m.cores)
	}
	idx := make([]int, len(m.cores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return m.cores[idx[a]].maxOC > m.cores[idx[b]].maxOC
	})
	out := make([]int, n)
	copy(out, idx[:n])
	return out
}

// Freq returns core i's current frequency in MHz.
func (m *Machine) Freq(i int) int { return m.cores[i].freq }

// SetUtil sets core i's utilization in [0,1] (clamped).
func (m *Machine) SetUtil(i int, u float64) {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	// Bits, not ==, so storing -0 over +0 counts as a change.
	if c := &m.cores[i]; math.Float64bits(u) != math.Float64bits(c.util) {
		c.util = u
		m.powerDirty = true
	}
}

// Util returns core i's utilization.
func (m *Machine) Util(i int) float64 { return m.cores[i].util }

// OverclockedCores returns how many cores currently run beyond turbo.
func (m *Machine) OverclockedCores() int {
	n := 0
	for i := range m.cores {
		if m.cores[i].freq > m.cfg.TurboMHz {
			n++
		}
	}
	return n
}

// corePower returns c's instantaneous power draw in watts: its step's
// leakage plus dynamic power at its utilization, Config.CorePower's sum.
func (m *Machine) corePower(c *coreState) float64 {
	st := &m.steps[c.step]
	return st.static + st.dyn*c.util
}

// Power returns the server's instantaneous power draw in watts: the sensor
// an sOA polls. The sum over cores is recomputed, in core order, only after
// a frequency or utilization changed.
func (m *Machine) Power() float64 {
	if m.powerDirty {
		p := m.cfg.IdleWatts
		for i := range m.cores {
			p += m.corePower(&m.cores[i])
		}
		m.power = p
		m.powerDirty = false
	}
	return m.power
}

// Advance integrates time forward by dt in one pass over the cores, in core
// order: the power sum when a write left it stale, energy, the PMT-like
// overclocked time-in-state counters and each core's aging. It panics on
// negative dt.
func (m *Machine) Advance(dt time.Duration) {
	if dt < 0 {
		panic(fmt.Sprintf("machine: negative Advance %v", dt))
	}
	refresh, observe := m.powerDirty, m.obs != nil
	p := m.cfg.IdleWatts
	turbo, steps, aging := m.cfg.TurboMHz, m.steps, m.aging
	ocCores := 0
	var ocSecs float64
	for i := range m.cores {
		c := &m.cores[i]
		if refresh {
			p += m.corePower(c)
		}
		if c.freq > turbo {
			c.ocTime += dt
			ocCores++
		}
		c.aged += time.Duration(float64(dt) * aging.RateAt(c.util, steps[c.step].accel))
		if observe {
			ocSecs += c.ocTime.Seconds()
		}
	}
	if refresh {
		m.power, m.powerDirty = p, false
	}
	m.energy += m.power * dt.Seconds()
	m.elapsed += dt
	if observe {
		m.obs.energy.Set(m.energy)
		m.obs.ocSecs.Set(ocSecs)
		m.obs.ocCores.Set(float64(ocCores))
	}
}

// Aged returns core i's accumulated aging, in time of reference operation
// (full utilization at nominal voltage).
func (m *Machine) Aged(i int) time.Duration { return m.cores[i].aged }

// Elapsed returns the wall-clock time the wear counters observed: the
// expected aging envelope every core's Aged is judged against.
func (m *Machine) Elapsed() time.Duration { return m.elapsed }

// WearState returns every core's wear counters in core order, the form a
// checkpoint stores.
func (m *Machine) WearState() []lifetime.WearState {
	st := make([]lifetime.WearState, len(m.cores))
	for i := range m.cores {
		st[i] = lifetime.WearState{Aged: m.cores[i].aged, Elapsed: m.elapsed}
	}
	return st
}

// RestoreWear overwrites the wear counters from st. It fails before
// touching any state when st does not hold one entry per core, or when its
// entries disagree on Elapsed: a machine's cores observe one clock.
func (m *Machine) RestoreWear(st []lifetime.WearState) error {
	if len(st) != len(m.cores) {
		return fmt.Errorf("machine: wear state has %d cores, machine has %d", len(st), len(m.cores))
	}
	for i := range st {
		if st[i].Elapsed != st[0].Elapsed {
			return fmt.Errorf("machine: wear state core %d elapsed %v, core 0 elapsed %v", i, st[i].Elapsed, st[0].Elapsed)
		}
	}
	for i := range m.cores {
		m.cores[i].aged = st[i].Aged
	}
	m.elapsed = st[0].Elapsed
	return nil
}

// OCTime returns core i's cumulative overclocked time-in-state — the
// counter a real deployment reads through Intel PMT or AMD HSMP.
func (m *Machine) OCTime(i int) time.Duration { return m.cores[i].ocTime }

// TotalOCCoreSeconds returns the sum of overclocked time across cores, in
// core-seconds.
func (m *Machine) TotalOCCoreSeconds() float64 {
	var total float64
	for i := range m.cores {
		total += m.cores[i].ocTime.Seconds()
	}
	return total
}

// Energy returns cumulative energy in joules since construction.
func (m *Machine) Energy() float64 { return m.energy }

// MaxPower returns the server's power with every core fully utilized at
// frequency mhz — used for worst-case admission checks.
func (m *Machine) MaxPower(mhz int) float64 {
	return m.cfg.IdleWatts + float64(m.cfg.Cores)*m.cfg.CorePower(m.cfg.ClampFreq(mhz), 1)
}

// PredictPower returns the modeled server power if ocCores cores ran
// overclocked at ocMHz with utilization ocUtil while the rest stay at turbo
// with utilization baseUtil. This is the "power model" the agents use to
// estimate the impact of overclocking (§V-B: "Models are used to estimate
// the power impact of overclocking; CPU utilization and core frequency are
// the input").
func (c Config) PredictPower(ocCores int, ocMHz int, ocUtil float64, baseUtil float64) float64 {
	if ocCores < 0 {
		ocCores = 0
	}
	if ocCores > c.Cores {
		ocCores = c.Cores
	}
	p := c.IdleWatts
	p += float64(ocCores) * c.CorePower(c.ClampFreq(ocMHz), ocUtil)
	p += float64(c.Cores-ocCores) * c.CorePower(c.TurboMHz, baseUtil)
	return p
}
