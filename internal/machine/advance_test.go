package machine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"smartoclock/internal/lifetime"
	"smartoclock/internal/metrics"
)

// refAgingModel's Accel and Rate are verbatim copies of lifetime.AgingModel's
// before the step table: the clamped utilization times the exponential,
// evaluated on every call.
type refAgingModel struct {
	Kappa     float64
	UtilFloor float64
}

func (m refAgingModel) Accel(voltRatio float64) float64 {
	if voltRatio <= 1 {
		return 1
	}
	return math.Exp(m.Kappa * (voltRatio - 1))
}

func (m refAgingModel) Rate(util, voltRatio float64) float64 {
	if util < m.UtilFloor {
		util = m.UtilFloor
	}
	if util > 1 {
		util = 1
	}
	return util * m.Accel(voltRatio)
}

// refWear is a verbatim copy of lifetime.Wear, the per-core tracker a
// cluster server allocated for each core before wear moved into the
// machine's core record.
type refWear struct {
	model   refAgingModel
	aged    time.Duration
	elapsed time.Duration
}

func (w *refWear) Add(dt time.Duration, util, voltRatio float64) {
	if dt < 0 {
		panic(fmt.Sprintf("lifetime: negative interval %v", dt))
	}
	rate := w.model.Rate(util, voltRatio)
	w.aged += time.Duration(float64(dt) * rate)
	w.elapsed += dt
}

// IsOverclocked reports whether core i runs beyond turbo. Only the
// reference walks below read it one core at a time.
func (m *Machine) IsOverclocked(i int) bool { return m.cores[i].freq > m.cfg.TurboMHz }

// refMachine holds the counters the three per-tick walks kept before they
// were fused: energy and time-in-state from Machine.Advance, per-core wear
// from the cluster server's loop over its trackers. It reads frequencies
// and utilizations from the machine under test, whose writers it shares.
type refMachine struct {
	m       *Machine
	energy  float64
	ocTime  []time.Duration
	wear    []*refWear
	ocCores int
	ocSecs  float64
}

func newRefMachine(m *Machine) *refMachine {
	model := lifetime.DefaultAgingModel()
	r := &refMachine{m: m, ocTime: make([]time.Duration, m.Cores()), wear: make([]*refWear, m.Cores())}
	for i := range r.wear {
		r.wear[i] = &refWear{model: refAgingModel{Kappa: model.Kappa, UtilFloor: model.UtilFloor}}
	}
	return r
}

// Advance is a verbatim copy of Machine.Advance before the fused pass
// (power read from the uncached formula sum, counters renamed onto r),
// followed by a verbatim copy of the cluster server's wear loop.
func (r *refMachine) Advance(dt time.Duration) {
	m := r.m
	if dt < 0 {
		panic(fmt.Sprintf("machine: negative Advance %v", dt))
	}
	r.energy += refPower(m) * dt.Seconds()
	for i := range m.cores {
		if m.IsOverclocked(i) {
			r.ocTime[i] += dt
		}
	}
	ocCores := 0
	var ocSecs float64
	for i := range m.cores {
		if m.IsOverclocked(i) {
			ocCores++
		}
		ocSecs += r.ocTime[i].Seconds()
	}
	r.ocCores, r.ocSecs = ocCores, ocSecs

	cfg := m.Config()
	for i := range r.wear {
		vr := cfg.VoltageRatio(m.Freq(i))
		r.wear[i].Add(dt, m.Util(i), vr)
	}
}

// TestAdvanceMatchesReference drives seeded random sequences of every
// frequency and utilization writer, Power reads (so Advance meets both a
// clean and a stale power cache) and Advance, on instrumented and bare
// machines, and after every Advance compares the fused pass with the
// reference walks bit for bit: energy, each core's overclocked time,
// aging and elapsed time, and the machine's gauges.
func TestAdvanceMatchesReference(t *testing.T) {
	for _, cfg := range testConfigs() {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := New(cfg)
			var reg *metrics.Registry
			if seed%2 == 0 {
				reg = metrics.NewRegistry()
				m.Instrument(reg)
			}
			ref := newRefMachine(m)
			for step := 0; step < 1500; step++ {
				core := rng.Intn(cfg.Cores)
				switch op := rng.Intn(10); {
				case op < 7:
					randomWrite(rng, m, core, op)
				case op == 7:
					_ = m.Power()
				default:
					dt := time.Duration(rng.Intn(5000)) * time.Millisecond
					if rng.Intn(8) == 0 {
						dt = time.Duration(rng.Int63n(int64(time.Hour)))
					}
					ref.Advance(dt)
					m.Advance(dt)
					checkAgainstReference(t, fmt.Sprintf("cores=%d seed %d step %d", cfg.Cores, seed, step), m, ref, reg)
				}
			}
		}
	}
}

func checkAgainstReference(t *testing.T, at string, m *Machine, ref *refMachine, reg *metrics.Registry) {
	t.Helper()
	if got, want := m.Energy(), ref.energy; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: energy %v, reference %v", at, got, want)
	}
	for i := range m.cores {
		if got, want := m.OCTime(i), ref.ocTime[i]; got != want {
			t.Fatalf("%s: core %d OCTime %v, reference %v", at, i, got, want)
		}
		if got, want := m.Aged(i), ref.wear[i].aged; got != want {
			t.Fatalf("%s: core %d aged %d, reference %d", at, i, got, want)
		}
		if got, want := m.Elapsed(), ref.wear[i].elapsed; got != want {
			t.Fatalf("%s: core %d elapsed %d, reference %d", at, i, got, want)
		}
	}
	if got, want := m.TotalOCCoreSeconds(), ref.ocSecs; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: oc core-seconds %v, reference %v", at, got, want)
	}
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	for _, g := range []struct {
		name string
		want float64
	}{
		{"machine_energy_joules", ref.energy},
		{"machine_oc_core_seconds", ref.ocSecs},
		{"machine_oc_cores", float64(ref.ocCores)},
	} {
		s := snap.Find(g.name, nil)
		if s == nil || math.Float64bits(s.Value) != math.Float64bits(g.want) {
			t.Fatalf("%s: gauge %s = %+v, reference %v", at, g.name, s, g.want)
		}
	}
}

// reachableMHz returns every frequency a core of a cfg machine can hold:
// TurboMHz, where New starts every core, and whatever ClampFreq makes of
// any request around the machine's range.
func reachableMHz(cfg Config) []int {
	seen := map[int]bool{cfg.TurboMHz: true}
	out := []int{cfg.TurboMHz}
	for mhz := cfg.MinMHz - 3*cfg.StepMHz; mhz <= cfg.MaxOCMHz+3*cfg.StepMHz; mhz++ {
		if f := cfg.ClampFreq(mhz); !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// TestStepTableMatchesFormulas checks every DVFS step of each test machine,
// the off-grid turbo entry included: the table's power terms against
// Config.CorePower's expressions and its aging factor against
// exp(Kappa·(max(vr, 1) − 1)), bit for bit, and the rate Advance forms from
// it against the verbatim Rate for utilizations below the floor, inside
// [UtilFloor, 1] and above 1.
func TestStepTableMatchesFormulas(t *testing.T) {
	aging := lifetime.DefaultAgingModel()
	ref := refAgingModel{Kappa: aging.Kappa, UtilFloor: aging.UtilFloor}
	utils := []float64{math.Copysign(0, -1), 0, -1, 0.01, 0.05, 0.3, 0.5, 1, 1.5, 7}
	for _, cfg := range testConfigs() {
		m := New(cfg)
		for _, mhz := range reachableMHz(cfg) {
			st := m.steps[m.stepIndex(mhz)]
			vr := cfg.VoltageRatio(mhz)
			v2 := vr * vr
			fr := float64(mhz) / float64(cfg.TurboMHz)
			same := func(what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("turbo %d, %d MHz: %s %v, want %v", cfg.TurboMHz, mhz, what, got, want)
				}
			}
			same("static", st.static, cfg.StaticCoreWatts*v2)
			same("dyn", st.dyn, cfg.DynCoreWatts*fr*v2)
			same("accel", st.accel, math.Exp(aging.Kappa*(math.Max(vr, 1)-1)))
			for _, u := range utils {
				if u >= 0 && u <= 1 {
					same(fmt.Sprintf("power(util %v)", u), st.static+st.dyn*u, cfg.CorePower(mhz, u))
				}
				same(fmt.Sprintf("rate(util %v)", u), aging.RateAt(u, st.accel), ref.Rate(u, vr))
			}
		}
	}
}
