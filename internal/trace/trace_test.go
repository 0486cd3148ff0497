package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"smartoclock/internal/predict"
	"smartoclock/internal/stats"
)

// genStart is a Monday.
var genStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func TestPatternStrings(t *testing.T) {
	names := map[Pattern]string{
		PatternDiurnal: "diurnal", PatternBroadPeak: "broadpeak",
		PatternSpiky: "spiky", PatternConstant: "constant", PatternNightly: "nightly",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestServiceAProfileShape(t *testing.T) {
	p := ServiceA()
	peak := p.UtilAt(genStart.Add(11*time.Hour), nil) // 11:00 Monday
	off := p.UtilAt(genStart.Add(15*time.Hour), nil)  // 15:00 Monday
	night := p.UtilAt(genStart.Add(3*time.Hour), nil) // 03:00 Monday
	if peak <= off || peak <= night {
		t.Fatalf("broad peak shape wrong: peak=%v off=%v night=%v", peak, off, night)
	}
	if peak != p.PeakUtil {
		t.Fatalf("peak = %v, want %v", peak, p.PeakUtil)
	}
}

func TestSpikyProfileSpikesTopAndBottomOfHour(t *testing.T) {
	p := ServiceB()
	top := p.UtilAt(genStart.Add(10*time.Hour+2*time.Minute), nil)
	bottom := p.UtilAt(genStart.Add(10*time.Hour+32*time.Minute), nil)
	mid := p.UtilAt(genStart.Add(10*time.Hour+15*time.Minute), nil)
	if top != p.PeakUtil || bottom != p.PeakUtil {
		t.Fatalf("spikes missing: top=%v bottom=%v", top, bottom)
	}
	if mid != p.BaseUtil {
		t.Fatalf("mid-hour = %v, want base %v", mid, p.BaseUtil)
	}
}

func TestWeekendFactorApplies(t *testing.T) {
	p := ServiceA()
	sat := genStart.Add(5 * 24 * time.Hour).Add(11 * time.Hour) // Saturday 11:00
	mon := genStart.Add(11 * time.Hour)
	if p.UtilAt(sat, nil) >= p.UtilAt(mon, nil) {
		t.Fatal("weekend must reduce utilization")
	}
}

func TestUtilClamped(t *testing.T) {
	p := ServiceProfile{Pattern: PatternConstant, PeakUtil: 5}
	if got := p.UtilAt(genStart, nil); got != 1 {
		t.Fatalf("util = %v, want clamp to 1", got)
	}
	p.PeakUtil = -3
	if got := p.UtilAt(genStart, nil); got != 0.01 {
		t.Fatalf("util = %v, want floor 0.01", got)
	}
}

func TestPhaseShiftRotates(t *testing.T) {
	base := ServiceProfile{Pattern: PatternDiurnal, BaseUtil: 0.1, PeakUtil: 0.9}
	shifted := base
	shifted.PhaseShiftHours = 6
	ts := genStart.Add(12 * time.Hour)
	if base.UtilAt(ts, nil) == shifted.UtilAt(ts, nil) {
		t.Fatal("phase shift must change utilization at noon")
	}
	// Shifted by 6h == original 6h earlier.
	if got, want := shifted.UtilAt(ts, nil), base.UtilAt(genStart.Add(6*time.Hour), nil); got != want {
		t.Fatalf("shift semantics: got %v want %v", got, want)
	}
}

func TestNoiseIsDeterministicPerRNG(t *testing.T) {
	p := ServiceB()
	a := p.UtilAt(genStart, rand.New(rand.NewSource(5)))
	b := p.UtilAt(genStart, rand.New(rand.NewSource(5)))
	if a != b {
		t.Fatal("same seed must give same noise")
	}
}

func TestServerSpecUtilAggregation(t *testing.T) {
	hw := DefaultRackGenConfig("r", genStart, time.Hour).HW
	spec := ServerSpec{Name: "s", HW: hw, VMs: []VMSpec{
		{Service: ServiceProfile{Pattern: PatternConstant, PeakUtil: 1}, Cores: hw.Cores / 2},
	}}
	if got := spec.UtilAtClock(ClockOf(genStart), nil); got != 0.5 {
		t.Fatalf("server util = %v, want 0.5", got)
	}
	if n := vmCores(spec); n != hw.Cores/2 {
		t.Fatalf("VM cores = %d", n)
	}
}

func TestGenRackBasics(t *testing.T) {
	cfg := DefaultRackGenConfig("rackA", genStart, 24*time.Hour)
	cfg.Servers = 6
	rack, err := GenRack(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rack.Servers) != 6 {
		t.Fatalf("servers = %d", len(rack.Servers))
	}
	steps := int(cfg.Duration / cfg.Step)
	for _, s := range rack.Servers {
		if s.Util.Len() != steps || s.Power.Len() != steps {
			t.Fatalf("series lengths %d/%d, want %d", s.Util.Len(), s.Power.Len(), steps)
		}
		if len(s.Spec.VMs) < cfg.VMsPerServerMin {
			t.Fatalf("server has %d VMs", len(s.Spec.VMs))
		}
		if vmCores(s.Spec) > cfg.HW.Cores {
			t.Fatal("VM cores exceed server cores")
		}
	}
	if rack.LimitWatts <= 0 {
		t.Fatal("limit not set")
	}
}

func TestGenRackDeterministic(t *testing.T) {
	cfg := DefaultRackGenConfig("rackA", genStart, 12*time.Hour)
	cfg.Servers = 3
	a, err := GenRack(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenRack(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.LimitWatts != b.LimitWatts {
		t.Fatal("limits differ across same-seed runs")
	}
	for i := range a.Servers {
		for j := range a.Servers[i].Power.Values {
			if a.Servers[i].Power.Values[j] != b.Servers[i].Power.Values[j] {
				t.Fatalf("power differs at server %d sample %d", i, j)
			}
		}
	}
}

func TestGenRackP99TargetsClass(t *testing.T) {
	cfg := DefaultRackGenConfig("rackA", genStart, 3*24*time.Hour)
	cfg.Servers = 8
	cfg.TargetP99Util = 0.85
	rack, err := GenRack(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	_, _, p99 := rack.UtilizationStats()
	if p99 < 0.80 || p99 > 0.90 {
		t.Fatalf("P99 utilization = %v, want ≈0.85", p99)
	}
}

func TestGenRackValidation(t *testing.T) {
	cfg := DefaultRackGenConfig("rackA", genStart, time.Hour)
	cfg.Servers = 0
	if _, err := GenRack(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestFig9Heterogeneity: servers within one rack must show heterogeneous
// power profiles and the dominant server must change over time.
func TestFig9Heterogeneity(t *testing.T) {
	cfg := DefaultRackGenConfig("rackA", genStart, 2*24*time.Hour)
	cfg.Servers = 6
	rack, err := GenRack(cfg, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	// Mean power spread across servers should exceed 10%.
	var means []float64
	for _, s := range rack.Servers {
		means = append(means, stats.Mean(s.Power.Values))
	}
	if spread := (stats.Max(means) - stats.Min(means)) / stats.Max(means); spread < 0.1 {
		t.Fatalf("server power spread = %v, want >= 0.1", spread)
	}
	// The identity of the most power-hungry server must change over time.
	dominant := map[int]bool{}
	steps := rack.Servers[0].Power.Len()
	for j := 0; j < steps; j += 12 {
		best, bestP := 0, 0.0
		for i, s := range rack.Servers {
			if s.Power.Values[j] > bestP {
				bestP = s.Power.Values[j]
				best = i
			}
		}
		dominant[best] = true
	}
	if len(dominant) < 2 {
		t.Fatalf("dominant server never changes (always %v)", dominant)
	}
}

// TestRackPowerPredictable: rack-level power must be predictable by
// DailyMed (the paper's Q3/Fig 8 property).
func TestRackPowerPredictable(t *testing.T) {
	cfg := DefaultRackGenConfig("rackA", genStart, 14*24*time.Hour)
	cfg.Servers = 10
	cfg.OutlierDayProb = 0
	rack, err := GenRack(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	total := rack.RackPower()
	split := genStart.Add(7 * 24 * time.Hour)
	train := total.Slice(genStart, split)
	test := total.Slice(split, total.End())
	ev, err := predict.Evaluate(predict.NewDailyMed(), train, test)
	if err != nil {
		t.Fatal(err)
	}
	// Relative RMSE below 5% of mean rack power.
	if rel := ev.RMSE / stats.Mean(total.Values); rel > 0.05 {
		t.Fatalf("relative RMSE = %v, rack power must be predictable", rel)
	}
}

// genRacks generates every rack of cfg, one GenFleetRack call per index.
func genRacks(t *testing.T, cfg FleetConfig) []*FleetRack {
	t.Helper()
	racks := make([]*FleetRack, cfg.NumRacks())
	for i := range racks {
		fr, err := GenFleetRack(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		racks[i] = fr
	}
	return racks
}

func TestGenFleetClassesAndRegions(t *testing.T) {
	cfg := DefaultFleetConfig(genStart, 24*time.Hour)
	cfg.RacksPerRegion = 6
	cfg.Regions = []string{"R1", "R2"}
	cfg.RackTemplate.Servers = 4
	racks := genRacks(t, cfg)
	if len(racks) != 12 {
		t.Fatalf("racks = %d", len(racks))
	}
	byRegion := map[string]int{}
	byClass := map[ClusterClass]int{}
	for _, r := range racks {
		byRegion[r.Region]++
		byClass[r.Class]++
	}
	if byRegion["R1"] != 6 || byRegion["R2"] != 6 {
		t.Fatalf("racks per region = %v", byRegion)
	}
	if total := byClass[HighPower] + byClass[MediumPower] + byClass[LowPower]; total != 12 {
		t.Fatalf("class partition covers %d racks", total)
	}
}

func TestGenFleetEmptyConfig(t *testing.T) {
	if _, err := GenFleetRack(FleetConfig{}, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestClusterClassStrings(t *testing.T) {
	if HighPower.String() != "High-Power" || LowPower.String() != "Low-Power" {
		t.Fatal("class names wrong")
	}
	if HighPower.TargetP99Util() <= MediumPower.TargetP99Util() ||
		MediumPower.TargetP99Util() <= LowPower.TargetP99Util() {
		t.Fatal("class targets must be ordered")
	}
}

func TestRackJSONRoundTrip(t *testing.T) {
	cfg := DefaultRackGenConfig("rackA", genStart, 2*time.Hour)
	cfg.Servers = 2
	rack, err := GenRack(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRackJSON(&buf, rack); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRackJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rack.Name || got.LimitWatts != rack.LimitWatts || len(got.Servers) != 2 {
		t.Fatal("round trip lost data")
	}
	if got.Servers[0].Power.Values[3] != rack.Servers[0].Power.Values[3] {
		t.Fatal("round trip lost samples")
	}
}

func BenchmarkGenRackDay(b *testing.B) {
	cfg := DefaultRackGenConfig("rackA", genStart, 24*time.Hour)
	cfg.Servers = 28
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenRack(cfg, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGenFleetDeterministic(t *testing.T) {
	cfg := DefaultFleetConfig(genStart, 24*time.Hour)
	cfg.Regions = []string{"R1"}
	cfg.RacksPerRegion = 3
	cfg.RackTemplate.Servers = 3
	a, b := genRacks(t, cfg), genRacks(t, cfg)
	for i := range a {
		if a[i].Class != b[i].Class || a[i].LimitWatts != b[i].LimitWatts {
			t.Fatalf("fleet differs at rack %d", i)
		}
	}
}

func TestOutlierWithinDaysConfinesAnomaly(t *testing.T) {
	// With OutlierDayProb = 1 and OutlierWithinDays = 2, the anomalous day
	// must fall in the first two days.
	cfg := DefaultRackGenConfig("out", genStart, 6*24*time.Hour)
	cfg.Servers = 2
	cfg.OutlierDayProb = 1
	cfg.OutlierWithinDays = 2
	cfg.OutlierBoost = 3 // unmistakable
	withOut, err := GenRack(cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.OutlierDayProb = 0
	noOut, err := GenRack(cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	// Compare daily means: only days 0-1 may differ substantially. The
	// two rack generations consume different rng sequences, so compare
	// day-level aggregates with a generous tolerance.
	dayMean := func(r *RackTrace, day int) float64 {
		s := r.RackPower()
		from := genStart.Add(time.Duration(day) * 24 * time.Hour)
		return stats.Mean(s.Slice(from, from.Add(24*time.Hour)).Values)
	}
	boosted := 0
	for d := 0; d < 6; d++ {
		ratio := dayMean(withOut, d) / dayMean(noOut, d)
		if ratio > 1.15 {
			if d >= 2 {
				t.Fatalf("outlier leaked to day %d (ratio %v)", d, ratio)
			}
			boosted++
		}
	}
	if boosted == 0 {
		t.Fatal("no boosted day found in the allowed window")
	}
}

func TestRackGenConfigValidation(t *testing.T) {
	base := DefaultRackGenConfig("r", genStart, time.Hour)
	cases := []func(*RackGenConfig){
		func(c *RackGenConfig) { c.Servers = 0 },
		func(c *RackGenConfig) { c.Profiles = nil },
		func(c *RackGenConfig) { c.VMsPerServerMin = 0 },
		func(c *RackGenConfig) { c.VMsPerServerMax = c.VMsPerServerMin - 1 },
		func(c *RackGenConfig) { c.VMCoresMin = 0 },
		func(c *RackGenConfig) { c.VMCoresMax = c.VMCoresMin - 1 },
		func(c *RackGenConfig) { c.TargetP99Util = 0 },
		func(c *RackGenConfig) { c.TargetP99Util = 2 },
		func(c *RackGenConfig) { c.Step = 0 },
		func(c *RackGenConfig) { c.Duration = c.Step - 1 },
		func(c *RackGenConfig) { c.HW.Cores = 0 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGenFleetRackStreamsIndependent proves the seed-derivation hygiene the
// parallel runner depends on: rack i's trace is a pure function of (seed,
// rack index), unaffected by how many sibling racks the fleet has.
func TestGenFleetRackStreamsIndependent(t *testing.T) {
	base := DefaultFleetConfig(genStart, 24*time.Hour)
	base.Regions = []string{"R1"}
	base.RackTemplate.Servers = 3

	gen := func(racks int) []*FleetRack {
		cfg := base
		cfg.RacksPerRegion = racks
		return genRacks(t, cfg)
	}

	small, big := gen(2), gen(5)
	for i, want := range small {
		got := big[i]
		if got.Class != want.Class || got.Name != want.Name ||
			got.LimitWatts != want.LimitWatts {
			t.Fatalf("rack %d header differs: %v/%v vs %v/%v",
				i, got.Class, got.LimitWatts, want.Class, want.LimitWatts)
		}
		for si, st := range want.Servers {
			ost := got.Servers[si]
			if len(ost.Power.Values) != len(st.Power.Values) {
				t.Fatalf("rack %d server %d length differs", i, si)
			}
			for k := range st.Power.Values {
				if ost.Power.Values[k] != st.Power.Values[k] ||
					ost.Util.Values[k] != st.Util.Values[k] {
					t.Fatalf("rack %d server %d sample %d differs", i, si, k)
				}
			}
		}
	}
}

// vmCores returns the number of cores spec allocates to VMs.
func vmCores(spec ServerSpec) int {
	n := 0
	for _, vm := range spec.VMs {
		n += vm.Cores
	}
	return n
}
