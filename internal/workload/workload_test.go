package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

const (
	turbo = 3300
	oc    = 4000
)

var tstart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func TestServiceTimeScalesWithFrequency(t *testing.T) {
	m := Microservice{BaseLatencyMS: 10, CPUSensitivity: 1}
	at := m.ServiceTimeMS(turbo, turbo)
	if at != 10 {
		t.Fatalf("turbo service time = %v", at)
	}
	got := m.ServiceTimeMS(oc, turbo)
	want := 10 * float64(turbo) / float64(oc)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("OC service time = %v, want %v", got, want)
	}
}

func TestMemoryBoundServiceBenefitsLess(t *testing.T) {
	cpu := Microservice{BaseLatencyMS: 10, CPUSensitivity: 0.9}
	mem := Microservice{BaseLatencyMS: 10, CPUSensitivity: 0.3}
	cpuGain := 1 - cpu.ServiceTimeMS(oc, turbo)/10
	memGain := 1 - mem.ServiceTimeMS(oc, turbo)/10
	if memGain >= cpuGain {
		t.Fatalf("memory-bound gain %v >= cpu-bound gain %v", memGain, cpuGain)
	}
}

func TestRhoAndCapacity(t *testing.T) {
	m := Microservice{BaseLatencyMS: 10, CPUSensitivity: 1, Cores: 4}
	// ES = 10ms, c = 4 → capacity 400 rps.
	if got := m.CapacityRPS(turbo, turbo); math.Abs(got-400) > 1e-9 {
		t.Fatalf("capacity = %v", got)
	}
	if got := NewInstance(m).Step(time.Second, 200, turbo, turbo, nil).Rho; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("rho = %v", got)
	}
	if NewInstance(m).Step(time.Second, -5, turbo, turbo, nil).Rho != 0 {
		t.Fatal("negative rps must clamp")
	}
}

func TestSLODefinition(t *testing.T) {
	m := Microservice{BaseLatencyMS: 4}
	if m.SLOms() != 20 {
		t.Fatalf("SLO = %v", m.SLOms())
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	m := SocialNet()[0]
	in := NewInstance(m)
	prev := 0.0
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		in.Reset()
		rps := rho * m.CapacityRPS(turbo, turbo)
		r := in.Step(time.Second, rps, turbo, turbo, nil)
		if r.P99MS <= prev {
			t.Fatalf("P99 not increasing at rho=%v: %v <= %v", rho, r.P99MS, prev)
		}
		prev = r.P99MS
	}
}

func TestOverclockingReducesLatencyAndUtil(t *testing.T) {
	m := SocialNet()[0]
	rps := HighLoad.RPS(m, turbo)
	base := NewInstance(m).Step(time.Second, rps, turbo, turbo, nil)
	ocr := NewInstance(m).Step(time.Second, rps, oc, turbo, nil)
	if ocr.P99MS >= base.P99MS {
		t.Fatal("overclocking must reduce tail latency")
	}
	if ocr.Util >= base.Util {
		t.Fatal("overclocking must reduce utilization")
	}
}

func TestOverloadBacklogGrowsAndDrains(t *testing.T) {
	m := SocialNet()[0]
	in := NewInstance(m)
	over := 1.3 * m.CapacityRPS(turbo, turbo)
	r1 := in.Step(time.Second, over, turbo, turbo, nil)
	r2 := in.Step(time.Second, over, turbo, turbo, nil)
	if in.backlogReqs <= 0 {
		t.Fatal("backlog must grow under overload")
	}
	if r2.P99MS <= r1.P99MS {
		t.Fatal("latency must keep growing under sustained overload")
	}
	if r2.Util != 1 {
		t.Fatalf("overloaded util = %v", r2.Util)
	}
	// Drain with low load.
	for i := 0; i < 100 && in.backlogReqs > 0; i++ {
		in.Step(time.Second, 0, turbo, turbo, nil)
	}
	if in.backlogReqs != 0 {
		t.Fatalf("backlog did not drain: %v", in.backlogReqs)
	}
}

// TestFig2Shape replays the paper's Fig 2 matrix: Baseline (1×turbo),
// Overclock (1×OC), ScaleOut (2×turbo) per load level.
func TestFig2Shape(t *testing.T) {
	services := SocialNet()
	violations := func(freq, instances int, level LoadLevel) int {
		count := 0
		for _, m := range services {
			d := NewDeployment(m, instances)
			r := d.Step(time.Second, level.RPS(m, turbo), freq, turbo, nil)
			if r.SLOvio {
				count++
			}
		}
		return count
	}

	// Low load: everything meets SLOs in all three environments.
	for _, env := range []struct {
		freq, n int
	}{{turbo, 1}, {oc, 1}, {turbo, 2}} {
		if v := violations(env.freq, env.n, LowLoad); v != 0 {
			t.Fatalf("low load: %d violations at freq=%d n=%d", v, env.freq, env.n)
		}
	}

	baseHigh := violations(turbo, 1, HighLoad)
	ocHigh := violations(oc, 1, HighLoad)
	scaleHigh := violations(turbo, 2, HighLoad)
	if baseHigh < 6 {
		t.Fatalf("baseline high load violations = %d, want most services", baseHigh)
	}
	if ocHigh >= baseHigh {
		t.Fatalf("overclock must reduce violations: %d vs %d", ocHigh, baseHigh)
	}
	if scaleHigh != 0 {
		t.Fatalf("scale-out high load violations = %d, want 0", scaleHigh)
	}
}

// TestUsrTolerantUrlShortFragile checks the paper's Q1 observation.
func TestUsrTolerantUrlShortFragile(t *testing.T) {
	usr, ok := FindService("Usr")
	if !ok {
		t.Fatal("Usr missing")
	}
	urlShort, ok := FindService("UrlShort")
	if !ok {
		t.Fatal("UrlShort missing")
	}
	// Usr meets its SLO even at high utilization on a single instance.
	r := NewInstance(usr).Step(time.Second, HighLoad.RPS(usr, turbo), turbo, turbo, nil)
	if r.SLOvio {
		t.Fatalf("Usr violated SLO at high load: P99=%v SLO=%v", r.P99MS, usr.SLOms())
	}
	if r.Util < 0.8 {
		t.Fatalf("Usr utilization = %v, expected high", r.Util)
	}
	// UrlShort violates already at medium load/utilization.
	r = NewInstance(urlShort).Step(time.Second, MediumLoad.RPS(urlShort, turbo), turbo, turbo, nil)
	if !r.SLOvio {
		t.Fatalf("UrlShort met SLO at medium load: P99=%v SLO=%v", r.P99MS, urlShort.SLOms())
	}
}

func TestFindService(t *testing.T) {
	if _, ok := FindService("nope"); ok {
		t.Fatal("FindService must miss")
	}
	if len(SocialNet()) != 8 {
		t.Fatalf("SocialNet has %d services, want 8", len(SocialNet()))
	}
}

func TestNewDeploymentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDeployment(SocialNet()[0], 0)
}

func TestScaleOutHalvesUtil(t *testing.T) {
	m := SocialNet()[0]
	rps := MediumLoad.RPS(m, turbo)
	one := NewDeployment(m, 1).Step(time.Second, rps, turbo, turbo, nil)
	two := NewDeployment(m, 2).Step(time.Second, rps, turbo, turbo, nil)
	if math.Abs(two.Util-one.Util/2) > 1e-9 {
		t.Fatalf("scale-out util %v, want %v", two.Util, one.Util/2)
	}
}

func TestStepNoiseDeterministic(t *testing.T) {
	m := SocialNet()[0]
	a := NewInstance(m).Step(time.Second, 100, turbo, turbo, rand.New(rand.NewSource(3)))
	b := NewInstance(m).Step(time.Second, 100, turbo, turbo, rand.New(rand.NewSource(3)))
	if a.P99MS != b.P99MS {
		t.Fatal("same seed must give same noise")
	}
}

func TestMLTrainThroughputScalesWithFreq(t *testing.T) {
	ml := NewMLTrain(100)
	if got := ml.Throughput(turbo, turbo); got != 100 {
		t.Fatalf("turbo throughput = %v", got)
	}
	capped := ml.Throughput(2300, turbo)
	if capped >= 100 {
		t.Fatal("capped throughput must drop")
	}
	ml.Step(10*time.Second, turbo, turbo)
	ml.Step(10*time.Second, 2300, turbo)
	if ml.totalSteps >= 2000 || ml.totalSteps <= 1000 {
		t.Fatalf("TotalSteps = %v", ml.totalSteps)
	}
	if ml.MeanThroughput() >= 100 {
		t.Fatalf("MeanThroughput = %v", ml.MeanThroughput())
	}
}

func TestMLTrainEmptyMeanThroughput(t *testing.T) {
	if NewMLTrain(100).MeanThroughput() != 0 {
		t.Fatal("empty mean must be 0")
	}
}

// TestFig16Calibration: overclocking must cut WebConf utilization ≈20-25%
// at fixed load and serve ≈25-30% more load at fixed utilization.
func TestFig16Calibration(t *testing.T) {
	w := NewWebConf(2000)
	rps := 1800.0
	baseUtil := w.Util(rps, turbo, turbo)
	ocUtil := w.Util(rps, oc, turbo)
	reduction := 1 - ocUtil/baseUtil
	if reduction < 0.18 || reduction > 0.28 {
		t.Fatalf("util reduction = %v, want ≈0.23", reduction)
	}
	moreLoad := w.RPSAtUtil(baseUtil, oc, turbo)/rps - 1
	if moreLoad < 0.22 || moreLoad > 0.35 {
		t.Fatalf("extra load at equal util = %v, want ≈0.28", moreLoad)
	}
}

func TestWebConfUtilClamps(t *testing.T) {
	w := NewWebConf(1000)
	if w.Util(5000, turbo, turbo) != 1 {
		t.Fatal("util must clamp to 1")
	}
	if w.Util(-10, turbo, turbo) != 0 {
		t.Fatal("util must clamp to 0")
	}
	zero := WebConf{}
	if zero.Util(10, turbo, turbo) != 1 {
		t.Fatal("zero capacity must saturate")
	}
}

func TestDeploymentUtil(t *testing.T) {
	if got := DeploymentUtil([]float64{0.1, 0.8}); math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("DeploymentUtil = %v", got)
	}
	if DeploymentUtil(nil) != 0 {
		t.Fatal("empty deployment util must be 0")
	}
}

func TestLoadLevels(t *testing.T) {
	if len(Levels()) != 3 {
		t.Fatal("Levels must return 3")
	}
	if LowLoad.String() != "Low" || HighLoad.String() != "High" {
		t.Fatal("level names wrong")
	}
	if !(LowLoad.Rho() < MediumLoad.Rho() && MediumLoad.Rho() < HighLoad.Rho()) {
		t.Fatal("rho ordering wrong")
	}
	m := SocialNet()[0]
	if HighLoad.RPS(m, turbo) <= LowLoad.RPS(m, turbo) {
		t.Fatal("RPS ordering wrong")
	}
}

func TestLoadGenDiurnalAndBursts(t *testing.T) {
	g := &LoadGen{BaseRPS: 100, DiurnalAmp: 0.5}
	day := tstart.Add(14 * time.Hour) // afternoon > base
	night := tstart.Add(2 * time.Hour)
	if g.RPSAt(day, nil) <= g.RPSAt(night, nil) {
		t.Fatal("diurnal modulation wrong")
	}

	gb := &LoadGen{BaseRPS: 100, BurstProb: 1, BurstFactor: 3, BurstLen: 2}
	rng := rand.New(rand.NewSource(1))
	r1 := gb.RPSAt(tstart, rng)
	if r1 != 300 {
		t.Fatalf("burst rate = %v", r1)
	}
	// Burst persists for BurstLen steps.
	r2 := gb.RPSAt(tstart.Add(time.Second), rng)
	if r2 != 300 {
		t.Fatalf("burst continuation = %v", r2)
	}
}

func TestLoadGenNeverNegative(t *testing.T) {
	g := &LoadGen{BaseRPS: 1, NoiseSD: 10}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if g.RPSAt(tstart, rng) < 0 {
			t.Fatal("negative rate")
		}
	}
}

func BenchmarkInstanceStep(b *testing.B) {
	m := SocialNet()[0]
	in := NewInstance(m)
	rps := HighLoad.RPS(m, turbo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Step(time.Second, rps, turbo, turbo, nil)
	}
}

func TestErlangC(t *testing.T) {
	// Single server: Erlang C reduces to rho.
	if got := ErlangC(0.5, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ErlangC(0.5,1) = %v, want 0.5", got)
	}
	// Unstable and degenerate inputs.
	if ErlangC(2, 1) != 1 {
		t.Fatal("unstable system must always wait")
	}
	if ErlangC(0, 4) != 0 || ErlangC(1, 0) != 0 {
		t.Fatal("degenerate inputs must be 0")
	}
	// More servers at the same offered load wait less.
	if ErlangC(2, 3) <= ErlangC(2.6667, 4)*0 { // sanity guard
	}
	if !(ErlangC(3, 4) > ErlangC(3, 6)) {
		t.Fatal("more servers must reduce waiting probability")
	}
}

func TestMeanSojournMMC(t *testing.T) {
	// M/M/1 closed form: 1/(mu - lambda).
	got := MeanSojournMMC(5, 10, 1)
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("M/M/1 sojourn = %v, want 0.2", got)
	}
	if !math.IsInf(MeanSojournMMC(10, 5, 1), 1) {
		t.Fatal("unstable sojourn must be +Inf")
	}
}

func TestSimulateMMCMatchesAnalytics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lambda, mu, c := 300.0, 100.0, 4 // rho = 0.75
	lat := SimulateMMC(rng, lambda, mu, c, 200000)
	if len(lat) != 200000 {
		t.Fatalf("simulated %d requests", len(lat))
	}
	simMeanMS := 0.0
	for _, l := range lat {
		simMeanMS += l
	}
	simMeanMS /= float64(len(lat))
	wantMS := MeanSojournMMC(lambda, mu, c) * 1000
	if rel := math.Abs(simMeanMS-wantMS) / wantMS; rel > 0.05 {
		t.Fatalf("simulated mean %.3f ms vs analytic %.3f ms (rel err %.3f)", simMeanMS, wantMS, rel)
	}
}

func TestSimulateMMCTailGrowsWithLoad(t *testing.T) {
	p99 := func(rho float64) float64 {
		rng := rand.New(rand.NewSource(7))
		lat := SimulateMMC(rng, rho*400, 100, 4, 50000)
		sorted := append([]float64(nil), lat...)
		sort.Float64s(sorted)
		return sorted[int(0.99*float64(len(sorted)))]
	}
	low, high := p99(0.4), p99(0.9)
	if high <= 2*low {
		t.Fatalf("P99 at rho 0.9 (%v ms) must far exceed rho 0.4 (%v ms)", high, low)
	}
}

// TestInterpolationModelTracksQueueSim anchors the fast interpolation
// latency model to the request-level simulation: within the operating
// regime the cluster emulation uses (rho 0.3-0.9), the model's P99 must
// stay within the right order of magnitude and preserve ordering.
func TestInterpolationModelTracksQueueSim(t *testing.T) {
	m := Microservice{Name: "anchor", BaseLatencyMS: 10, CPUSensitivity: 1,
		Knee: 1.0, AvgKnee: 0.25, Exponent: 2, Cores: 4}
	mu := 1000.0 / m.BaseLatencyMS // per-core service rate in 1/s
	prevSim, prevModel := 0.0, 0.0
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		lambda := rho * float64(m.Cores) * mu
		rng := rand.New(rand.NewSource(11))
		lat := SimulateMMC(rng, lambda, mu, m.Cores, 60000)
		sort.Float64s(lat)
		simP99 := lat[int(0.99*float64(len(lat)))]

		res := NewInstance(m).Step(time.Second, lambda, 3300, 3300, nil)
		if res.P99MS < prevModel || simP99 < prevSim {
			t.Fatal("P99 must grow with load in both models")
		}
		prevModel, prevSim = res.P99MS, simP99
		// Same order of magnitude across the regime.
		ratio := res.P99MS / simP99
		if ratio < 0.2 || ratio > 5 {
			t.Fatalf("rho %.1f: model %.1f ms vs sim %.1f ms (ratio %.2f)",
				rho, res.P99MS, simP99, ratio)
		}
	}
}

func TestSimulateMMCDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if SimulateMMC(rng, 0, 1, 1, 10) != nil {
		t.Fatal("zero lambda must return nil")
	}
	if SimulateMMC(rng, 1, 1, 1, 0) != nil {
		t.Fatal("zero requests must return nil")
	}
}
