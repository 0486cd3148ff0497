package policy

import (
	"math/rand"
	"testing"
	"time"
)

// TestPolicyConformance runs the shared law suite against every certified
// factory — the same sets the zoo matrix runs by default.
func TestPolicyConformance(t *testing.T) {
	for _, f := range Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			Conformance(t, f)
		})
	}
}

// recorderTB counts conformance failures instead of failing the test, so a
// negative test can assert the suite has teeth.
type recorderTB struct {
	failures []string
}

func (r *recorderTB) Helper() {}

func (r *recorderTB) Errorf(format string, args ...any) {
	r.failures = append(r.failures, format)
}

// TestCanaryFailsConformance proves the suite is not vacuous: the
// deliberately unsafe over-granting canary must break the budget law.
func TestCanaryFailsConformance(t *testing.T) {
	rec := &recorderTB{}
	Conformance(rec, Canary())
	if len(rec.failures) == 0 {
		t.Fatal("canary policy passed the conformance suite; the budget law is toothless")
	}
}

// TestConformanceUsesRecorder pins the TB seam: *testing.T satisfies the
// interface (compile-time check via TestPolicyConformance above) and a
// recorder sees exactly the failures Errorf reports.
func TestConformanceUsesRecorder(t *testing.T) {
	rec := &recorderTB{}
	conformBudgetRespect(rec, Canary(), 1)
	if len(rec.failures) != 1 {
		t.Fatalf("budget law reported %d failures for the canary, want exactly 1 (fail-fast)", len(rec.failures))
	}
}

// TB is the minimal failure-reporting surface the conformance suite needs.
// *testing.T satisfies it; negative tests substitute a recorder to prove the
// suite rejects an unsafe policy.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// conformParams are the fixed knobs every law is checked under.
func conformParams() Params {
	return Params{
		StepWatts:      10,
		InitialBackoff: time.Minute,
		MaxBackoff:     30 * time.Minute,
	}
}

// Conformance runs the shared policy law suite against a factory. Every
// policy set that the zoo matrix certifies must pass it:
//
//  1. determinism — two instances fed the same input script make the same
//     decisions (per-seed reproducibility is what makes the scenario zoo's
//     byte-determinism contract extendable to any policy);
//  2. budget respect — admission never grants a request whose modeled total
//     exceeds the budget;
//  3. monotone back-off — consecutive setbacks return non-decreasing,
//     bounded back-offs, surplus retention stays within [0, extra] with a
//     cap forfeiting everything, and a confirmation resets the ladder;
//  4. snapshot round-trip — Restore(Snapshot()) reproduces subsequent
//     behaviour, the contract warm restarts rely on.
//
// Only Errorf is used to report failures, so callers may pass a recorder.
func Conformance(t TB, f Factory) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		conformDeterminism(t, f, seed)
		conformBudgetRespect(t, f, seed)
	}
	conformMonotoneBackoff(t, f)
	conformSnapshotRoundTrip(t, f)
}

// conformDeterminism replays one pseudo-random script of observations and
// decisions against two fresh instances and demands identical answers.
func conformDeterminism(t TB, f Factory, seed int64) {
	t.Helper()
	a, b := f.New(conformParams()), f.New(conformParams())
	rng := rand.New(rand.NewSource(seed))
	now := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 400; i++ {
		now = now.Add(time.Duration(1+rng.Intn(120)) * time.Second)
		switch rng.Intn(6) {
		case 0:
			w := 150 + 200*rng.Float64()
			a.Predictor.Observe(now, w)
			b.Predictor.Observe(now, w)
		case 1:
			in := PredictInput{Step: 5 * time.Minute, CurrentWatts: 150 + 200*rng.Float64()}
			h := time.Duration(1+rng.Intn(60)) * time.Minute
			if ga, gb := a.Predictor.Baseline(now, h, in), b.Predictor.Baseline(now, h, in); ga != gb {
				t.Errorf("%s: Predictor.Baseline nondeterministic at op %d (seed %d): %v vs %v", f.Name, i, seed, ga, gb)
				return
			}
		case 2:
			in := PredictInput{Step: 5 * time.Minute, CurrentWatts: 150 + 200*rng.Float64()}
			if ga, gb := a.Predictor.At(now, in), b.Predictor.At(now, in); ga != gb {
				t.Errorf("%s: Predictor.At nondeterministic at op %d (seed %d): %v vs %v", f.Name, i, seed, ga, gb)
				return
			}
		case 3:
			in := AdmitInput{
				Now:               now,
				PredictedWatts:    150 + 200*rng.Float64(),
				ActiveDeltaWatts:  40 * rng.Float64(),
				RequestDeltaWatts: 40 * rng.Float64(),
				BudgetWatts:       200 + 200*rng.Float64(),
				RequestCores:      1 + rng.Intn(32),
			}
			if ga, gb := a.Admission.Admit(in), b.Admission.Admit(in); ga != gb {
				t.Errorf("%s: Admission.Admit nondeterministic at op %d (seed %d): %v vs %v", f.Name, i, seed, ga, gb)
				return
			}
		case 4:
			if ga, gb := a.Exploration.Step(now), b.Exploration.Step(now); ga != gb {
				t.Errorf("%s: Exploration.Step nondeterministic at op %d (seed %d): %v vs %v", f.Name, i, seed, ga, gb)
				return
			}
		case 5:
			if rng.Intn(4) == 0 {
				a.Exploration.Confirmed(now)
				b.Exploration.Confirmed(now)
				continue
			}
			cap := rng.Intn(3) == 0
			extra := 30 * rng.Float64()
			ka, wa := a.Exploration.Setback(now, cap, extra)
			kb, wb := b.Exploration.Setback(now, cap, extra)
			if ka != kb || wa != wb {
				t.Errorf("%s: Exploration.Setback nondeterministic at op %d (seed %d): (%v,%v) vs (%v,%v)",
					f.Name, i, seed, ka, wa, kb, wb)
				return
			}
		}
	}
}

// conformBudgetRespect sweeps random admission decisions, including many
// whose modeled total exceeds the budget, and demands that none of the
// latter are granted.
func conformBudgetRespect(t TB, f Factory, seed int64) {
	t.Helper()
	set := f.New(conformParams())
	rng := rand.New(rand.NewSource(seed))
	now := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	granted, over := 0, 0
	for i := 0; i < 1000; i++ {
		now = now.Add(time.Minute)
		in := AdmitInput{
			Now:               now,
			PredictedWatts:    100 + 300*rng.Float64(),
			ActiveDeltaWatts:  60 * rng.Float64(),
			RequestDeltaWatts: 60 * rng.Float64(),
			BudgetWatts:       150 + 300*rng.Float64(),
			RequestCores:      1 + rng.Intn(32),
		}
		if in.Total() > in.BudgetWatts {
			over++
		}
		if set.Admission.Admit(in) {
			granted++
			if in.Total() > in.BudgetWatts {
				t.Errorf("%s: admission %q granted %.1f W against a %.1f W budget (seed %d, op %d)",
					f.Name, set.Admission.Name(), in.Total(), in.BudgetWatts, seed, i)
				return
			}
		}
	}
	if over == 0 || granted == 0 {
		t.Errorf("%s: budget-respect sweep vacuous (over=%d granted=%d); widen the input ranges", f.Name, over, granted)
	}
}

// conformMonotoneBackoff walks one setback ladder and checks the retreat
// contract: positive bump sizes, surplus retention within [0, extra] with a
// cap forfeiting all of it, non-decreasing back-offs bounded by MaxBackoff,
// and a confirmation resetting the ladder to its starting rung.
func conformMonotoneBackoff(t TB, f Factory) {
	t.Helper()
	p := conformParams()
	set := f.New(p)
	now := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	if s := set.Exploration.Step(now); s <= 0 {
		t.Errorf("%s: exploration step %v W is not positive", f.Name, s)
	}
	var first, prev time.Duration
	for i := 0; i < 12; i++ {
		cap := i%3 == 2
		extra := 25.0
		keep, wait := set.Exploration.Setback(now, cap, extra)
		if keep < 0 || keep > extra {
			t.Errorf("%s: setback %d retained %.1f W of a %.1f W surplus", f.Name, i, keep, extra)
		}
		if cap && keep != 0 {
			t.Errorf("%s: setback %d kept %.1f W through a capping event", f.Name, i, keep)
		}
		if wait <= 0 || wait > p.MaxBackoff {
			t.Errorf("%s: setback %d back-off %v outside (0, %v]", f.Name, i, wait, p.MaxBackoff)
		}
		if i == 0 {
			first = wait
		} else if wait < prev {
			t.Errorf("%s: back-off shrank without a confirmation: %v after %v (setback %d)", f.Name, wait, prev, i)
		}
		prev = wait
		now = now.Add(wait)
	}
	set.Exploration.Confirmed(now)
	if _, wait := set.Exploration.Setback(now, false, 25); wait > first {
		t.Errorf("%s: confirmation did not reset the ladder: post-confirm back-off %v > initial %v", f.Name, wait, first)
	}
}

// conformSnapshotRoundTrip checks that Restore(Snapshot()) transplants the
// exploration state: the restored instance retreats exactly like the
// original would have.
func conformSnapshotRoundTrip(t TB, f Factory) {
	t.Helper()
	set := f.New(conformParams())
	now := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		_, wait := set.Exploration.Setback(now, i%2 == 1, 20)
		now = now.Add(wait)
	}
	st := set.Exploration.Snapshot()
	clone := f.New(conformParams())
	clone.Exploration.Restore(st)
	for i := 0; i < 4; i++ {
		cap := i%2 == 0
		ka, wa := set.Exploration.Setback(now, cap, 15)
		kb, wb := clone.Exploration.Setback(now, cap, 15)
		if ka != kb || wa != wb {
			t.Errorf("%s: restored exploration diverges at setback %d: (%v,%v) vs (%v,%v)", f.Name, i, ka, wa, kb, wb)
			return
		}
		sa, sb := set.Exploration.Step(now), clone.Exploration.Step(now)
		if sa != sb {
			t.Errorf("%s: restored exploration step diverges at %d: %v vs %v", f.Name, i, sa, sb)
			return
		}
		now = now.Add(wa)
	}
}
