// Package policy is the pluggable decision layer of the Server Overclocking
// Agent. SmartOClock's sOA makes three kinds of risk decisions — predicting
// its own baseline power, admitting overclock requests against the budget,
// and exploring beyond a stale assignment — and the paper evaluates one
// fixed heuristic for each (§IV-B, §IV-D). Risk-aware admission work (e.g.
// learned vCPU-oversubscription policies) shows these choices should be
// swappable and adaptive, so this package carves each decision point behind
// a small interface:
//
//   - Predictor forecasts the server's non-overclocked baseline draw;
//   - Admission decides whether a modeled request fits the budget;
//   - Exploration sizes conditional budget bumps and the retreat after
//     rack warnings and capping events.
//
// The paper's heuristics are the "default" Set (byte-identical to the
// pre-refactor behaviour); the "aimd" Set is an adaptive alternative
// (quantile-tracking predictor, bandit-style exploration). Every
// implementation must be deterministic — two instances fed the same inputs
// must make the same decisions — and must pass the shared conformance suite
// in conformance_test.go; the scenario zoo then stress-certifies each Set
// against adversarial workload regimes with the invariant checker watching.
//
// Implementations hold per-agent state (quantile windows, back-off
// position), so agents must never share instances: configuration carries a
// Factory, and each agent builds its own Set.
package policy

import (
	"fmt"
	"time"

	"smartoclock/internal/timeseries"
)

// PredictInput is the evidence a Predictor may consult when forecasting.
// The template and step come from the sOA's own profile recording; the
// current draw is the live (sensor) reading.
type PredictInput struct {
	// Template is the server's fitted power week-template; nil before the
	// first fit.
	Template *timeseries.WeekTemplate
	// Step is the template slot width (the sOA's profile recording step).
	Step time.Duration
	// CurrentWatts is the instantaneous measured draw.
	CurrentWatts float64
}

// Predictor forecasts the server's non-overclocked baseline power for
// admission and exhaustion checks.
type Predictor interface {
	// Name identifies the strategy in reports and audits.
	Name() string
	// Observe feeds one measured power sample (the sOA calls it once per
	// closed profile slot). Strategies that predict purely from the
	// template may ignore it.
	Observe(now time.Time, watts float64)
	// Baseline predicts the peak baseline draw over [now, now+horizon] —
	// the admission-side forecast.
	Baseline(now time.Time, horizon time.Duration, in PredictInput) float64
	// At predicts the baseline draw at the single instant ts — the
	// exhaustion-side forecast.
	At(ts time.Time, in PredictInput) float64
}

// AdmitInput is one power-side admission decision, fully modeled: the
// predicted baseline over the request horizon, the worst-case watts of the
// sessions already running, the watts the new request would add, and the
// budget it all has to fit.
type AdmitInput struct {
	Now               time.Time
	PredictedWatts    float64
	ActiveDeltaWatts  float64
	RequestDeltaWatts float64
	BudgetWatts       float64
	// RequestCores is the request size, for policies that scale risk
	// appetite with blast radius.
	RequestCores int
}

// Total returns the modeled worst-case draw if the request were granted.
func (in AdmitInput) Total() float64 {
	return in.PredictedWatts + in.ActiveDeltaWatts + in.RequestDeltaWatts
}

// Admission decides whether a modeled overclock request is granted.
// Safe policies must never admit a request whose Total exceeds the budget
// (the conformance suite enforces this); the canary policy in canary.go
// deliberately violates it to prove the invariant checker is awake.
type Admission interface {
	Name() string
	Admit(in AdmitInput) bool
}

// ExplorationState is the serializable state of an Exploration policy, for
// durable checkpoints. Policies use the subset of fields they need.
type ExplorationState struct {
	// Backoff is the wait the next setback would impose.
	Backoff time.Duration `json:"backoff"`
	// StepWatts is the current bump size (adaptive policies scale it).
	StepWatts float64 `json:"step_watts,omitempty"`
	// Successes and Setbacks are streak counters for adaptive policies.
	Successes int `json:"successes,omitempty"`
	Setbacks  int `json:"setbacks,omitempty"`
}

// Exploration governs how far beyond the assigned budget the sOA pushes and
// how it retreats when the rack pushes back (§IV-D). The sOA owns the
// explore/exploit mode machine and its timers; the policy owns the numbers:
// bump size, surplus retained after a setback, and the back-off before the
// next attempt.
type Exploration interface {
	Name() string
	// Step returns the watts to add for the next exploration bump.
	Step(now time.Time) float64
	// Setback is invoked on a rack warning (cap=false) or a capping event
	// (cap=true) with the current exploration surplus. It returns the
	// surplus to retain (0 ≤ keep ≤ extraWatts; a cap must return 0) and
	// how long to hold off before re-exploring. Consecutive setbacks must
	// return non-decreasing back-offs (monotone back-off on rejection).
	Setback(now time.Time, cap bool, extraWatts float64) (keepWatts float64, backoff time.Duration)
	// Confirmed is invoked when an explored budget proves safe: every
	// session reached target without a warning.
	Confirmed(now time.Time)
	// Snapshot and Restore serialize the policy's adaptive state for
	// durable checkpoints; Restore with a zero state is a no-op.
	Snapshot() ExplorationState
	Restore(st ExplorationState)
}

// Set bundles one instance of each policy for a single agent. Instances are
// stateful and must not be shared across agents.
type Set struct {
	Predictor   Predictor
	Admission   Admission
	Exploration Exploration
}

// Params are the sOA-side knobs a Factory inherits when building a Set:
// the paper's exploration constants, which default and adaptive policies
// interpret in their own ways.
type Params struct {
	// StepWatts is the configured conditional budget increment.
	StepWatts float64
	// InitialBackoff and MaxBackoff bound the post-setback hold-off.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
}

// Factory builds fresh, unshared policy instances for one agent. The zero
// Factory (New == nil) means "use the paper defaults".
type Factory struct {
	// Name identifies the set in CLIs, reports and the zoo matrix.
	Name string
	// Desc is a one-line description for catalogs.
	Desc string
	// New returns a freshly constructed Set.
	New func(p Params) Set
}

// Default returns the paper-heuristic factory: template-max prediction,
// headroom admission, fixed-step exponential-back-off exploration. It is
// byte-identical to the hard-coded pre-policy behaviour.
func Default() Factory {
	return Factory{
		Name: "default",
		Desc: "paper heuristics: template-max predictor, headroom admission, exponential back-off",
		New: func(p Params) Set {
			return Set{
				Predictor:   &TemplateMax{},
				Admission:   Headroom{},
				Exploration: NewExponential(p),
			}
		},
	}
}

// Adaptive returns the adaptive factory: a quantile-tracking predictor that
// widens the baseline when recent draw runs hot, and a bandit-style AIMD
// exploration whose step size and back-off adapt to the observed
// success/setback history.
func Adaptive() Factory {
	return Factory{
		Name: "aimd",
		Desc: "adaptive: quantile-tracking predictor, headroom admission, bandit-style AIMD exploration",
		New: func(p Params) Set {
			return Set{
				Predictor:   NewQuantileTracker(0.98, 64),
				Admission:   Headroom{},
				Exploration: NewAIMD(p),
			}
		},
	}
}

// Factories lists the safe, certified policy sets in catalog order — the
// sets the zoo matrix runs by default. The canary set is deliberately
// excluded: it exists to prove the invariant checker detects an unsafe
// policy, not to be run as one.
func Factories() []Factory {
	return []Factory{Default(), Adaptive()}
}

// Lookup resolves a factory by name. The canary set is addressable by name
// so negative tests and the CLI can request it explicitly.
func Lookup(name string) (Factory, error) {
	for _, f := range Factories() {
		if f.Name == name {
			return f, nil
		}
	}
	if f := Canary(); f.Name == name {
		return f, nil
	}
	names := make([]string, 0, len(Factories())+1)
	for _, f := range Factories() {
		names = append(names, f.Name)
	}
	names = append(names, Canary().Name)
	return Factory{}, fmt.Errorf("policy: unknown set %q (valid: %v)", name, names)
}
