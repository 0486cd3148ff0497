package policy

import (
	"sort"
	"time"
)

// This file holds the adaptive alternatives to the paper heuristics: a
// quantile-tracking predictor that widens the baseline when recent draw runs
// hotter than the template, and a bandit-style AIMD exploration that sizes
// its bumps from the observed success/setback history. Both are fully
// deterministic — their state is a pure function of the observation and
// setback sequence — which the conformance suite verifies.

// QuantileTracker predicts the baseline as the maximum of the template
// forecast and a high quantile of recently observed draw. The template alone
// is blind to regime shifts inside the current week (outlier-day storms,
// flash crowds); the rolling quantile pulls the forecast up within a few
// slots of the shift, trading admission headroom for safety.
type QuantileTracker struct {
	q      float64
	window int
	obs    []float64 // ring buffer, insertion order
	next   int
}

// NewQuantileTracker returns a tracker of the q-quantile (0 < q ≤ 1) over
// the last window observations.
func NewQuantileTracker(q float64, window int) *QuantileTracker {
	if q <= 0 || q > 1 {
		q = 0.98
	}
	if window <= 0 {
		window = 64
	}
	return &QuantileTracker{q: q, window: window, obs: make([]float64, 0, window)}
}

// Name implements Predictor.
func (t *QuantileTracker) Name() string { return "quantile" }

// Observe implements Predictor: push one sample into the ring.
func (t *QuantileTracker) Observe(_ time.Time, watts float64) {
	if len(t.obs) < t.window {
		t.obs = append(t.obs, watts)
		return
	}
	t.obs[t.next] = watts
	t.next = (t.next + 1) % t.window
}

// quantile returns the tracked quantile of the ring, or 0 when empty.
func (t *QuantileTracker) quantile() float64 {
	if len(t.obs) == 0 {
		return 0
	}
	sorted := make([]float64, len(t.obs))
	copy(sorted, t.obs)
	sort.Float64s(sorted)
	idx := int(t.q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Baseline implements Predictor: max(template forecast, observed quantile).
func (t *QuantileTracker) Baseline(now time.Time, horizon time.Duration, in PredictInput) float64 {
	base := (&TemplateMax{}).Baseline(now, horizon, in)
	if q := t.quantile(); q > base {
		return q
	}
	return base
}

// At implements Predictor: max(template instant, observed quantile).
func (t *QuantileTracker) At(ts time.Time, in PredictInput) float64 {
	base := (&TemplateMax{}).At(ts, in)
	if q := t.quantile(); q > base {
		return q
	}
	return base
}

// AIMD is a bandit-style exploration policy: additive-increase on confirmed
// successes, multiplicative-decrease on setbacks. Unlike the paper's fixed
// step it grows its bump size while the rack keeps saying yes (up to 2× the
// configured step) and halves both the bump and the retained surplus when
// the rack pushes back, converging on the largest sustainable overshoot.
// The back-off doubles across consecutive setbacks exactly like the default
// policy, so the conformance monotonicity contract holds.
type AIMD struct {
	base    float64 // configured step, the additive-increase unit
	step    float64 // current bump size
	initial time.Duration
	max     time.Duration
	cur     time.Duration
	succ    int
	setb    int
}

// NewAIMD builds the adaptive exploration policy from the sOA knobs.
func NewAIMD(p Params) *AIMD {
	return &AIMD{
		base:    p.StepWatts,
		step:    p.StepWatts,
		initial: p.InitialBackoff,
		max:     p.MaxBackoff,
		cur:     p.InitialBackoff,
	}
}

// Name implements Exploration.
func (*AIMD) Name() string { return "aimd" }

// Step implements Exploration: the current adaptive bump size.
func (a *AIMD) Step(time.Time) float64 { return a.step }

// Setback implements Exploration: halve the bump size (floored at half the
// configured step), keep half the surplus on a warning and none on a cap,
// and double the back-off like the default policy.
func (a *AIMD) Setback(_ time.Time, cap bool, extraWatts float64) (float64, time.Duration) {
	a.setb++
	a.succ = 0
	a.step /= 2
	if a.step < a.base/2 {
		a.step = a.base / 2
	}
	keep := 0.0
	if !cap {
		keep = extraWatts / 2
		if keep < 0 {
			keep = 0
		}
	}
	wait := a.cur
	a.cur *= 2
	if a.cur > a.max {
		a.cur = a.max
	}
	return keep, wait
}

// Confirmed implements Exploration: additive increase of the bump size
// (capped at 2× the configured step) and reset of the back-off.
func (a *AIMD) Confirmed(time.Time) {
	a.succ++
	a.setb = 0
	a.step += a.base / 4
	if a.step > 2*a.base {
		a.step = 2 * a.base
	}
	a.cur = a.initial
}

// Snapshot implements Exploration.
func (a *AIMD) Snapshot() ExplorationState {
	return ExplorationState{
		Backoff:   a.cur,
		StepWatts: a.step,
		Successes: a.succ,
		Setbacks:  a.setb,
	}
}

// Restore implements Exploration.
func (a *AIMD) Restore(st ExplorationState) {
	if st.Backoff > 0 {
		a.cur = st.Backoff
	}
	if st.StepWatts > 0 {
		a.step = st.StepWatts
	}
	a.succ = st.Successes
	a.setb = st.Setbacks
}
