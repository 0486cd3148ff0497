// Power oversubscription: admission control against predicted rack peaks.
//
// SmartOClock spends rack headroom on overclocking; the sibling policy
// family from the same Azure lineage (Kumbhare et al., "Prediction-Based
// Power Oversubscription in Cloud Platforms") spends it the opposite way —
// admit more servers than the provisioned power supports, trusting a
// high-quantile prediction of the rack peak, and back the bet with
// severity-classed capping when reality exceeds the prediction. The
// Admission controller below is that front half: a deployment lands on a
// rack only while the predicted rack peak stays inside the oversubscription
// budget. The back half is CapSeverity in the rack manager.
package power

import (
	"fmt"
	"time"

	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

// OversubConfig parameterizes predicted-peak admission.
type OversubConfig struct {
	// Ratio scales the provisioned rack limit into the admission budget:
	// predicted peaks may add up to Ratio × LimitWatts. Ratios above 1
	// deliberately oversubscribe — capping absorbs the days prediction
	// gets wrong.
	Ratio float64
	// Quantile of the candidate's day-template slots used as its predicted
	// peak (the policy default is 0.98).
	Quantile float64
	// MaxTemplateAge bounds how stale a candidate's fitted template may be
	// before admission distrusts it and falls back to the nameplate.
	MaxTemplateAge time.Duration
	// AdmitAllUnsafe bypasses the budget check and grants everything. It
	// exists for the invariant negative tests (the over-admitting canary)
	// and must never ship in a real policy.
	AdmitAllUnsafe bool
}

// Validate reports whether the configuration is consistent.
func (c OversubConfig) Validate() error {
	switch {
	case c.Ratio <= 0:
		return fmt.Errorf("power: oversubscription Ratio = %v, must be positive", c.Ratio)
	case c.Quantile <= 0 || c.Quantile > 1:
		return fmt.Errorf("power: oversubscription Quantile = %v out of (0,1]", c.Quantile)
	case c.MaxTemplateAge <= 0:
		return fmt.Errorf("power: oversubscription MaxTemplateAge = %v, must be positive", c.MaxTemplateAge)
	}
	return nil
}

// Candidate is one deployment asking to be placed on the rack.
type Candidate struct {
	// Name identifies the deployment in decisions and audit trails.
	Name string
	// NameplateWatts is the worst-case draw (all cores busy at turbo); it
	// is both the conservative fallback peak and a cap on what any fitted
	// template may claim.
	NameplateWatts float64
	// Template is the deployment's fitted power day-template; nil means no
	// history is available and admission must assume the nameplate.
	Template *timeseries.WeekTemplate
	// FittedAt is when Template was fitted; older than MaxTemplateAge is
	// treated the same as absent.
	FittedAt time.Time
	// Severity is the capping class the deployment will carry if admitted.
	Severity Severity
}

// AdmitDecision records one admission decision with the numbers it compared.
type AdmitDecision struct {
	Granted bool
	// PeakWatts is the candidate's predicted peak as admission scored it.
	PeakWatts float64
	// RackPeakWatts is the predicted rack peak before this candidate.
	RackPeakWatts float64
	// BudgetWatts is Ratio × LimitWatts.
	BudgetWatts float64
	// Conservative is true when the nameplate fallback was used because the
	// template was absent, stale or unusable.
	Conservative bool
	// Reason explains a rejection or a fallback; empty on a clean grant.
	Reason string
}

// Admission is a rack's oversubscription admission controller. It is not
// safe for concurrent use; the simulation drives it from one goroutine.
type Admission struct {
	cfg   OversubConfig
	limit float64
	peak  float64 // predicted rack peak: reservations + admitted peaks
}

// NewAdmission creates an admission controller for a rack with the given
// provisioned limit. It returns an error on invalid configuration.
func NewAdmission(cfg OversubConfig, limitWatts float64) (*Admission, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if limitWatts <= 0 {
		return nil, fmt.Errorf("power: admission limit %v W, must be positive", limitWatts)
	}
	return &Admission{cfg: cfg, limit: limitWatts}, nil
}

// Reserve pre-charges the predicted rack peak with load that is already on
// the rack (e.g. the production servers an overclocking deployment shares
// the rack with). Reserved watts are not counted as admissions.
func (a *Admission) Reserve(watts float64) {
	if watts > 0 {
		a.peak += watts
	}
}

// BudgetWatts returns the admission budget, Ratio × limit.
func (a *Admission) BudgetWatts() float64 { return a.cfg.Ratio * a.limit }

// candidatePeak scores one candidate: the quantile of its fitted template
// when fresh and usable, the nameplate otherwise.
func (a *Admission) candidatePeak(now time.Time, c Candidate) (peak float64, conservative bool, why string) {
	switch {
	case c.Template == nil:
		return c.NameplateWatts, true, "no day template"
	case now.Sub(c.FittedAt) > a.cfg.MaxTemplateAge:
		return c.NameplateWatts, true, fmt.Sprintf("day template stale (%v old)", now.Sub(c.FittedAt))
	}
	q, ok := predict.PeakQuantile(c.Template, a.cfg.Quantile)
	if !ok || q <= 0 {
		return c.NameplateWatts, true, "day template carries no signal"
	}
	if q > c.NameplateWatts {
		// A noisy template must not claim more than physics allows.
		q = c.NameplateWatts
	}
	return q, false, ""
}

// Admit decides whether the candidate fits: the predicted rack peak plus
// the candidate's predicted peak must stay within the oversubscription
// budget. The comparison is exact (<=) so a candidate landing precisely on
// the boundary is admitted. On a grant the candidate's peak is charged
// against the rack.
func (a *Admission) Admit(now time.Time, c Candidate) AdmitDecision {
	d := AdmitDecision{RackPeakWatts: a.peak, BudgetWatts: a.BudgetWatts()}
	if c.NameplateWatts <= 0 {
		d.Reason = fmt.Sprintf("candidate %s nameplate %v W, must be positive", c.Name, c.NameplateWatts)
		return d
	}
	peak, conservative, why := a.candidatePeak(now, c)
	d.PeakWatts, d.Conservative, d.Reason = peak, conservative, why
	switch {
	case a.cfg.AdmitAllUnsafe:
		d.Granted = true
		d.Reason = "UNSAFE admit-all canary"
	case a.peak+peak <= d.BudgetWatts:
		d.Granted = true
	default:
		d.Granted = false
		d.Reason = fmt.Sprintf("predicted rack peak %.1f + %.1f W exceeds budget %.1f W",
			a.peak, peak, d.BudgetWatts)
		return d
	}
	a.peak += peak
	return d
}
