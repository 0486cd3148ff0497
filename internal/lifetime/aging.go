// Package lifetime models the reliability side of overclocking: component
// aging from gate-oxide wearout and the per-epoch overclocking time budgets
// SmartOClock enforces to stay within server lifetime goals (§II, §III-Q2,
// §IV-B).
//
// The aging model follows the paper's description of the vendor composite
// model: wearout accelerates exponentially with voltage, and accumulates in
// proportion to utilization (the time cores spend at the elevated voltage).
// Vendors assume near-100% utilization at turbo when rating a part, so the
// reference rate is one unit of aging per unit of time at full utilization
// and nominal voltage; cloud under-utilization accrues "lifetime credits"
// that overclocking can spend.
package lifetime

import (
	"math"
	"time"
)

// AgingModel computes relative wearout rates. The zero value is unusable;
// construct with DefaultAgingModel or fill the fields explicitly.
type AgingModel struct {
	// Kappa is the exponential voltage-acceleration coefficient:
	// accel = exp(Kappa · (V/Vref − 1)). The paper reports an exponential
	// relationship between voltage and lifetime (§II).
	Kappa float64
	// UtilFloor is the minimum effective utilization: even an idle core at
	// elevated voltage wears (leakage stress). Keeps the model conservative.
	UtilFloor float64
}

// DefaultAgingModel is calibrated to the paper's anchors (§III-Q2, Fig 7):
//
//   - a conservative fleet at ~50% utilization and turbo ages 2.5 years over
//     a 5-year period (rate = util at nominal voltage);
//   - always overclocking a diurnal workload (mean utilization ≈38%) ages
//     the part more than 10 days over a 5-day window (Fig 7), which pins the
//     acceleration at max overclock voltage (+27.6% over nominal) to ≈5.5×;
//   - an overclock-aware policy spending ~25% overclocked time at the daily
//     peak stays within ~10% of the expected aging envelope;
//   - naive overclocking 50% of the time at high utilization ages a part
//     several years per year of use.
func DefaultAgingModel() AgingModel {
	return AgingModel{Kappa: 6.18, UtilFloor: 0.05}
}

// Accel returns the wearout acceleration factor at the given voltage ratio
// (V/Vref). At or below nominal voltage, where most cores run, it is exactly
// 1, the value exp(Kappa·0) has, without evaluating the exponential
// (undervolting headroom is out of scope); above it the factor grows
// exponentially.
func (m AgingModel) Accel(voltRatio float64) float64 {
	if voltRatio <= 1 {
		return 1
	}
	return math.Exp(m.Kappa * (voltRatio - 1))
}

// Rate returns the instantaneous aging rate in aging-seconds per second for
// a core at utilization util and voltage ratio voltRatio. The vendor
// reference (full utilization, nominal voltage) has rate 1.
func (m AgingModel) Rate(util, voltRatio float64) float64 {
	return m.RateAt(util, m.Accel(voltRatio))
}

// RateAt is Rate under an acceleration factor the caller already holds
// from Accel: util clamped into [UtilFloor, 1], times accel.
func (m AgingModel) RateAt(util, accel float64) float64 {
	if util < m.UtilFloor {
		util = m.UtilFloor
	}
	if util > 1 {
		util = 1
	}
	return util * accel
}

// OnlineWearGate upgrades lifetime management from the conservative offline
// time-budget model to a per-part online calculation driven by wear-out
// counters (§VI "Hardware support for overclocking"): overclocking is
// allowed while the component's measured aging stays inside its expected
// envelope plus a configurable margin.
//
// The gate is advisory — SmartOClock consults it in addition to (or instead
// of) epoch time budgets when the platform exposes wear counters.
type OnlineWearGate struct {
	// Margin is the tolerated aging overshoot as a fraction of the
	// expected envelope (0.05 = may age 5% ahead of schedule).
	Margin float64
	// MinObservation avoids gating on noise before enough operation has
	// been observed.
	MinObservation time.Duration
}

// Allow reports whether a component that aged aged over elapsed wall-clock
// time may be overclocked now. Its expected envelope is elapsed: the vendor
// expectation that a part ages one unit per unit time.
func (g OnlineWearGate) Allow(aged, elapsed time.Duration) bool {
	if elapsed < g.MinObservation {
		return true // not enough signal; the offline budget still applies
	}
	limit := time.Duration(float64(elapsed) * (1 + g.Margin))
	return aged <= limit
}
