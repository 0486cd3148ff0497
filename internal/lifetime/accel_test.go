package lifetime

import (
	"math"
	"testing"
)

// refAccel is Accel before its nominal-voltage fast path: the exponential
// evaluated at every voltage ratio.
func refAccel(m AgingModel, voltRatio float64) float64 {
	return math.Exp(m.Kappa * (math.Max(voltRatio, 1) - 1))
}

// TestExpOfSignedZeroIsOne proves the bits the fast path relies on rather
// than assuming them: at nominal voltage the exponent is Kappa·0, which is
// +0 or (for a negative Kappa) -0, and exp returns exactly 1.0 for both.
func TestExpOfSignedZeroIsOne(t *testing.T) {
	one := math.Float64bits(1)
	for _, kappa := range []float64{DefaultAgingModel().Kappa, 0, -2} {
		x := kappa * (1.0 - 1)
		if got := math.Float64bits(math.Exp(x)); got != one {
			t.Fatalf("exp(%v·0 = %v) bits %#x, want %#x", kappa, x, got, one)
		}
	}
	if got := math.Float64bits(math.Exp(math.Copysign(0, -1))); got != one {
		t.Fatalf("exp(-0) bits %#x, want %#x", got, one)
	}
}

// TestAccelAndRateMatchExponential compares Accel and Rate bit for bit with
// exp(Kappa·(max(vr, 1) − 1)) at and below nominal voltage and just above
// it, for utilizations below the floor, inside [UtilFloor, 1] and above 1,
// and Rate with RateAt under the same factor. machine's
// TestStepTableMatchesFormulas checks every DVFS step of its step table.
func TestAccelAndRateMatchExponential(t *testing.T) {
	ratios := []float64{1, math.Nextafter(1, 0), 0.9, 0, -1, math.Copysign(0, -1), 1 + 1e-12, math.Nextafter(1, 2), 1.1, ocVoltRatio}
	utils := []float64{math.Copysign(0, -1), 0, -1, 0.01, 0.05, 0.3, 0.5, 1, 1.5, 7}
	models := []AgingModel{DefaultAgingModel(), {Kappa: 0, UtilFloor: 0.2}, {Kappa: -2, UtilFloor: 0}}
	for _, m := range models {
		for _, vr := range ratios {
			want := refAccel(m, vr)
			if got := m.Accel(vr); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: Accel(%v) = %v, want %v", m, vr, got, want)
			}
			for _, u := range utils {
				eff := u
				if eff < m.UtilFloor {
					eff = m.UtilFloor
				}
				if eff > 1 {
					eff = 1
				}
				if got, want := m.Rate(u, vr), eff*want; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v: Rate(%v, %v) = %v, want %v", m, u, vr, got, want)
				}
				if got, want := m.RateAt(u, want), eff*want; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v: RateAt(%v, %v) = %v, want %v", m, u, want, got, want)
				}
			}
		}
	}
}
