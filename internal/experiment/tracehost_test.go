package experiment

import (
	"math"
	"math/rand"
	"testing"

	"smartoclock/internal/machine"
	"smartoclock/internal/trace"
)

// refTraceHostPower is traceHost.Power as it was before the overclock term
// was cached: every call walks every core.
func refTraceHostPower(h *traceHost) float64 {
	ceil := h.hw.CapCeiling(h.capLevel)
	base := h.basePower
	if ceil < h.hw.TurboMHz {
		base *= float64(ceil) / float64(h.hw.TurboMHz)
	}
	uf := h.util
	if uf < 0.3 {
		uf = 0.3 // static overclock cost never vanishes
	}
	oc := 0.0
	for _, f := range h.desired {
		if f > h.hw.TurboMHz {
			eff := f
			if eff > ceil {
				eff = ceil
			}
			oc += h.ocCoreCost * h.ocFraction(eff) * uf
		}
	}
	return base + oc
}

// TestTraceHostPowerCacheMatchesReference drives seeded random sequences of
// frequency writes (same-value ones too), cap levels above, at and below
// turbo (clamped ones too) and tick updates (utilization below the 0.3
// floor too), and checks after every operation that the cached Power has
// the bits of the uncached reference.
func TestTraceHostPowerCacheMatchesReference(t *testing.T) {
	hw := machine.DefaultConfig()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newTraceHost(&trace.ServerTrace{Spec: trace.ServerSpec{Name: "s", HW: hw}})
		h.setTick(300, 0.5)
		for op := 0; op < 2000; op++ {
			var what string
			switch k := rng.Intn(10); {
			case k < 5:
				c := rng.Intn(hw.Cores)
				mhz := hw.MinMHz - 200 + rng.Intn(hw.MaxOCMHz-hw.MinMHz+400)
				if rng.Intn(3) == 0 {
					mhz = h.DesiredFreq(c) // same-value write
				}
				h.SetDesiredFreq(c, mhz)
				what = "SetDesiredFreq"
			case k < 7:
				h.ForceCap(rng.Intn(h.MaxCapLevel()+5) - 2)
				what = "ForceCap"
			default:
				util := h.util
				if rng.Intn(3) != 0 {
					util = rng.Float64()
				}
				h.setTick(200+200*rng.Float64(), util)
				what = "setTick"
			}
			want := refTraceHostPower(h)
			if got := h.Power(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d op %d (%s): Power = %v, reference %v", seed, op, what, got, want)
			}
		}
	}
}
