package cluster

import (
	"testing"
	"time"

	"smartoclock/internal/machine"
	"smartoclock/internal/metrics"
)

// TestServerTickAllocs guards the steady server tick every cluster driver
// runs: utilization and frequency writes, power reads and Advance (energy,
// time-in-state and per-core wear) must not allocate, observed or not.
func TestServerTickAllocs(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		s := NewServer("s1", machine.DefaultConfig(), 0)
		if instrumented {
			s.Instrument(metrics.NewRegistry())
		}
		n := 0
		tick := func() {
			n++
			for c := 0; c < s.NumCores(); c++ {
				s.SetCoreUtil(c, float64((n+c)%10)/10)
				if c < 8 {
					s.SetDesiredFreq(c, s.TurboMHz()+(n%3)*s.StepMHz()) // some cores overclocked
				}
			}
			_ = s.Power()
			_ = s.Power()
			s.Advance(time.Second)
		}
		tick()
		if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
			t.Fatalf("instrumented=%v: server tick allocates %.1f objects, want 0", instrumented, allocs)
		}
		if s.Machine().TotalOCCoreSeconds() == 0 || s.Energy() == 0 {
			t.Fatalf("instrumented=%v: tick neither overclocked nor drew power", instrumented)
		}
	}
}
