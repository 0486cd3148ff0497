package cluster

import (
	"testing"
	"time"

	"smartoclock/internal/machine"
	"smartoclock/internal/metrics"
)

// TestServerTickAllocs guards the steady server tick every cluster driver
// runs: utilization and frequency writes, power reads and Advance (energy,
// time-in-state and per-core wear in one pass) must not allocate, observed
// or not.
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

// TestNewServerAllocs pins what building a server allocates: the Server and
// its desired-frequency slice, the Machine, its core records and its step
// table. Wear lives in the core records, so a 64-core server allocates no
// more than a 4-core one.
func TestNewServerAllocs(t *testing.T) {
	small := machine.DefaultConfig()
	small.Cores = 4
	for _, hw := range []machine.Config{machine.DefaultConfig(), small} {
		if allocs := testing.AllocsPerRun(20, func() { NewServer("s1", hw, 0) }); allocs != 5 {
			t.Fatalf("%d cores: NewServer allocates %.1f objects, want 5", hw.Cores, allocs)
		}
	}
}
