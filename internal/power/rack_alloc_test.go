package power

import (
	"testing"
	"time"
)

// TestTickUncappedAllocs guards the rack manager's common tick: an
// uncapped rack below its restore fraction has nothing to relax, so a
// tick must not allocate (it used to copy and sort the server list).
func TestTickUncappedAllocs(t *testing.T) {
	r := NewRack(DefaultRackConfig("r", 10000),
		newFake("a", 1000, 0), newFake("b", 1000, 1), newFake("c", 1000, 2))
	now := tick0
	tick := func() {
		now = now.Add(time.Second)
		r.Tick(now)
	}
	tick()
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("Tick allocates %.1f objects per call, want 0", allocs)
	}
	if r.IsCapped() || r.CapEvents() != 0 || r.Warnings() != 0 {
		t.Fatalf("rack at 30%% of its limit capped or warned: capped=%v caps=%d warnings=%d",
			r.IsCapped(), r.CapEvents(), r.Warnings())
	}
}
