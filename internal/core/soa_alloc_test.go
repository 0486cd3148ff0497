package core

import (
	"fmt"
	"testing"
	"time"
)

// TestSortedSessionsSteadyStateAllocs guards the per-tick hot path: the
// feedback loop calls sortedSessions on every tick of every server, and it
// must hand back the kept-in-order slice without building one. A
// regression here multiplies across servers x ticks x racks in the fleet
// simulation.
func TestSortedSessionsSteadyStateAllocs(t *testing.T) {
	a, h := newTestSOA(10000)
	h.setAllUtil(0.5)
	for i := 0; i < 4; i++ {
		d := a.Request(soaStart, ocReq(fmt.Sprintf("vm%d", i), 1))
		if !d.Granted {
			t.Fatalf("session %d rejected: %+v", i, d)
		}
	}
	a.sortedSessions() // first call grows the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		a.sortedSessions()
	})
	if allocs != 0 {
		t.Fatalf("sortedSessions allocates %.1f objects per call, want 0", allocs)
	}
}

func TestSortedSessionsOrdering(t *testing.T) {
	a, h := newTestSOA(10000)
	h.setAllUtil(0.5)
	for i, p := range []Priority{PriorityMetric, PriorityScheduled, PriorityMetric} {
		req := ocReq(fmt.Sprintf("vm%d", 2-i), 1)
		req.Priority = p
		if d := a.Request(soaStart, req); !d.Granted {
			t.Fatalf("session %d rejected: %+v", i, d)
		}
	}
	got := a.sortedSessions()
	if len(got) != 3 {
		t.Fatalf("sessions = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if sessBefore(got[i], got[i-1]) {
			t.Fatalf("order violated at %d: %v/%s before %v/%s",
				i, got[i-1].Priority, got[i-1].VM, got[i].Priority, got[i].VM)
		}
	}
}

// TestTickSteadyStateAllocs guards the whole sOA tick with one and with
// three sessions running at target: walking the ordered sessions, and the
// copy consumeOCTime walks, must not allocate once warm. The ticks stay
// inside one profile slot, since closing a slot appends to the recorded
// series.
func TestTickSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("sessions=%d", n), func(t *testing.T) {
			a, h := newTestSOA(10000)
			h.setAllUtil(0.5)
			for i := 0; i < n; i++ {
				if d := a.Request(soaStart, ocReq(fmt.Sprintf("vm%d", i), 2)); !d.Granted {
					t.Fatalf("session %d rejected: %+v", i, d)
				}
			}
			now := soaStart
			tick := func() {
				now = now.Add(time.Second)
				a.Tick(now)
			}
			tick()
			tick()
			allocs := testing.AllocsPerRun(100, tick)
			if allocs != 0 {
				t.Fatalf("Tick allocates %.1f objects per call, want 0", allocs)
			}
			if got := a.ActiveOCCores(); got != 2*n {
				t.Fatalf("ActiveOCCores = %d after the ticks, want %d", got, 2*n)
			}
		})
	}
}
