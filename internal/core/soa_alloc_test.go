package core

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"smartoclock/internal/lifetime"
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
// inside one profile slot.
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

// TestProfileReportAllocs holds a profile report to zero allocations, with
// the window empty, partly filled and full: the median sorts a fixed scratch
// array, not a copy of the recorded series.
func TestProfileReportAllocs(t *testing.T) {
	a, h := newTestSOA(10000)
	a.cfg.ProfileStep = time.Minute
	a.nextSlotAt = soaStart.Add(time.Minute)
	if d := a.Request(soaStart, ocReq("vm1", 2)); !d.Granted {
		t.Fatalf("setup: rejected: %+v", d)
	}
	for slot := 0; slot <= 2*profileWindow; slot++ {
		if slot > 0 {
			h.setAllUtil(float64(slot%7) / 7)
			a.Tick(soaStart.Add(time.Duration(slot) * time.Minute))
		}
		if allocs := testing.AllocsPerRun(100, func() { a.RecentProfile() }); allocs != 0 {
			t.Fatalf("profile report after %d slots allocates %.1f objects, want 0", slot, allocs)
		}
	}
}

// TestSOASnapshotSizeFlat holds an sOA's checkpoint to a fixed size however
// long it runs: with the same sessions, the snapshot after 5,000 profile
// slots is as long as after 20.
func TestSOASnapshotSizeFlat(t *testing.T) {
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	cfg.ProfileStep = time.Minute
	// An allowance no run here can spend, so both sessions stay granted.
	bcfg := lifetime.BudgetConfig{Epoch: 1000 * time.Hour, Fraction: 1}
	a := NewSOA(cfg, h, lifetime.NewCoreBudgets(bcfg, h.NumCores(), soaStart), 10000, soaStart)
	h.setAllUtil(0.5)
	for _, vm := range []string{"vm1", "vm2"} {
		if d := a.Request(soaStart, ocReq(vm, 2)); !d.Granted {
			t.Fatalf("setup: %s rejected: %+v", vm, d)
		}
	}
	size := func() int {
		data, err := json.Marshal(a.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	var at20 int
	for slot := 1; slot <= 5000; slot++ {
		a.Tick(soaStart.Add(time.Duration(slot) * time.Minute))
		if slot == 20 {
			at20 = size()
		}
	}
	if len(a.Sessions()) != 2 {
		t.Fatalf("sessions = %d after the run, want the same 2", len(a.Sessions()))
	}
	if at5000 := size(); at5000 != at20 {
		t.Fatalf("snapshot is %d B after 5,000 slots, %d B after 20; want equal", at5000, at20)
	}
}
