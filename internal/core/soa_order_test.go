package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"smartoclock/internal/lifetime"
)

// orderHost is a fakeHost whose modeled overclock delta depends only on the
// session's core count, with values whose float sum depends on the order
// they are added in: (0.1+0.2)+0.3 and (0.2+0.3)+0.1 differ in the last bit.
type orderHost struct {
	*fakeHost
}

var orderDeltas = map[int]float64{1: 0.1, 2: 0.2, 3: 0.3}

func (h orderHost) OCDeltaWatts(cores, mhz int, util float64) float64 {
	return orderDeltas[cores]
}

// TestCurrentOCDeltaSumsInSessionOrder pins the admission delta to one
// summation order. Summed in map iteration order, three or more sessions
// in one state can sum to different bits from call to call.
func TestCurrentOCDeltaSumsInSessionOrder(t *testing.T) {
	h := orderHost{newFakeHost("s1")}
	h.setAllUtil(0.5)
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), h.NumCores(), soaStart)
	a := NewSOA(DefaultSOAConfig(), h, budgets, 10000, soaStart)
	for vm, cores := range map[string]int{"a": 1, "b": 2, "c": 3} {
		if d := a.Request(soaStart, ocReq(vm, cores)); !d.Granted {
			t.Fatalf("%s rejected: %+v", vm, d)
		}
	}
	sum := func(coreCounts ...int) float64 {
		total := 0.0
		for _, n := range coreCounts {
			total += orderDeltas[n]
		}
		return total
	}
	// sessBefore order: equal priority, so a, b, c.
	want := sum(1, 2, 3)
	if want == sum(2, 3, 1) {
		t.Fatal("test deltas do not make summation order matter")
	}
	for i := 0; i < 200; i++ {
		if got := a.currentOCDelta(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: currentOCDelta = %v (%#x), want %v (%#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestConsumeOCTimeVisitsSessionsInOrder pins the order in which a tick
// charges sessions: sortedSessions order, low priority first. The wear gate
// is consulted once per core as each session is charged, so its call log
// is the visiting order. In map iteration order, which of two sessions
// exhausting on one tick gets fresh cores would be random.
func TestConsumeOCTimeVisitsSessionsInOrder(t *testing.T) {
	var visited []int
	cfg := DefaultSOAConfig()
	cfg.WearGate = func(c int) bool {
		visited = append(visited, c)
		return true
	}
	h := newFakeHost("s1")
	h.setAllUtil(0.5)
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), h.NumCores(), soaStart)
	a := NewSOA(cfg, h, budgets, 10000, soaStart)
	// Requested out of order; sessBefore puts z (best effort) first, then
	// a and b by name.
	for _, r := range []struct {
		vm   string
		core int
		prio Priority
	}{{"b", 1, PriorityMetric}, {"z", 2, PriorityBestEffort}, {"a", 0, PriorityMetric}} {
		req := ocReq(r.vm, 1)
		req.Priority = r.prio
		req.PreferredCores = []int{r.core}
		if d := a.Request(soaStart, req); !d.Granted {
			t.Fatalf("%s rejected: %+v", r.vm, d)
		}
	}
	want := []int{2, 0, 1}
	a.Tick(soaStart)
	for i := 1; i <= 50; i++ {
		visited = visited[:0]
		a.Tick(soaStart.Add(time.Duration(i) * time.Second))
		if !slices.Equal(visited, want) {
			t.Fatalf("tick %d: sessions charged in core order %v, want %v", i, visited, want)
		}
	}
}

// TestOrderedSessionsFollowStartStopRestore checks that start, Stop and
// Restore keep the ordered slice equal to the session index sorted by
// sessBefore, and that Restore rejects a snapshot naming one VM twice.
func TestOrderedSessionsFollowStartStopRestore(t *testing.T) {
	a, h := newTestSOA(10000)
	h.setAllUtil(0.5)
	check := func(a *SOA, step string) {
		t.Helper()
		got := a.sortedSessions()
		if len(got) != len(a.Sessions()) {
			t.Fatalf("%s: %d ordered sessions, %d indexed", step, len(got), len(a.Sessions()))
		}
		for i, s := range got {
			if a.Sessions()[s.VM] != s {
				t.Fatalf("%s: ordered session %s is not the indexed one", step, s.VM)
			}
			if i > 0 && !sessBefore(got[i-1], s) {
				t.Fatalf("%s: %s before %s breaks sessBefore", step, got[i-1].VM, s.VM)
			}
		}
	}
	prios := []Priority{PriorityMetric, PriorityBestEffort, PriorityScheduled, PriorityMetric, PriorityBestEffort}
	for i, vm := range []string{"d", "b", "e", "a", "c"} {
		req := ocReq(vm, 1)
		req.Priority = prios[i]
		if d := a.Request(soaStart, req); !d.Granted {
			t.Fatalf("%s rejected: %+v", vm, d)
		}
		check(a, "start "+vm)
	}
	for _, vm := range []string{"a", "e", "missing"} {
		a.Stop(soaStart, vm)
		check(a, "stop "+vm)
	}

	st := a.Snapshot()
	b, _ := newTestSOA(10000)
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	check(b, "restore")
	if len(b.sortedSessions()) != 3 {
		t.Fatalf("restored %d sessions, want 3", len(b.sortedSessions()))
	}

	st.Sessions = append(st.Sessions, st.Sessions[0])
	c, _ := newTestSOA(10000)
	if err := c.Restore(st); err == nil {
		t.Fatal("Restore accepted two sessions for one VM")
	}
}
