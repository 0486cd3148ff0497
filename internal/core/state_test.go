package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"smartoclock/internal/lifetime"
	"smartoclock/internal/timeseries"
)

// exerciseSOA drives an sOA through representative activity: grants, a
// rejection, ticks across profile slots, and exploration pressure.
func exerciseSOA(a *SOA, h *fakeHost) {
	h.setAllUtil(0.6)
	a.Request(soaStart, ocReq("vm1", 2))
	a.Request(soaStart.Add(time.Minute), ocReq("vm2", 2))
	req := ocReq("vm3", 2)
	req.Priority = PriorityScheduled
	req.Duration = 30 * time.Minute
	a.Request(soaStart.Add(2*time.Minute), req)
	for i := 0; i < 30; i++ {
		a.Tick(soaStart.Add(time.Duration(i) * time.Minute))
	}
}

func TestSOASnapshotRoundtripBytes(t *testing.T) {
	a, h := newTestSOA(400)
	a.SetAssignedBudget(timeseries.FlatWeek(420, 5*time.Minute))
	a.SetPowerTemplate(timeseries.FlatWeek(300, 5*time.Minute))
	exerciseSOA(a, h)

	snap := a.Snapshot()
	b1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh agent built from the same configuration, restored, must
	// produce a byte-identical snapshot.
	b, h2 := newTestSOA(400)
	h2.setAllUtil(0.6)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshot not lossless:\n%s\nvs\n%s", b1, b2)
	}

	// Restored sessions drive the host: frequencies re-applied.
	for vm, s := range a.Sessions() {
		rs, ok := b.Sessions()[vm]
		if !ok {
			t.Fatalf("session %s lost in restore", vm)
		}
		if rs.CurrentMHz() != s.CurrentMHz() {
			t.Fatalf("session %s currentMHz = %d, want %d", vm, rs.CurrentMHz(), s.CurrentMHz())
		}
		for _, c := range rs.Cores {
			if h2.DesiredFreq(c) != h.DesiredFreq(c) {
				t.Fatalf("core %d freq = %d, want %d", c, h2.DesiredFreq(c), h.DesiredFreq(c))
			}
		}
	}
	if b.Granted() != a.Granted() || b.Rejected() != a.Rejected() {
		t.Fatalf("counters %d/%d, want %d/%d", b.Granted(), b.Rejected(), a.Granted(), a.Rejected())
	}
}

func TestSOARestoredContinuesIdentically(t *testing.T) {
	a, h := newTestSOA(400)
	a.SetAssignedBudget(timeseries.FlatWeek(420, 5*time.Minute))
	a.SetPowerTemplate(timeseries.FlatWeek(300, 5*time.Minute))
	exerciseSOA(a, h)

	snap := a.Snapshot()
	b, h2 := newTestSOA(400)
	h2.setAllUtil(0.6)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}

	// Drive both agents through identical further activity; their states
	// must remain byte-identical at every step.
	for i := 30; i < 60; i++ {
		now := soaStart.Add(time.Duration(i) * time.Minute)
		a.Tick(now)
		b.Tick(now)
	}
	a.Request(soaStart.Add(time.Hour), ocReq("vm4", 1))
	b.Request(soaStart.Add(time.Hour), ocReq("vm4", 1))
	ba, _ := json.Marshal(a.Snapshot())
	bb, _ := json.Marshal(b.Snapshot())
	if !bytes.Equal(ba, bb) {
		t.Fatalf("restored agent diverged:\n%s\nvs\n%s", ba, bb)
	}
}

func TestSOARestoreRejectsMismatchedLedger(t *testing.T) {
	a, h := newTestSOA(400)
	exerciseSOA(a, h)
	snap := a.Snapshot()
	snap.Budgets.Cores = snap.Budgets.Cores[:3] // pretend different hardware

	b, _ := newTestSOA(400)
	before, _ := json.Marshal(b.Snapshot())
	if err := b.Restore(snap); err == nil {
		t.Fatal("expected error for mismatched ledger core count")
	}
	after, _ := json.Marshal(b.Snapshot())
	if !bytes.Equal(before, after) {
		t.Fatal("failed Restore must not mutate the agent")
	}
}

func TestSOARestoreRejectsOutOfRangeCores(t *testing.T) {
	a, h := newTestSOA(400)
	exerciseSOA(a, h)
	snap := a.Snapshot()
	if len(snap.Sessions) == 0 {
		t.Fatal("test setup: no sessions")
	}
	snap.Sessions[0].Cores = []int{99}
	b, _ := newTestSOA(400)
	if err := b.Restore(snap); err == nil {
		t.Fatal("expected error for out-of-range session core")
	}
}

func TestGOASnapshotRoundtrip(t *testing.T) {
	g := NewGOA("rack-1", 5000)
	day := timeseries.FlatWeek(250, time.Hour)
	for i := 0; i < 4; i++ {
		g.SetProfile(fmt.Sprintf("s%d", i), ServerProfile{
			Power:      day,
			OC:         nil,
			OCCoreCost: 3.5,
		})
	}
	snap := g.Snapshot()
	b1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	g2 := NewGOA("other", 1)
	g2.Restore(snap)
	b2, _ := json.Marshal(g2.Snapshot())
	if !bytes.Equal(b1, b2) {
		t.Fatalf("gOA snapshot not lossless:\n%s\nvs\n%s", b1, b2)
	}
	if g2.Rack() != "rack-1" || g2.Limit() != 5000 {
		t.Fatalf("restored rack/limit = %s/%v", g2.Rack(), g2.Limit())
	}
	// Budget computation identical post-restore.
	ts := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	w1, w2 := g.BudgetsAt(ts), g2.BudgetsAt(ts)
	for name, v := range w1 {
		if w2[name] != v {
			t.Fatalf("budget[%s] = %v, want %v", name, w2[name], v)
		}
	}
}

func TestSnapshotIndependentOfLiveAgent(t *testing.T) {
	a, h := newTestSOA(400)
	exerciseSOA(a, h)
	snap := a.Snapshot()
	b1, _ := json.Marshal(snap)
	// Further activity on the live agent must not leak into the snapshot.
	for i := 30; i < 40; i++ {
		a.Tick(soaStart.Add(time.Duration(i) * time.Minute))
	}
	a.Request(soaStart.Add(2*time.Hour), ocReq("vm9", 1))
	b2, _ := json.Marshal(snap)
	if !bytes.Equal(b1, b2) {
		t.Fatal("snapshot aliases live agent state")
	}
}

// Guard: lifetime ledger restore roundtrips through JSON losslessly.
func TestCoreBudgetsStateRoundtrip(t *testing.T) {
	cb := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), 4, soaStart)
	cb.Core(0).Consume(2*time.Hour, false)
	cb.Core(1).Reserve(30 * time.Minute)
	cb.Advance(soaStart.Add(8 * 24 * time.Hour)) // cross an epoch
	cb.Core(2).Consume(time.Hour, false)

	snap := cb.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded lifetime.CoreBudgetsState
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	cb2 := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), 4, soaStart)
	if err := cb2.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, want := cb2.Core(i).Snapshot(), cb.Core(i).Snapshot()
		if got.Remaining != want.Remaining || got.Reserved != want.Reserved || !got.EpochStart.Equal(want.EpochStart) {
			t.Fatalf("core %d ledger mismatch", i)
		}
	}
	if err := cb2.Restore(&lifetime.CoreBudgetsState{Cores: decoded.Cores[:2]}); err == nil {
		t.Fatal("expected core-count mismatch error")
	}
}
