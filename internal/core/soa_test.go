package core

import (
	"testing"
	"time"

	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/power"
	"smartoclock/internal/timeseries"
)

// fakeHost implements Host over a machine.Machine with controllable
// utilization.
type fakeHost struct {
	name string
	m    *machine.Machine
}

func newFakeHost(name string) *fakeHost {
	cfg := machine.DefaultConfig()
	cfg.Cores = 8 // small for tests
	return &fakeHost{name: name, m: machine.New(cfg)}
}

func (h *fakeHost) Name() string                 { return h.name }
func (h *fakeHost) NumCores() int                { return h.m.Cores() }
func (h *fakeHost) TurboMHz() int                { return h.m.Config().TurboMHz }
func (h *fakeHost) MaxOCMHz() int                { return h.m.Config().MaxOCMHz }
func (h *fakeHost) StepMHz() int                 { return h.m.Config().StepMHz }
func (h *fakeHost) Power() float64               { return h.m.Power() }
func (h *fakeHost) CoreUtil(core int) float64    { return h.m.Util(core) }
func (h *fakeHost) SetDesiredFreq(core, mhz int) { h.m.SetFreq(core, mhz) }
func (h *fakeHost) DesiredFreq(core int) int     { return h.m.Freq(core) }

func (h *fakeHost) OCDeltaWatts(cores, mhz int, util float64) float64 {
	cfg := h.m.Config()
	return float64(cores) * (cfg.CorePower(cfg.ClampFreq(mhz), util) - cfg.CorePower(cfg.TurboMHz, util))
}

func (h *fakeHost) setAllUtil(u float64) {
	for i := 0; i < h.m.Cores(); i++ {
		h.m.SetUtil(i, u)
	}
}

var soaStart = time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)

func newTestSOA(budgetWatts float64) (*SOA, *fakeHost) {
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), h.NumCores(), soaStart)
	return NewSOA(cfg, h, budgets, budgetWatts, soaStart), h
}

func ocReq(vm string, cores int) Request {
	return Request{VM: vm, Cores: cores, TargetMHz: 4000, Priority: PriorityMetric}
}

func TestRequestGrantedWithinBudget(t *testing.T) {
	a, h := newTestSOA(1000) // generous budget
	h.setAllUtil(0.5)
	d := a.Request(soaStart, ocReq("vm1", 4))
	if !d.Granted {
		t.Fatalf("rejected: %+v", d)
	}
	if len(d.Cores) != 4 {
		t.Fatalf("cores = %v", d.Cores)
	}
	for _, c := range d.Cores {
		if h.DesiredFreq(c) != 4000 {
			t.Fatalf("core %d freq = %d", c, h.DesiredFreq(c))
		}
	}
	if a.Granted() != 1 {
		t.Fatalf("granted counter = %d", a.Granted())
	}
}

func TestRequestRejectedOnPower(t *testing.T) {
	a, h := newTestSOA(0) // impossible budget
	h.setAllUtil(0.5)
	var rejectedVM string
	var reason RejectReason
	a.OnReject = func(vm string, r RejectReason) { rejectedVM = vm; reason = r }
	d := a.Request(soaStart, ocReq("vm1", 4))
	if d.Granted {
		t.Fatal("granted with zero budget")
	}
	if d.Reason != RejectPower || rejectedVM != "vm1" || reason != RejectPower {
		t.Fatalf("reason = %v, callback %v/%v", d.Reason, rejectedVM, reason)
	}
	if a.Rejected() != 1 {
		t.Fatalf("rejected counter = %d", a.Rejected())
	}
}

func TestRequestRejectedOnLifetime(t *testing.T) {
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	// Tiny budgets: 1% of a 1-hour epoch = 36s, below the default horizon.
	bcfg := lifetime.BudgetConfig{Epoch: time.Hour, Fraction: 0.01}
	budgets := lifetime.NewCoreBudgets(bcfg, h.NumCores(), soaStart)
	a := NewSOA(cfg, h, budgets, 1000, soaStart)
	d := a.Request(soaStart, ocReq("vm1", 2))
	if d.Granted || d.Reason != RejectLifetime {
		t.Fatalf("decision = %+v, want lifetime rejection", d)
	}
}

func TestRequestValidation(t *testing.T) {
	a, _ := newTestSOA(1000)
	d := a.Request(soaStart, Request{VM: "", Cores: 1, TargetMHz: 4000})
	if d.Granted || d.Reason != RejectInvalid {
		t.Fatalf("decision = %+v", d)
	}
}

func TestDuplicateSessionRejected(t *testing.T) {
	a, _ := newTestSOA(1000)
	if d := a.Request(soaStart, ocReq("vm1", 2)); !d.Granted {
		t.Fatal("setup grant failed")
	}
	d := a.Request(soaStart, ocReq("vm1", 2))
	if d.Granted || d.Reason != RejectDuplicate {
		t.Fatalf("decision = %+v", d)
	}
}

func TestStopRestoresTurbo(t *testing.T) {
	a, h := newTestSOA(1000)
	d := a.Request(soaStart, ocReq("vm1", 3))
	if !d.Granted {
		t.Fatal("setup grant failed")
	}
	a.Stop(soaStart.Add(time.Minute), "vm1")
	for _, c := range d.Cores {
		if h.DesiredFreq(c) != h.TurboMHz() {
			t.Fatalf("core %d freq = %d after stop", c, h.DesiredFreq(c))
		}
	}
	if len(a.Sessions()) != 0 {
		t.Fatal("session not removed")
	}
	a.Stop(soaStart, "ghost") // no-op
}

func TestNaiveModeGrantsEverything(t *testing.T) {
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	cfg.Naive = true
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), h.NumCores(), soaStart)
	a := NewSOA(cfg, h, budgets, 0, soaStart) // zero budget, still grants
	d := a.Request(soaStart, ocReq("vm1", 4))
	if !d.Granted {
		t.Fatal("naive mode must grant")
	}
}

func TestAdmitOverrideCentralOracle(t *testing.T) {
	a, h := newTestSOA(0) // zero local budget would reject
	h.setAllUtil(0.3)
	calls := 0
	a.cfg.AdmitOverride = func(req Request, delta float64) bool {
		calls++
		return true // oracle says the rack has room
	}
	d := a.Request(soaStart, ocReq("vm1", 2))
	if !d.Granted || calls != 1 {
		t.Fatalf("oracle admission failed: %+v calls=%d", d, calls)
	}
	a.cfg.AdmitOverride = func(Request, float64) bool { return false }
	d = a.Request(soaStart, ocReq("vm2", 2))
	if d.Granted {
		t.Fatal("oracle rejection ignored")
	}
}

func TestFeedbackLoopThrottlesOverBudget(t *testing.T) {
	a, h := newTestSOA(1000)
	h.setAllUtil(0.2)
	d := a.Request(soaStart, ocReq("vm1", 4))
	if !d.Granted {
		t.Fatal("setup grant failed")
	}
	// Load rises; shrink the budget below the current draw.
	h.setAllUtil(1.0)
	a.staticBudget = h.Power() - 10
	before := a.Sessions()["vm1"].CurrentMHz()
	a.Tick(soaStart.Add(time.Second))
	after := a.Sessions()["vm1"].CurrentMHz()
	if after >= before {
		t.Fatalf("feedback did not step down: %d -> %d", before, after)
	}
}

func TestFeedbackLoopRaisesTowardTarget(t *testing.T) {
	a, h := newTestSOA(1000)
	h.setAllUtil(0.2)
	d := a.Request(soaStart, ocReq("vm1", 4))
	if !d.Granted {
		t.Fatal("setup grant failed")
	}
	s := a.Sessions()["vm1"]
	s.currentMHz = h.TurboMHz() + h.StepMHz() // had been throttled
	a.applyFreq(s)
	a.Tick(soaStart.Add(time.Second))
	if s.CurrentMHz() <= h.TurboMHz()+h.StepMHz() {
		t.Fatalf("feedback did not step up: %d", s.CurrentMHz())
	}
}

func TestFeedbackPrioritizesImportantSessions(t *testing.T) {
	a, h := newTestSOA(1500)
	h.setAllUtil(0.5)
	dLow := a.Request(soaStart, Request{VM: "low", Cores: 2, TargetMHz: 4000, Priority: PriorityBestEffort})
	dHigh := a.Request(soaStart, Request{VM: "high", Cores: 2, TargetMHz: 4000, Priority: PriorityScheduled})
	if !dLow.Granted || !dHigh.Granted {
		t.Fatal("setup grants failed")
	}
	// Force draw over budget: the best-effort session must be throttled
	// first.
	h.setAllUtil(1.0)
	a.staticBudget = h.Power() - 5
	a.Tick(soaStart.Add(time.Second))
	low := a.Sessions()["low"].CurrentMHz()
	high := a.Sessions()["high"].CurrentMHz()
	if low >= high {
		t.Fatalf("priorities inverted: low=%d high=%d", low, high)
	}
}

func TestExplorationRaisesBudgetWhenConstrained(t *testing.T) {
	a, h := newTestSOA(0)
	h.setAllUtil(0.5)
	a.cfg.AdmitOverride = func(Request, float64) bool { return true }
	d := a.Request(soaStart, ocReq("vm1", 4))
	if !d.Granted {
		t.Fatal("setup grant failed")
	}
	// Budget 0 → feedback throttles to turbo → constrained → explore.
	now := soaStart
	for i := 0; i < 3; i++ {
		now = now.Add(time.Second)
		a.Tick(now)
	}
	if a.ExtraWatts() == 0 {
		t.Fatal("exploration did not raise the budget")
	}
	// Confirm window passes without warnings → another bump.
	before := a.ExtraWatts()
	now = now.Add(a.cfg.ExploreConfirm + time.Second)
	a.Tick(now)
	if a.ExtraWatts() <= before {
		t.Fatalf("no second bump: %v -> %v", before, a.ExtraWatts())
	}
}

func TestWarningBacksOffExploration(t *testing.T) {
	a, h := newTestSOA(0)
	h.setAllUtil(0.5)
	a.cfg.AdmitOverride = func(Request, float64) bool { return true }
	a.Request(soaStart, ocReq("vm1", 4))
	now := soaStart.Add(time.Second)
	a.Tick(now) // enters exploring, extra = step
	if a.ExtraWatts() != a.cfg.ExploreStepWatts {
		t.Fatalf("extra = %v", a.ExtraWatts())
	}
	a.OnRackEvent(now, power.Event{Kind: power.EventWarning})
	if a.ExtraWatts() != 0 {
		t.Fatalf("warning did not reduce extra: %v", a.ExtraWatts())
	}
	// Back-off prevents immediate re-exploration.
	now = now.Add(time.Second)
	a.Tick(now)
	if a.ExtraWatts() != 0 {
		t.Fatal("explored during back-off")
	}
	// After the back-off elapses, exploration resumes.
	now = now.Add(a.cfg.InitialBackoff + time.Second)
	a.Tick(now)
	if a.ExtraWatts() == 0 {
		t.Fatal("exploration did not resume after back-off")
	}
}

func TestWarningIgnoredWhenNotExploring(t *testing.T) {
	a, _ := newTestSOA(500)
	a.OnRackEvent(soaStart, power.Event{Kind: power.EventWarning})
	if a.ExtraWatts() != 0 || a.mode != modeIdle {
		t.Fatal("warning must be a no-op when idle")
	}
}

func TestCapResetsToAssignedBudget(t *testing.T) {
	a, h := newTestSOA(0)
	h.setAllUtil(0.5)
	a.cfg.AdmitOverride = func(Request, float64) bool { return true }
	a.Request(soaStart, ocReq("vm1", 4))
	now := soaStart
	for i := 0; i < 5; i++ {
		now = now.Add(a.cfg.ExploreConfirm)
		a.Tick(now)
	}
	if a.ExtraWatts() == 0 {
		t.Fatal("setup: exploration should have accumulated extra")
	}
	a.OnRackEvent(now, power.Event{Kind: power.EventCap})
	if a.ExtraWatts() != 0 {
		t.Fatalf("cap did not reset extra: %v", a.ExtraWatts())
	}
}

func TestNoWarningVariantIgnoresWarnings(t *testing.T) {
	a, h := newTestSOA(0)
	a.cfg.IgnoreWarnings = true
	h.setAllUtil(0.5)
	a.cfg.AdmitOverride = func(Request, float64) bool { return true }
	a.Request(soaStart, ocReq("vm1", 4))
	now := soaStart.Add(time.Second)
	a.Tick(now)
	extra := a.ExtraWatts()
	a.OnRackEvent(now, power.Event{Kind: power.EventWarning})
	if a.ExtraWatts() != extra {
		t.Fatal("NoWarning variant must ignore warnings")
	}
	a.OnRackEvent(now, power.Event{Kind: power.EventCap})
	if a.ExtraWatts() != 0 {
		t.Fatal("NoWarning variant must still revert on caps")
	}
}

func TestNoExploreVariantNeverExplores(t *testing.T) {
	a, h := newTestSOA(0)
	a.cfg.NoExplore = true
	h.setAllUtil(0.5)
	a.cfg.AdmitOverride = func(Request, float64) bool { return true }
	a.Request(soaStart, ocReq("vm1", 4))
	now := soaStart
	for i := 0; i < 10; i++ {
		now = now.Add(a.cfg.ExploreConfirm)
		a.Tick(now)
	}
	if a.ExtraWatts() != 0 {
		t.Fatal("NoFeedback variant explored")
	}
}

func TestOCTimeBudgetConsumedAndSessionStopped(t *testing.T) {
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	cfg.DefaultOCHorizon = time.Minute
	// 2-minute budget per core in a long epoch.
	bcfg := lifetime.BudgetConfig{Epoch: 100 * time.Hour, Fraction: 2.0 / 60 / 100}
	budgets := lifetime.NewCoreBudgets(bcfg, h.NumCores(), soaStart)
	a := NewSOA(cfg, h, budgets, 10000, soaStart)
	h.setAllUtil(0.5)
	var stopped string
	a.OnReject = func(vm string, r RejectReason) {
		if r == RejectLifetime {
			stopped = vm
		}
	}
	// 8 cores, session on all of them: no spare cores to migrate to.
	d := a.Request(soaStart, ocReq("vm1", 8))
	if !d.Granted {
		t.Fatalf("setup grant failed: %+v", d)
	}
	now := soaStart
	for i := 0; i < 10 && len(a.Sessions()) > 0; i++ {
		now = now.Add(time.Minute)
		a.Tick(now)
	}
	if len(a.Sessions()) != 0 {
		t.Fatal("session survived budget exhaustion")
	}
	if stopped != "vm1" {
		t.Fatalf("WI not notified of stop: %q", stopped)
	}
}

func TestOCSessionMigratesToFreshCores(t *testing.T) {
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	cfg.DefaultOCHorizon = time.Minute
	bcfg := lifetime.BudgetConfig{Epoch: 100 * time.Hour, Fraction: 3.0 / 60 / 100} // 3 min/core
	budgets := lifetime.NewCoreBudgets(bcfg, h.NumCores(), soaStart)
	a := NewSOA(cfg, h, budgets, 10000, soaStart)
	h.setAllUtil(0.5)
	d := a.Request(soaStart, ocReq("vm1", 2)) // uses 2 of 8 cores
	if !d.Granted {
		t.Fatal("setup grant failed")
	}
	orig := append([]int(nil), a.Sessions()["vm1"].Cores...)
	now := soaStart
	for i := 0; i < 6; i++ {
		now = now.Add(time.Minute)
		a.Tick(now)
	}
	if len(a.Sessions()) != 1 {
		t.Fatal("session should have migrated, not stopped")
	}
	cur := a.Sessions()["vm1"].Cores
	same := cur[0] == orig[0] && cur[1] == orig[1]
	if same {
		t.Fatalf("session did not migrate off exhausted cores: %v -> %v", orig, cur)
	}
}

func TestScheduledRequestReservesBudget(t *testing.T) {
	a, h := newTestSOA(2000)
	h.setAllUtil(0.3)
	req := Request{VM: "vm1", Cores: 2, TargetMHz: 4000, Priority: PriorityScheduled, Duration: time.Hour}
	d := a.Request(soaStart, req)
	if !d.Granted {
		t.Fatalf("scheduled grant failed: %+v", d)
	}
	for _, c := range d.Cores {
		if a.budgets.Core(c).Reserved() != time.Hour {
			t.Fatalf("core %d reserved = %v", c, a.budgets.Core(c).Reserved())
		}
	}
}

func TestProfileRecording(t *testing.T) {
	a, h := newTestSOA(1000)
	a.cfg.ProfileStep = time.Minute
	a.nextSlotAt = soaStart.Add(time.Minute)
	h.setAllUtil(0.5)
	a.Request(soaStart, ocReq("vm1", 2))
	now := soaStart
	for i := 0; i < 5; i++ {
		now = now.Add(time.Minute)
		a.Tick(now)
	}
	win := a.Snapshot().Profile
	if len(win) != 5 {
		t.Fatalf("window holds %d slots after 5, want 5", len(win))
	}
	for i, s := range win {
		if s.Watts != h.Power() {
			t.Fatalf("slot %d watts = %v, want the reading %v", i, s.Watts, h.Power())
		}
		want := 0
		if i == 0 {
			want = 2 // vm1's request fell in the first slot
		}
		if s.Requested != want {
			t.Fatalf("slot %d requested = %d, want %d", i, s.Requested, want)
		}
	}
	// Past ten slots the window keeps only the last ten, oldest first.
	for i := 0; i < 8; i++ {
		if i == 6 {
			a.Request(now, ocReq("vm2", 3))
		}
		now = now.Add(time.Minute)
		a.Tick(now)
	}
	win = a.Snapshot().Profile
	if len(win) != profileWindow {
		t.Fatalf("window holds %d slots after 13, want %d", len(win), profileWindow)
	}
	for i, s := range win {
		want := 0
		if i == 8 { // slot 12 of 13: vm2's request
			want = 3
		}
		if s.Requested != want {
			t.Fatalf("slot %d requested = %d, want %d", i, s.Requested, want)
		}
	}
}

func TestExhaustionSignalForOCBudget(t *testing.T) {
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	cfg.ExhaustionWindow = 15 * time.Minute
	cfg.DefaultOCHorizon = time.Minute
	// 10-minute budget per core: within the 15-minute window.
	bcfg := lifetime.BudgetConfig{Epoch: 1000 * time.Hour, Fraction: 10.0 / 60 / 1000}
	budgets := lifetime.NewCoreBudgets(bcfg, h.NumCores(), soaStart)
	a := NewSOA(cfg, h, budgets, 10000, soaStart)
	h.setAllUtil(0.5)
	var signaled ExhaustionKind
	a.OnExhaustionSoon = func(kind ExhaustionKind, at time.Time) { signaled = kind }
	a.Request(soaStart, ocReq("vm1", 8))
	a.Tick(soaStart.Add(time.Second))
	if signaled != ExhaustOCBudget {
		t.Fatalf("signaled = %q, want oc-budget", signaled)
	}
}

func TestExhaustionSignalRateLimited(t *testing.T) {
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	cfg.DefaultOCHorizon = time.Minute
	bcfg := lifetime.BudgetConfig{Epoch: 1000 * time.Hour, Fraction: 10.0 / 60 / 1000}
	budgets := lifetime.NewCoreBudgets(bcfg, h.NumCores(), soaStart)
	a := NewSOA(cfg, h, budgets, 10000, soaStart)
	h.setAllUtil(0.5)
	count := 0
	a.OnExhaustionSoon = func(ExhaustionKind, time.Time) { count++ }
	a.Request(soaStart, ocReq("vm1", 8))
	now := soaStart
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		a.Tick(now)
	}
	if count != 1 {
		t.Fatalf("exhaustion signaled %d times within one window", count)
	}
}

func TestBudgetAtUsesAssignedTemplate(t *testing.T) {
	a, _ := newTestSOA(300)
	if a.BudgetAt(soaStart) != 300 {
		t.Fatal("static budget not used")
	}
	a.SetAssignedBudget(flatTemplate(550))
	if a.BudgetAt(soaStart) != 550 {
		t.Fatalf("assigned budget not used: %v", a.BudgetAt(soaStart))
	}
}

func TestPriorityString(t *testing.T) {
	if PriorityScheduled.String() != "scheduled" || PriorityMetric.String() != "metric" ||
		PriorityBestEffort.String() != "best-effort" {
		t.Fatal("priority names wrong")
	}
}

func TestWearGateVetoesAdmission(t *testing.T) {
	a, h := newTestSOA(2000)
	h.setAllUtil(0.5)
	a.cfg.WearGate = func(core int) bool { return false } // all cores worn out
	d := a.Request(soaStart, ocReq("vm1", 2))
	if d.Granted || d.Reason != RejectLifetime {
		t.Fatalf("decision = %+v, want wear-gated lifetime rejection", d)
	}
}

func TestWearGateStopsActiveSession(t *testing.T) {
	a, h := newTestSOA(2000)
	h.setAllUtil(0.5)
	worn := false
	a.cfg.WearGate = func(core int) bool { return !worn }
	var stopped string
	a.OnReject = func(vm string, r RejectReason) {
		if r == RejectLifetime {
			stopped = vm
		}
	}
	if d := a.Request(soaStart, ocReq("vm1", 8)); !d.Granted {
		t.Fatalf("setup grant failed: %+v", d)
	}
	// Wear counters report exhaustion mid-session; the whole machine is
	// worn, so migration is impossible and the session must stop.
	worn = true
	a.Tick(soaStart.Add(time.Second))
	a.Tick(soaStart.Add(2 * time.Second))
	if len(a.Sessions()) != 0 {
		t.Fatal("worn-out session not stopped")
	}
	if stopped != "vm1" {
		t.Fatalf("WI not notified: %q", stopped)
	}
}

func TestReserveWindowLifecycle(t *testing.T) {
	a, h := newTestSOA(2000)
	h.setAllUtil(0.4)
	a.SetPowerTemplate(flatTemplate(300))
	now := soaStart
	windowStart := now.Add(time.Hour)

	d, res := a.ReserveWindow(now, windowStart, 30*time.Minute,
		Request{VM: "batch", Cores: 4, TargetMHz: 4000, Priority: PriorityScheduled})
	if !d.Granted || res == nil {
		t.Fatalf("reservation failed: %+v", d)
	}
	for _, c := range res.Cores {
		if a.budgets.Core(c).Reserved() != 30*time.Minute {
			t.Fatalf("core %d reserved = %v", c, a.budgets.Core(c).Reserved())
		}
	}
	if !a.HonorCheck(res) {
		t.Fatal("fresh reservation must be honorable")
	}

	// Window opens: the session starts without re-admission and burns the
	// reserved budget.
	sd := a.StartReserved(windowStart, res)
	if !sd.Granted {
		t.Fatalf("StartReserved failed: %+v", sd)
	}
	if h.DesiredFreq(res.Cores[0]) != 4000 {
		t.Fatal("reserved cores not overclocked")
	}
	a.Tick(windowStart)
	a.Tick(windowStart.Add(10 * time.Minute))
	if got := a.budgets.Core(res.Cores[0]).Reserved(); got != 20*time.Minute {
		t.Fatalf("reservation not drawn down: %v", got)
	}
}

func TestReserveWindowPowerRejection(t *testing.T) {
	a, h := newTestSOA(100) // tiny budget
	h.setAllUtil(0.4)
	a.SetPowerTemplate(flatTemplate(300)) // baseline alone exceeds budget
	d, res := a.ReserveWindow(soaStart, soaStart.Add(time.Hour), 30*time.Minute,
		Request{VM: "batch", Cores: 4, TargetMHz: 4000, Priority: PriorityScheduled})
	if d.Granted || res != nil {
		t.Fatal("power-infeasible reservation accepted")
	}
	if d.Reason != RejectPower {
		t.Fatalf("reason = %v", d.Reason)
	}
	// Failed reservations must not leak reserved budget.
	for i := 0; i < a.host.NumCores(); i++ {
		if a.budgets.Core(i).Reserved() != 0 {
			t.Fatalf("core %d leaked reservation", i)
		}
	}
}

func TestReserveWindowValidation(t *testing.T) {
	a, _ := newTestSOA(2000)
	if d, _ := a.ReserveWindow(soaStart, soaStart.Add(-time.Hour), 30*time.Minute,
		Request{VM: "x", Cores: 1, TargetMHz: 4000}); d.Granted {
		t.Fatal("past window accepted")
	}
	if d, _ := a.ReserveWindow(soaStart, soaStart.Add(time.Hour), 0,
		Request{VM: "x", Cores: 1, TargetMHz: 4000}); d.Granted {
		t.Fatal("zero-length window accepted")
	}
}

// TestCancelReservationReleasesBudget checks that releasing a reservation,
// as ReserveWindow does when the window's power does not fit, returns the
// budget reserved on every core.
func TestCancelReservationReleasesBudget(t *testing.T) {
	a, h := newTestSOA(2000)
	h.setAllUtil(0.4)
	a.SetPowerTemplate(flatTemplate(300))
	_, res := a.ReserveWindow(soaStart, soaStart.Add(time.Hour), 30*time.Minute,
		Request{VM: "batch", Cores: 2, TargetMHz: 4000, Priority: PriorityScheduled})
	if res == nil {
		t.Fatal("setup reservation failed")
	}
	if a.budgets.Core(res.Cores[0]).Reserved() == 0 {
		t.Fatal("setup reserved no budget")
	}
	a.releaseReservationBudget(res)
	for _, c := range res.Cores {
		if a.budgets.Core(c).Reserved() != 0 {
			t.Fatalf("core %d still reserved after release", c)
		}
	}
}

func TestHonorCheckDetectsBudgetShrink(t *testing.T) {
	a, h := newTestSOA(2000)
	h.setAllUtil(0.4)
	a.SetPowerTemplate(flatTemplate(300))
	_, res := a.ReserveWindow(soaStart, soaStart.Add(time.Hour), 30*time.Minute,
		Request{VM: "batch", Cores: 4, TargetMHz: 4000, Priority: PriorityScheduled})
	if res == nil {
		t.Fatal("setup reservation failed")
	}
	// The gOA reassigns a much smaller budget: the reservation can no
	// longer be honored and the WI layer must be able to find out.
	a.SetStaticBudget(150, true)
	if a.HonorCheck(res) {
		t.Fatal("HonorCheck missed the shrunken budget")
	}
	if a.HonorCheck(nil) {
		t.Fatal("nil reservation must not be honorable")
	}
}

func TestStartReservedOutsideWindow(t *testing.T) {
	a, h := newTestSOA(2000)
	h.setAllUtil(0.4)
	a.SetPowerTemplate(flatTemplate(300))
	_, res := a.ReserveWindow(soaStart, soaStart.Add(time.Hour), 30*time.Minute,
		Request{VM: "batch", Cores: 2, TargetMHz: 4000, Priority: PriorityScheduled})
	if res == nil {
		t.Fatal("setup reservation failed")
	}
	if d := a.StartReserved(soaStart, res); d.Granted {
		t.Fatal("started before the window")
	}
	if d := a.StartReserved(soaStart.Add(2*time.Hour), res); d.Granted {
		t.Fatal("started after the window")
	}
}

// TestRapidTriggerStress reproduces §V-A's stress observation: servers
// that triggered overclocking more than 140 times within 5 minutes still
// met every deadline, because the sOA starts/stops sessions in
// milliseconds. Here 150 start/stop cycles in 5 simulated minutes must all
// apply instantly and leave the accounting consistent.
func TestRapidTriggerStress(t *testing.T) {
	a, h := newTestSOA(2000)
	h.setAllUtil(0.6)
	now := soaStart
	const cycles = 150
	interval := 5 * time.Minute / (2 * cycles)
	for i := 0; i < cycles; i++ {
		d := a.Request(now, ocReq("vm1", 4))
		if !d.Granted {
			t.Fatalf("cycle %d: request rejected: %+v", i, d)
		}
		// The overclock must be in effect immediately — no deadline slack.
		for _, c := range d.Cores {
			if h.DesiredFreq(c) != 4000 {
				t.Fatalf("cycle %d: core %d not overclocked instantly", i, c)
			}
		}
		now = now.Add(interval)
		a.Tick(now)
		a.Stop(now, "vm1")
		if h.DesiredFreq(d.Cores[0]) != h.TurboMHz() {
			t.Fatalf("cycle %d: stop not applied instantly", i)
		}
		now = now.Add(interval)
		a.Tick(now)
	}
	if a.Granted() != cycles {
		t.Fatalf("granted = %d, want %d", a.Granted(), cycles)
	}
	if len(a.Sessions()) != 0 {
		t.Fatal("sessions leaked")
	}
	// Budget accounting stayed consistent: roughly half the window was
	// overclocked, spread across the chosen cores.
	total := 0.0
	for i := 0; i < a.host.NumCores(); i++ {
		cfgAllowance := a.budgets.Core(i).Config().Allowance()
		total += (cfgAllowance - a.budgets.Core(i).Remaining()).Seconds()
	}
	if total <= 0 {
		t.Fatal("no overclock time charged")
	}
}

func TestSOANameAndRecentRequested(t *testing.T) {
	a, h := newTestSOA(1000)
	h.setAllUtil(0.4)
	// No recorded slots yet: the live reading and counter are returned.
	a.Request(soaStart, ocReq("vm1", 4))
	if med, req, granted := a.RecentProfile(); med != h.Power() || req != 4 || granted != 4 {
		t.Fatalf("live profile = %v W, %v requested, %v granted", med, req, granted)
	}
	a.Stop(soaStart, "vm1")
	// Close two profile slots and read the windowed mean.
	a.cfg.ProfileStep = time.Minute
	a.nextSlotAt = soaStart.Add(time.Minute)
	a.Tick(soaStart.Add(time.Minute))     // slot 1: requested 4
	a.Tick(soaStart.Add(2 * time.Minute)) // slot 2: requested 0
	if _, req, _ := a.RecentProfile(); req != 2 {
		t.Fatalf("windowed requested = %v, want 2", req)
	}
	// Four more idle slots push slot 1 out of the last five.
	a.Tick(soaStart.Add(6 * time.Minute))
	if _, req, _ := a.RecentProfile(); req != 0 {
		t.Fatalf("requested over the last five slots = %v, want 0", req)
	}
}

func TestPredictedBaselineUsesTemplateMax(t *testing.T) {
	a, h := newTestSOA(520)
	h.setAllUtil(0.1) // current power is low...
	// ...but the template predicts a 500 W peak within the horizon, so a
	// request whose delta would fit current power must still be rejected.
	a.SetPowerTemplate(flatTemplate(500))
	d := a.Request(soaStart, ocReq("vm1", 8))
	if d.Granted {
		t.Fatal("admission ignored the predicted baseline peak")
	}
	// With a low predicted baseline it passes.
	a.SetPowerTemplate(flatTemplate(200))
	if d := a.Request(soaStart, ocReq("vm1", 8)); !d.Granted {
		t.Fatalf("admission rejected against low baseline: %+v", d)
	}
}

func TestRequestValidationReasons(t *testing.T) {
	cases := []Request{
		{VM: "", Cores: 1, TargetMHz: 4000},
		{VM: "x", Cores: 0, TargetMHz: 4000},
		{VM: "x", Cores: 1, TargetMHz: 0},
		{VM: "x", Cores: 1, TargetMHz: 4000, Duration: -time.Second},
	}
	for i, req := range cases {
		if err := req.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
	ok := Request{VM: "x", Cores: 1, TargetMHz: 4000}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewSOAPanicsOnBadProfileStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := newFakeHost("s1")
	cfg := DefaultSOAConfig()
	cfg.ProfileStep = 0
	NewSOA(cfg, h, lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), 8, soaStart), 100, soaStart)
}

func TestExplorationEntersExploitation(t *testing.T) {
	a, h := newTestSOA(0)
	h.setAllUtil(0.3)
	a.cfg.AdmitOverride = func(Request, float64) bool { return true }
	a.Request(soaStart, ocReq("vm1", 2))
	// Explore until the session reaches its target, then the sOA must
	// hold the discovered budget (exploitation) instead of growing it.
	now := soaStart
	for i := 0; i < 60; i++ {
		now = now.Add(a.cfg.ExploreConfirm)
		a.Tick(now)
		if a.Sessions()["vm1"].CurrentMHz() == 4000 {
			break
		}
	}
	if a.Sessions()["vm1"].CurrentMHz() != 4000 {
		t.Fatalf("exploration never reached target: %d MHz", a.Sessions()["vm1"].CurrentMHz())
	}
	stable := a.ExtraWatts()
	now = now.Add(a.cfg.ExploreConfirm)
	a.Tick(now)
	if a.ExtraWatts() != stable {
		t.Fatalf("exploitation must hold the budget: %v -> %v", stable, a.ExtraWatts())
	}
	// After the exploit timer, an unconstrained sOA stays idle.
	now = now.Add(a.cfg.ExploitTime + time.Second)
	a.Tick(now)
	if a.ExtraWatts() != stable {
		t.Fatalf("idle sOA must not change the budget: %v", a.ExtraWatts())
	}
}

func TestPowerExhaustionSignal(t *testing.T) {
	a, h := newTestSOA(600)
	h.setAllUtil(0.5)
	// Template: 450 W now (the request fits), climbing to 580 W at 10:00.
	// With the session's overclock delta the 600 W budget will then be
	// exceeded — the sOA must warn the WI layer ahead of time (Fig 11).
	slots := make([]float64, 24)
	for i := range slots {
		slots[i] = 450
		if i >= 10 {
			slots[i] = 580
		}
	}
	day := &timeseries.DayTemplate{Step: time.Hour, Slots: slots}
	a.SetPowerTemplate(&timeseries.WeekTemplate{Weekday: day, Weekend: day})
	a.cfg.ExhaustionWindow = 2 * time.Hour // look past the 10:00 climb
	var kind ExhaustionKind
	var at time.Time
	a.OnExhaustionSoon = func(k ExhaustionKind, t2 time.Time) { kind, at = k, t2 }
	if d := a.Request(soaStart, ocReq("vm1", 8)); !d.Granted { // soaStart is 9:00
		t.Fatalf("admission rejected: %+v", d)
	}
	a.Tick(soaStart.Add(time.Second))
	if kind != ExhaustPower {
		t.Fatalf("signal = %q, want power exhaustion", kind)
	}
	if at.Hour() != 10 {
		t.Fatalf("predicted exhaustion at %v, want the 10:00 climb", at)
	}
}

// TestDecentralizedFaultTolerance demonstrates the paper's Q5 argument: a
// centralized scheme rejects every request when its global entity dies,
// while SmartOClock's sOAs keep granting against their (possibly stale)
// assigned budgets and exploring beyond them.
func TestDecentralizedFaultTolerance(t *testing.T) {
	// Centralized: the oracle is unreachable — nothing is granted.
	central, hc := newTestSOA(0)
	hc.setAllUtil(0.4)
	oracleAlive := false
	central.cfg.AdmitOverride = func(Request, float64) bool { return oracleAlive }
	if d := central.Request(soaStart, ocReq("vm1", 4)); d.Granted {
		t.Fatal("centralized admission granted with a dead oracle")
	}

	// Decentralized: the gOA assigned a budget and then died; the sOA
	// keeps operating on the stale assignment.
	smart, hs := newTestSOA(0)
	hs.setAllUtil(0.4)
	smart.SetAssignedBudget(flatTemplate(900)) // last assignment before the gOA died
	smart.SetPowerTemplate(flatTemplate(400))
	d := smart.Request(soaStart, ocReq("vm1", 4))
	if !d.Granted {
		t.Fatalf("decentralized sOA must grant from the stale budget: %+v", d)
	}
	// And enforcement still runs locally.
	smart.Tick(soaStart.Add(time.Second))
	if len(smart.Sessions()) != 1 {
		t.Fatal("local session lost without the gOA")
	}
}

// TestSessionStopMidExplorationShedsUnconfirmedBudget is the regression
// test for the back-off audit: when every session stops while the sOA is
// exploring and no demand is pending, the raised budget was never confirmed
// safe (nothing ran at it). The sOA must shed the surplus and return to
// idle WITHOUT resetting the back-off — the old code treated the vacuously
// unconstrained state as a success, exploited the unconfirmed budget for
// ExploitTime and wiped the back-off schedule.
func TestSessionStopMidExplorationShedsUnconfirmedBudget(t *testing.T) {
	a, h := newTestSOA(0)
	h.setAllUtil(0.5)
	a.cfg.AdmitOverride = func(Request, float64) bool { return true }
	a.Request(soaStart, ocReq("vm1", 4))

	// Enter exploration, then take a warning so the back-off doubles.
	now := soaStart.Add(time.Second)
	a.Tick(now)
	if a.mode != modeExploring {
		t.Fatalf("setup: mode = %v, want exploring", a.mode)
	}
	a.OnRackEvent(now, power.Event{Kind: power.EventWarning})
	doubled := a.pol.Exploration.Snapshot().Backoff
	if doubled != 2*a.cfg.InitialBackoff {
		t.Fatalf("setup: backoff = %v, want %v", doubled, 2*a.cfg.InitialBackoff)
	}

	// Resume exploring after the back-off, then stop the session mid-flight.
	now = now.Add(a.cfg.InitialBackoff + time.Second)
	a.Tick(now)
	if a.mode != modeExploring || a.ExtraWatts() == 0 {
		t.Fatalf("setup: mode = %v extra = %v, want exploring with surplus", a.mode, a.ExtraWatts())
	}
	a.Stop(now, "vm1")

	now = now.Add(time.Second)
	a.Tick(now)
	if a.mode != modeIdle {
		t.Fatalf("mode = %v, want idle after the last session stopped", a.mode)
	}
	if a.ExtraWatts() != 0 {
		t.Fatalf("extra = %v, want 0: the raised budget was never confirmed", a.ExtraWatts())
	}
	if got := a.pol.Exploration.Snapshot().Backoff; got != doubled {
		t.Fatalf("backoff = %v, want %v (session stop must not reset it)", got, doubled)
	}
}

// TestExplorationContinuesOnRejectDemandWithoutSessions pins the companion
// branch: zero sessions but a recent power-side rejection still counts as
// constrained demand, so the sOA keeps exploring rather than shedding.
func TestExplorationContinuesOnRejectDemandWithoutSessions(t *testing.T) {
	a, h := newTestSOA(0) // zero budget: every request rejects on power
	h.setAllUtil(0.5)
	if d := a.Request(soaStart, ocReq("vm1", 4)); d.Granted {
		t.Fatal("setup: request must reject on power")
	}
	now := soaStart.Add(time.Second)
	a.Tick(now) // constrained via recent reject → explore with no sessions
	if a.mode != modeExploring || a.ExtraWatts() == 0 {
		t.Fatalf("mode = %v extra = %v, want exploring on rejected demand", a.mode, a.ExtraWatts())
	}
	// Still inside the reject window: keep exploring.
	now = now.Add(time.Second)
	a.Tick(now)
	if a.mode != modeExploring {
		t.Fatalf("mode = %v, want still exploring inside the reject window", a.mode)
	}
	// Once the rejection ages out, demand is gone: shed and idle.
	now = now.Add(2*a.cfg.ExploreConfirm + time.Second)
	a.Tick(now)
	if a.mode != modeIdle || a.ExtraWatts() != 0 {
		t.Fatalf("mode = %v extra = %v, want idle with no surplus", a.mode, a.ExtraWatts())
	}
}
