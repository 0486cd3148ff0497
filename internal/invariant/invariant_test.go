package invariant

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/policy"
	"smartoclock/internal/power"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

var invStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// fakeServer implements power.Server and OCHost (and enough of core.Host
// for an SOA) with directly settable state.
type fakeServer struct {
	name  string
	watts float64
	freqs []int
	cap   int
}

func newFakeServer(name string, cores int) *fakeServer {
	f := &fakeServer{name: name, freqs: make([]int, cores)}
	for i := range f.freqs {
		f.freqs[i] = 3200 // turbo
	}
	return f
}

func (f *fakeServer) Name() string               { return f.name }
func (f *fakeServer) Power() float64             { return f.watts }
func (f *fakeServer) CapPriority() int           { return 0 }
func (f *fakeServer) ForceCap(level int)         { f.cap = level }
func (f *fakeServer) CapLevel() int              { return f.cap }
func (f *fakeServer) MaxCapLevel() int           { return 10 }
func (f *fakeServer) NumCores() int              { return len(f.freqs) }
func (f *fakeServer) TurboMHz() int              { return 3200 }
func (f *fakeServer) MaxOCMHz() int              { return 4000 }
func (f *fakeServer) StepMHz() int               { return 100 }
func (f *fakeServer) EffectiveFreq(core int) int { return f.freqs[core] }
func (f *fakeServer) CoreUtil(core int) float64  { return 0.5 }
func (f *fakeServer) SetDesiredFreq(core, mhz int) {
	f.freqs[core] = mhz
}
func (f *fakeServer) DesiredFreq(core int) int { return f.freqs[core] }
func (f *fakeServer) OCDeltaWatts(cores, mhz int, util float64) float64 {
	return 0 // power admission always passes; tests drive lifetime/frequency paths
}

func TestCheckerRecordsTickRackAndName(t *testing.T) {
	c := NewChecker()
	c.Register("always-fails", "rack-7", func(now time.Time, report Reporter) {
		report("boom")
	})
	ts := invStart.Add(42 * time.Second)
	c.Check(ts)
	if c.Total() != 1 || len(c.Violations()) != 1 {
		t.Fatalf("total %d recorded %d", c.Total(), len(c.Violations()))
	}
	v := c.Violations()[0]
	if v.Rack != "rack-7" || v.Invariant != "always-fails" || !v.Time.Equal(ts) || v.Detail != "boom" {
		t.Fatalf("violation = %+v", v)
	}
	err := c.Err()
	if err == nil {
		t.Fatal("Err() nil with violations")
	}
	for _, want := range []string{"rack-7", "always-fails", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

// TestCheckerReportersStampTickAndCheck registers checks before and after
// Instrument (so the check slice regrows under the reporters built in
// Register) and fails each at a different tick: every violation must carry
// its own check's name and rack and the tick it was reported at, in the
// stored violations, the per-invariant counters, the trace and the
// provenance log alike.
func TestCheckerReportersStampTickAndCheck(t *testing.T) {
	c := NewChecker()
	reg := metrics.NewRegistry()
	tr := obs.New()
	prov := causal.NewRecorder(1, 0)
	const n = 6
	for i := 0; i < n; i++ {
		if i == n/2 {
			c.Instrument(reg, tr, prov)
		}
		c.Register(fmt.Sprintf("inv-%d", i), fmt.Sprintf("rack-%d", i), func(now time.Time, report Reporter) {
			if int(now.Sub(invStart)/time.Second) == i {
				report(fmt.Sprintf("detail-%d", i))
			}
		})
	}
	for i := 0; i < n; i++ {
		c.Check(invStart.Add(time.Duration(i) * time.Second))
	}
	vs, evs, recs := c.Violations(), tr.Events(), prov.Records()
	if len(vs) != n || len(evs) != n || len(recs) != n {
		t.Fatalf("violations/events/records = %d/%d/%d, want %d each", len(vs), len(evs), len(recs), n)
	}
	for i := 0; i < n; i++ {
		ts := invStart.Add(time.Duration(i) * time.Second)
		name, rack, detail := fmt.Sprintf("inv-%d", i), fmt.Sprintf("rack-%d", i), fmt.Sprintf("detail-%d", i)
		if v := vs[i]; v.Invariant != name || v.Rack != rack || v.Detail != detail || !v.Time.Equal(ts) {
			t.Errorf("violation %d = %+v", i, v)
		}
		if ev := evs[i]; ev.Source != rack || ev.Detail != name+": "+detail || !ev.Time.Equal(ts) || ev.Span != uint64(recs[i].Span) {
			t.Errorf("event %d = %+v", i, ev)
		}
		if r := recs[i]; r.Policy != name || r.Subject != rack || r.Detail != detail || !r.Time.Equal(ts) {
			t.Errorf("record %d = %+v", i, r)
		}
		if got := reg.Counter("invariant_violations_total", metrics.L("invariant", name)).Value(); got != 1 {
			t.Errorf("%s counted %v violations, want 1", name, got)
		}
	}
}

// TestCheckAllocs guards the per-tick cost of the battery: with every check
// passing, Check allocates nothing, however many checks are registered.
func TestCheckAllocs(t *testing.T) {
	c := NewChecker()
	c.Instrument(metrics.NewRegistry(), obs.New(), causal.NewRecorder(1, 0))
	var limit float64
	for i := 0; i < 8; i++ {
		c.Register(fmt.Sprintf("inv-%d", i), "r", func(now time.Time, report Reporter) {
			if limit < 0 {
				report("negative limit")
			}
		})
	}
	now := invStart
	if allocs := testing.AllocsPerRun(1000, func() { now = now.Add(time.Second); c.Check(now) }); allocs != 0 {
		t.Errorf("Check allocates %v times per tick, want 0", allocs)
	}
	if c.Total() != 0 {
		t.Fatalf("passing checks reported %d violations", c.Total())
	}
}

func TestCheckerMaxRecordCapsStorageNotCount(t *testing.T) {
	c := NewChecker()
	c.MaxRecord = 3
	c.Register("noisy", "r", func(now time.Time, report Reporter) { report("x") })
	for i := 0; i < 10; i++ {
		c.Check(invStart.Add(time.Duration(i) * time.Second))
	}
	if c.Total() != 10 || len(c.Violations()) != 3 {
		t.Fatalf("total %d recorded %d", c.Total(), len(c.Violations()))
	}
	if !strings.Contains(c.Err().Error(), "7 more") {
		t.Fatalf("error does not summarize overflow: %v", c.Err())
	}
}

func TestCheckerCleanRun(t *testing.T) {
	c := NewChecker()
	c.Register("fine", "r", func(now time.Time, report Reporter) {})
	c.Check(invStart)
	if err := c.Err(); err != nil {
		t.Fatalf("Err() = %v on clean run", err)
	}
	if c.Checks() != 1 {
		t.Fatalf("checks = %d", c.Checks())
	}
}

func TestRackPowerWithinLimit(t *testing.T) {
	s := newFakeServer("s0", 4)
	rack := power.NewRack(power.DefaultRackConfig("rack-t", 100), s)
	c := NewChecker()
	RackPowerWithinLimit(c, rack, 2*time.Second)

	// Within limit: fine.
	s.watts = 90
	c.Check(invStart)
	// Excursion above limit shorter than grace: still fine.
	s.watts = 120
	c.Check(invStart.Add(1 * time.Second))
	c.Check(invStart.Add(2 * time.Second))
	// Back under resets the window.
	s.watts = 80
	c.Check(invStart.Add(3 * time.Second))
	s.watts = 130
	c.Check(invStart.Add(4 * time.Second))
	c.Check(invStart.Add(5 * time.Second))
	if c.Total() != 0 {
		t.Fatalf("violations during tolerated excursions: %v", c.Err())
	}
	// Staying over past the grace window violates.
	c.Check(invStart.Add(7 * time.Second))
	if c.Total() != 1 {
		t.Fatalf("total = %d, want 1 (sustained breach)", c.Total())
	}
}

func TestCoreBudgetsNeverOverdrawn(t *testing.T) {
	s := newFakeServer("s0", 2)
	cfg := lifetime.BudgetConfig{Epoch: time.Hour, Fraction: 0.10} // 6 min/epoch
	c := NewChecker()
	CoreBudgetsNeverOverdrawn(c, "rack-t", s, cfg, invStart, 2*time.Second)

	// Core 0 overclocks for exactly its allowance: no violation.
	s.freqs[0] = 3600
	now := invStart
	for i := 0; i < 360; i++ { // 6 minutes of 1s ticks
		now = now.Add(time.Second)
		c.Check(now)
	}
	if c.Total() != 0 {
		t.Fatalf("violation inside allowance: %v", c.Err())
	}
	// A few more seconds past the slack: overdraw.
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		c.Check(now)
	}
	if c.Total() == 0 {
		t.Fatal("overdraw not detected")
	}
	if !strings.Contains(c.Violations()[0].Detail, "core 0") {
		t.Fatalf("detail does not name the core: %s", c.Violations()[0].Detail)
	}
}

func TestCoreBudgetsFreshEpochRestoresHeadroom(t *testing.T) {
	s := newFakeServer("s0", 1)
	cfg := lifetime.BudgetConfig{Epoch: time.Hour, Fraction: 0.10}
	c := NewChecker()
	CoreBudgetsNeverOverdrawn(c, "rack-t", s, cfg, invStart, 2*time.Second)
	// Idle through epoch 1, then overclock 10 minutes in epoch 2: the
	// cumulative bound is 2 allowances = 12 min, so this is legal.
	now := invStart.Add(time.Hour)
	c.Check(now)
	s.freqs[0] = 3800
	for i := 0; i < 600; i++ {
		now = now.Add(time.Second)
		c.Check(now)
	}
	if c.Total() != 0 {
		t.Fatalf("legal carry-like spend flagged: %v", c.Err())
	}
}

func TestSessionsWithinGrant(t *testing.T) {
	s := newFakeServer("s0", 8)
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), 8, invStart)
	soa := core.NewSOA(core.DefaultSOAConfig(), s, budgets, 1000, invStart)
	d := soa.Request(invStart, core.Request{VM: "vm1", Cores: 2, TargetMHz: 3800, Priority: core.PriorityMetric})
	if !d.Granted {
		t.Fatalf("request rejected: %+v", d)
	}
	c := NewChecker()
	SessionsWithinGrant(c, "rack-t", s, func() *core.SOA { return soa })
	c.Check(invStart.Add(time.Second))
	if c.Total() != 0 {
		t.Fatalf("granted session flagged: %v", c.Err())
	}
	// Hardware running a core above the session's setting is a violation.
	s.freqs[d.Cores[0]] = 4000
	c.Check(invStart.Add(2 * time.Second))
	if c.Total() != 1 {
		t.Fatalf("over-frequency core not flagged (total %d)", c.Total())
	}
	// A nil sOA (crashed, not yet restarted) is skipped, not a violation.
	c2 := NewChecker()
	SessionsWithinGrant(c2, "rack-t", s, func() *core.SOA { return nil })
	c2.Check(invStart)
	if c2.Total() != 0 {
		t.Fatalf("nil sOA flagged: %v", c2.Err())
	}
}

func TestBudgetConservation(t *testing.T) {
	goa := core.NewGOA("rack-t", 1000)
	c := NewChecker()
	BudgetConservation(c, goa, 1e-6)
	// No profiles: nothing to conserve.
	c.Check(invStart)
	if c.Total() != 0 {
		t.Fatalf("empty gOA flagged: %v", c.Err())
	}
	for i, name := range []string{"s0", "s1", "s2"} {
		goa.SetProfile(name, core.ServerProfile{
			Power: timeseries.FlatWeek(200+50*float64(i), time.Hour),
			OC: &predict.OCTemplate{
				Requested: timeseries.FlatWeek(float64(4*i), time.Hour),
				Granted:   timeseries.FlatWeek(float64(2*i), time.Hour),
			},
			OCCoreCost: 5,
		})
	}
	c.Check(invStart.Add(time.Second))
	if c.Total() != 0 {
		t.Fatalf("conserving split flagged: %v", c.Err())
	}
	// Also under scarcity (regular demand alone above the limit).
	goa.SetLimit(300)
	c.Check(invStart.Add(2 * time.Second))
	if c.Total() != 0 {
		t.Fatalf("scarcity split flagged: %v", c.Err())
	}
}

func TestAdmissionWithinBudgetAuditsGrants(t *testing.T) {
	c := NewChecker()
	sink := AdmissionWithinBudget(c, "rack-1", 0)

	// An honest grant (total ≤ budget) and an honest rejection beyond the
	// budget: neither may fire.
	sink(core.AdmissionAudit{Server: "s1", VM: "vm1", PredictedWatts: 300,
		ActiveDeltaWatts: 50, RequestDeltaWatts: 40, BudgetWatts: 400, Granted: true})
	sink(core.AdmissionAudit{Server: "s1", VM: "vm2", PredictedWatts: 300,
		ActiveDeltaWatts: 50, RequestDeltaWatts: 100, BudgetWatts: 400, Granted: false})
	c.Check(invStart)
	if c.Total() != 0 {
		t.Fatalf("honest audits flagged: %v", c.Err())
	}

	// An over-grant must fire exactly once, naming the policy.
	sink(core.AdmissionAudit{Server: "s1", VM: "vm3", Policy: "over-grant",
		PredictedWatts: 300, ActiveDeltaWatts: 50, RequestDeltaWatts: 100,
		BudgetWatts: 400, Granted: true})
	c.Check(invStart.Add(time.Second))
	if c.Total() != 1 {
		t.Fatalf("violations = %d, want 1", c.Total())
	}
	v := c.Violations()[0]
	if v.Invariant != "admission-within-budget" || !strings.Contains(v.Detail, "over-grant") {
		t.Fatalf("violation = %+v", v)
	}

	// Audits drain at each Check: the same over-grant must not re-report.
	c.Check(invStart.Add(2 * time.Second))
	if c.Total() != 1 {
		t.Fatalf("drained audit re-reported: total = %d", c.Total())
	}
}

func TestAdmissionWithinBudgetLiveSOA(t *testing.T) {
	// End-to-end over a real sOA: the canary factory's over-granting
	// admission trips the invariant on the very first impossible grant,
	// while the default policy stays clean under the same demand.
	run := func(factory policy.Factory) *Checker {
		c := NewChecker()
		cfg := core.DefaultSOAConfig()
		cfg.Policies = factory
		cfg.OnAdmit = AdmissionWithinBudget(c, "rack-1", 0)
		srv := newFakeServer("s1", 8)
		srv.watts = 200
		budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), 8, invStart)
		soa := core.NewSOA(cfg, &ocDeltaServer{fakeServer: srv, delta: 30}, budgets, 100, invStart)
		soa.Request(invStart, core.Request{VM: "vm1", Cores: 4, TargetMHz: 4000, Priority: core.PriorityMetric})
		c.Check(invStart)
		return c
	}
	if c := run(policy.Canary()); c.Total() == 0 {
		t.Fatal("canary over-grant not detected — the checker is silently green")
	}
	if c := run(policy.Default()); c.Total() != 0 {
		t.Fatalf("default policy flagged: %v", c.Err())
	}
}

// ocDeltaServer gives the fake server a non-zero overclock power model so
// power admission actually has something to reject.
type ocDeltaServer struct {
	*fakeServer
	delta float64
}

func (s *ocDeltaServer) OCDeltaWatts(cores, mhz int, util float64) float64 {
	return float64(cores) * s.delta
}
