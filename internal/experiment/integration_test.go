package experiment

// Integration tests wiring the real components together end to end —
// machine → cluster server → sOA → gOA → rack manager — without the
// experiment harness in between.

import (
	"testing"
	"time"

	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/power"
	"smartoclock/internal/timeseries"
)

var integStart = time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)

// buildPair builds two servers with sOAs on one rack.
func buildPair(t *testing.T, limitWatts float64) (*power.Rack, []*cluster.Server, []*core.SOA) {
	t.Helper()
	hw := machine.DefaultConfig()
	hw.Cores = 16
	var servers []*cluster.Server
	var soas []*core.SOA
	var pservers []power.Server
	for _, name := range []string{"s0", "s1"} {
		s := cluster.NewServer(name, hw, 0)
		for c := 0; c < s.NumCores(); c++ {
			s.SetCoreUtil(c, 0.6)
		}
		budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), hw.Cores, integStart)
		cfg := core.DefaultSOAConfig()
		cfg.ExploreConfirm = time.Second
		cfg.InitialBackoff = 2 * time.Second
		soa := core.NewSOA(cfg, s, budgets, limitWatts/2, integStart)
		servers = append(servers, s)
		soas = append(soas, soa)
		pservers = append(pservers, s)
	}
	rack := power.NewRack(power.DefaultRackConfig("integ", limitWatts), pservers...)
	return rack, servers, soas
}

// TestIntegrationGrantEnforceCapRecover drives the full cycle: grant →
// enforcement → rack warning → capping → budget revert → recovery.
func TestIntegrationGrantEnforceCapRecover(t *testing.T) {
	rack, servers, soas := buildPair(t, 1200)
	now := integStart
	rack.Subscribe(func(ev power.Event) {
		for _, a := range soas {
			a.OnRackEvent(now, ev)
		}
	})

	// Both servers overclock all cores.
	for i, a := range soas {
		d := a.Request(now, core.Request{
			VM: "vm", Cores: servers[i].NumCores(), TargetMHz: 4000, Priority: core.PriorityMetric,
		})
		if !d.Granted {
			t.Fatalf("server %d grant failed: %+v", i, d)
		}
	}
	if servers[0].Machine().OverclockedCores() == 0 {
		t.Fatal("no cores overclocked after grant")
	}

	// Load rises beyond what the rack can absorb: the rack manager first
	// warns (sOAs shed), and if pressure persists it caps.
	for _, s := range servers {
		for c := 0; c < s.NumCores(); c++ {
			s.SetCoreUtil(c, 1.0)
		}
	}
	for i := 0; i < 30; i++ {
		now = now.Add(time.Second)
		for _, a := range soas {
			a.Tick(now)
		}
		rack.Tick(now)
		for _, s := range servers {
			s.Advance(time.Second)
		}
	}
	if rack.Power() >= rack.Config().LimitWatts {
		t.Fatalf("rack still over limit: %.0f / %.0f", rack.Power(), rack.Config().LimitWatts)
	}

	// Load subsides: caps restore, the feedback loop climbs back toward
	// the overclock targets within the budgets.
	for _, s := range servers {
		for c := 0; c < s.NumCores(); c++ {
			s.SetCoreUtil(c, 0.3)
		}
	}
	for i := 0; i < 60; i++ {
		now = now.Add(time.Second)
		for _, a := range soas {
			a.Tick(now)
		}
		rack.Tick(now)
	}
	if rack.IsCapped() {
		t.Fatal("caps not released after load subsided")
	}
	oc := servers[0].Machine().OverclockedCores() + servers[1].Machine().OverclockedCores()
	if oc == 0 {
		t.Fatal("overclocking did not recover after load subsided")
	}
}

// TestIntegrationHeterogeneousBudgetFlow exercises the sOA→gOA profile
// exchange and budget assignment loop on live components.
func TestIntegrationHeterogeneousBudgetFlow(t *testing.T) {
	_, servers, soas := buildPair(t, 1200)
	now := integStart
	goa := core.NewGOA("integ", 1200)

	// Server 0 runs hotter and demands overclocking; server 1 is idleish.
	for c := 0; c < servers[0].NumCores(); c++ {
		servers[0].SetCoreUtil(c, 0.8)
	}
	for c := 0; c < servers[1].NumCores(); c++ {
		servers[1].SetCoreUtil(c, 0.2)
	}
	soas[0].Request(now, core.Request{VM: "hot", Cores: 8, TargetMHz: 4000, Priority: core.PriorityMetric})

	// Run one profile period so the sOAs record slots, then exchange.
	for i := 0; i < 6; i++ {
		now = now.Add(time.Minute)
		for _, a := range soas {
			a.Tick(now)
		}
	}
	// Each report takes the rigs' own path: the sOA's recent window as a
	// profile message, expanded to the flat templates the gOA splits.
	for i, a := range soas {
		p := recentProfile(a, servers[i].Name(), servers[i].Machine().Config().OCCoreCost())
		goa.SetProfile(servers[i].Name(), flatProfile(p))
	}
	at := integStart.Add(2 * time.Minute)
	budgets := goa.BudgetsAt(at)
	if budgets["s0"] <= budgets["s1"] {
		t.Fatalf("demanding server must get the larger budget: %v", budgets)
	}
	total := budgets["s0"] + budgets["s1"]
	if total > 1200+1e-6 {
		t.Fatalf("budgets exceed the rack limit: %v", total)
	}
	// Assign and verify the sOAs honor the new budgets.
	tpls := goa.BudgetTemplates(5 * time.Minute)
	for i, a := range soas {
		a.SetAssignedBudget(tpls[servers[i].Name()])
		if a.BudgetAt(at) <= 0 {
			t.Fatalf("server %d budget not applied", i)
		}
	}
}

// TestIntegrationScheduledReservationLifecycle admits a schedule-based
// request ahead of its window, consumes the reservation during it and
// verifies the budget accounting afterwards.
func TestIntegrationScheduledReservationLifecycle(t *testing.T) {
	_, servers, soas := buildPair(t, 4000)
	a, s := soas[0], servers[0]
	now := integStart

	d := a.Request(now, core.Request{
		VM: "batch", Cores: 4, TargetMHz: 4000,
		Priority: core.PriorityScheduled, Duration: 10 * time.Minute,
	})
	if !d.Granted {
		t.Fatalf("scheduled grant failed: %+v", d)
	}
	// During the window the cores run overclocked and draw down the
	// reservation.
	for i := 0; i < 10; i++ {
		now = now.Add(time.Minute)
		a.Tick(now)
		s.Advance(time.Minute)
	}
	for _, c := range d.Cores {
		if s.Machine().OCTime(c) == 0 {
			t.Fatalf("core %d accumulated no overclocked time-in-state", c)
		}
	}
	a.Stop(now, "batch")
	if s.Machine().OverclockedCores() != 0 {
		t.Fatal("cores did not return to turbo")
	}
}

// TestIntegrationWearGateWithClusterWear closes the loop between the
// cluster's per-core wear trackers and the sOA's online wear gate.
func TestIntegrationWearGateWithClusterWear(t *testing.T) {
	hw := machine.DefaultConfig()
	hw.Cores = 8
	s := cluster.NewServer("wear", hw, 0)
	for c := 0; c < s.NumCores(); c++ {
		s.SetCoreUtil(c, 1.0)
	}
	budgets := lifetime.NewCoreBudgets(lifetime.BudgetConfig{
		Epoch: 24 * time.Hour, Fraction: 0.9, // time budget never binds
	}, hw.Cores, integStart)
	gate := lifetime.OnlineWearGate{Margin: 0.05, MinObservation: 30 * time.Minute}
	cfg := core.DefaultSOAConfig()
	cfg.WearGate = func(c int) bool { return gate.Allow(s.Machine().Aged(c), s.Machine().Elapsed()) }
	a := core.NewSOA(cfg, s, budgets, 10000, integStart)

	if d := a.Request(integStart, core.Request{VM: "vm", Cores: 8, TargetMHz: 4000, Priority: core.PriorityMetric}); !d.Granted {
		t.Fatalf("initial grant failed: %+v", d)
	}
	// Run fully overclocked at full load: wear accumulates ~5.5x faster
	// than the envelope, so the gate must close within the hour.
	now := integStart
	for i := 0; i < 90 && len(a.Sessions()) > 0; i++ {
		now = now.Add(time.Minute)
		s.Advance(time.Minute)
		a.Tick(now)
	}
	if len(a.Sessions()) != 0 {
		t.Fatal("wear gate never stopped the session")
	}
	// And new requests are refused while worn.
	if d := a.Request(now, core.Request{VM: "vm2", Cores: 2, TargetMHz: 4000, Priority: core.PriorityMetric}); d.Granted {
		t.Fatal("worn server granted a new overclock")
	}
}

// TestIntegrationTemplateFromPredictor checks the ablation helper: a
// materialized predictor template must agree with direct predictions.
func TestIntegrationTemplateFromPredictor(t *testing.T) {
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	train := timeseries.New(start, time.Hour)
	for d := 0; d < 7; d++ {
		for h := 0; h < 24; h++ {
			train.Append(float64(100 + 10*h))
		}
	}
	for _, strategy := range []string{"dailymed", "dailymax", "flatmed", "flatmax", "weekly"} {
		p, err := predictorFor(strategy)
		if err != nil {
			t.Fatal(err)
		}
		tpl := templateFromPredictor(p, train)
		ref, _ := predictorFor(strategy)
		ref.Fit(train)
		at := start.Add(8*24*time.Hour + 9*time.Hour) // Tuesday 9:00 next week
		want := ref.Predict(at)
		if got := tpl.At(at); got != want {
			t.Fatalf("%s: template %v != predictor %v", strategy, got, want)
		}
	}
	if p, err := predictorFor("bogus"); err == nil {
		t.Fatalf("unknown strategy returned %s, want an error", p.Name())
	}
}
