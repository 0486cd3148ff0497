package experiment

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/causal"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/machine"
	"smartoclock/internal/power"
	"smartoclock/internal/predict"
	"smartoclock/internal/store"
	"smartoclock/internal/timeseries"
)

// testRig assembles a two-server rig with a provenance recorder as its only
// observer and no transport.
func testRig(t *testing.T) (*rig[*cluster.Server], time.Time) {
	t.Helper()
	start := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	hw := machine.DefaultConfig()
	servers := []*rigServer[*cluster.Server]{
		newRigServer(cluster.NewServer("t-00", hw, 0), hw.OCCoreCost(), 4),
		newRigServer(cluster.NewServer("t-01", hw, 0), hw.OCCoreCost(), 4),
	}
	for _, s := range servers {
		setUtil(s, 0.8, 0.4)
	}
	rg := &rig[*cluster.Server]{
		goaID:    "goa",
		limit:    partialOCLimit(servers, 0.9),
		soaCfg:   rigSOAConfig(),
		bcfg:     rigBudgetConfig(time.Hour, 0.25),
		start:    start,
		servers:  servers,
		observer: newObserver(observeKnobs{provenance: true, seed: 1}),
	}
	rg.assemble(power.DefaultRackConfig("rack-test", rg.limit))
	return rg, start
}

// rigFingerprint captures everything rig.deliver may change.
type rigFingerprint struct {
	profiled   int
	budget0    float64
	budgetAt0  time.Time
	soaBudget0 float64
	soaBudget1 float64
	provenance int
}

func fingerprintRig(rg *rig[*cluster.Server], now time.Time) rigFingerprint {
	fp := rigFingerprint{
		budget0: rg.servers[0].budget, budgetAt0: rg.servers[0].budgetAt,
		provenance: len(rg.prov.Records()),
	}
	if rg.goa != nil {
		fp.profiled = len(rg.goa.Servers())
	}
	if s := rg.servers[0].soa; s != nil {
		fp.soaBudget0 = s.BudgetAt(now)
	}
	fp.soaBudget1 = rg.servers[1].soa.BudgetAt(now)
	return fp
}

// TestRigDeliver drives rig.deliver directly: every malformed, misaddressed
// or untimely message is dropped without a panic or a state change, and each
// of the three message types lands when well-formed. A malformed message is
// one whose type's typed body is missing: a raw JSON body, no body, or
// another type's body.
func TestRigDeliver(t *testing.T) {
	profileTo := func(to string, p agent.Profile) agent.Message {
		return agent.ProfileMessage("soa.profile", "test", to, p)
	}
	budgetTo := func(to string, watts float64) agent.Message {
		return agent.BudgetMessage("goa.budget", "test", to, agent.Budget{Watts: watts})
	}
	eventTo := func(to string, e agent.RackEvent) agent.Message {
		return agent.RackEventMessage("rack.event", "test", to, e)
	}
	raw := func(typ, to string, payload any) agent.Message {
		m, err := agent.NewMessage(typ, "test", to, payload)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	profile := agent.Profile{Server: "t-00", MedianWatts: 200, Requested: 4, Granted: 2, CoreCost: 5}
	warning := agent.RackEvent{Kind: int64(power.EventWarning), Power: 900, Limit: 1000}
	// retyped moves a well-formed message under another rig type, so it
	// carries the wrong typed body for its type.
	retyped := func(m agent.Message, typ string) agent.Message {
		m.Type = typ
		return m
	}

	ignored := []struct {
		name  string
		m     agent.Message
		crash bool // crash server 0's sOA first
	}{
		{"malformed profile", raw("soa.profile", "goa", profile), false},
		{"empty profile payload", agent.Message{Type: "soa.profile", From: "test", To: "goa"}, false},
		{"profile for another gOA", profileTo("goa/elsewhere", profile), false},
		{"malformed budget", retyped(profileTo("soa/t-00", profile), "goa.budget"), false},
		{"zero-watt budget", budgetTo("soa/t-00", 0), false},
		{"negative-watt budget", budgetTo("soa/t-00", -5), false},
		{"budget for unknown sOA", budgetTo("soa/nobody", 300), false},
		{"budget for crashed sOA", budgetTo("soa/t-00", 300), true},
		{"malformed rack event", retyped(budgetTo("soa/t-00", 300), "rack.event"), false},
		{"rack event for unknown sOA", eventTo("soa/nobody", warning), false},
		{"rack event for crashed sOA", eventTo("soa/t-00", warning), true},
		{"unknown message type", retyped(budgetTo("soa/t-00", 300), "goa.gossip"), false},
	}
	for _, tc := range ignored {
		t.Run("ignored/"+tc.name, func(t *testing.T) {
			rg, start := testRig(t)
			now := start.Add(time.Minute)
			if tc.crash {
				rg.servers[0].crash()
			}
			before := fingerprintRig(rg, now)
			rg.deliver(now, tc.m)
			if after := fingerprintRig(rg, now); after != before {
				t.Fatalf("state changed: %+v -> %+v", before, after)
			}
		})
	}

	t.Run("applied/profile", func(t *testing.T) {
		rg, start := testRig(t)
		rg.deliver(start, profileTo("goa", profile))
		if got := rg.goa.Servers(); len(got) != 1 || got[0] != "t-00" {
			t.Fatalf("profiled servers = %v", got)
		}
		if b := rg.goa.BudgetsAt(start)["t-00"]; b <= 0 {
			t.Fatalf("gOA budget for the profiled server = %v", b)
		}
	})
	t.Run("applied/budget", func(t *testing.T) {
		rg, start := testRig(t)
		now := start.Add(time.Minute)
		rg.deliver(now, budgetTo("soa/t-01", 321))
		s := rg.servers[1]
		if s.budget != 321 || !s.budgetAt.Equal(now) || s.soa.BudgetAt(now) != 321 {
			t.Fatalf("budget %v at %v, sOA enforces %v", s.budget, s.budgetAt, s.soa.BudgetAt(now))
		}
		if other := rg.servers[0]; !other.budgetAt.IsZero() {
			t.Fatal("budget leaked to another server")
		}
		// A reboot forgets the push.
		rg.boot(s, now)
		if !s.budgetAt.IsZero() || s.budget != 0 {
			t.Fatal("reboot kept the previous push")
		}
	})
	t.Run("applied/rack event", func(t *testing.T) {
		rg, start := testRig(t)
		now := start.Add(time.Minute)
		m := eventTo("soa/t-00", agent.RackEvent{Kind: int64(power.EventCap), Power: 1100, Limit: 1000})
		m.Span = 42
		rg.deliver(now, m)
		// The sOA's cap reset is on record, chained to the message's span.
		recs := rg.prov.Records()
		if len(recs) != 1 || recs[0].Site != "soa.capreset" || recs[0].Subject != "t-00" || recs[0].Parent != 42 {
			t.Fatalf("provenance after a cap notification = %+v", recs)
		}
	})
}

// TestRigDropsNonFiniteBodies: NaN and ±Inf never become a control
// message. A profile or budget with a non-finite float yields no message at
// its sender, and deliver of a non-finite typed body changes nothing.
func TestRigDropsNonFiniteBodies(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			rg, start := testRig(t)
			now := start.Add(time.Minute)

			rg.servers[0].coreCost = bad
			if msg, ok := rg.profileReport(rg.servers[0], now); ok {
				t.Errorf("profile with core cost %v sent: %+v", bad, msg)
			}
			if got := rg.profileReports(now); len(got) != 1 || got[0].Profile.Server != "t-01" {
				t.Errorf("profile batch = %+v, want only t-01's", got)
			}

			// A gOA with a non-finite limit splits non-finite budgets.
			rg.goa = core.NewGOA("rack-test", bad)
			for _, s := range rg.servers {
				rg.goa.SetProfile(s.srv.Name(), flatProfile(agent.Profile{Server: s.srv.Name(), MedianWatts: 300, CoreCost: 5}))
			}
			for name, b := range rg.goa.BudgetsAt(now) {
				if !math.IsNaN(b) && !math.IsInf(b, 0) {
					t.Fatalf("gOA with limit %v gave %s a finite budget %v; the push check shows nothing", bad, name, b)
				}
			}
			if got := rg.budgetPushes(now); len(got) != 0 {
				t.Errorf("non-finite budgets pushed: %+v", got)
			}

			rg, start = testRig(t)
			now = start.Add(time.Minute)
			for _, m := range []agent.Message{
				agent.ProfileMessage("soa.profile", "test", "goa", agent.Profile{Server: "t-00", MedianWatts: bad}),
				agent.ProfileMessage("soa.profile", "test", "goa", agent.Profile{Server: "t-00", MedianWatts: 200, Granted: bad}),
				agent.BudgetMessage("goa.budget", "test", "soa/t-00", agent.Budget{Watts: bad}),
				agent.RackEventMessage("rack.event", "test", "soa/t-00", agent.RackEvent{Kind: int64(power.EventCap), Power: bad, Limit: 1000}),
				agent.RackEventMessage("rack.event", "test", "soa/t-00", agent.RackEvent{Kind: int64(power.EventCap), Power: 1100, Limit: bad}),
			} {
				before := fingerprintRig(rg, now)
				rg.deliver(now, m)
				if after := fingerprintRig(rg, now); after != before {
					t.Errorf("deliver %s with %v: state changed %+v -> %+v", m.Type, bad, before, after)
				}
			}
		})
	}
}

// TestRigServe drives the WI step: serve keeps the slot's session at the
// asked core count, asking once per change, and names the session after the
// rig's.
func TestRigServe(t *testing.T) {
	rg, start := testRig(t)
	rg.soaCfg.Naive = true // grant every ask: this tests serve, not admission
	s := rg.servers[0]
	rg.boot(s, start)
	cores := func(vm string) int {
		if sess, ok := s.soa.Sessions()[vm]; ok {
			return len(sess.Cores)
		}
		return 0
	}
	for i, step := range []struct{ ask, cores, requests int }{
		{4, 4, 1}, {4, 4, 1}, {2, 2, 2}, {0, 0, 2}, {0, 0, 2}, {3, 3, 3},
	} {
		rg.serve(s, start.Add(time.Duration(i)*time.Minute), step.ask)
		if got := cores("vm"); got != step.cores || rg.requests != step.requests {
			t.Fatalf("step %d: serve(%d) left %d cores after %d requests, want %d after %d",
				i, step.ask, got, rg.requests, step.cores, step.requests)
		}
	}

	rg.session = "oc"
	rg.serve(s, start.Add(time.Hour), 2)
	if cores("oc") != 2 {
		t.Fatalf("session %q has %d cores, want 2", rg.session, cores("oc"))
	}
	recs := rg.prov.Records()
	var last causal.Record
	for _, r := range recs {
		if r.Site == "wi.request" {
			last = r
		}
	}
	if last.Subject != "t-00/oc" {
		t.Fatalf("last WI request subject %q, want t-00/oc", last.Subject)
	}
}

// TestRigRestore: a restart without a checkpoint boots fresh agents over the
// durable ledgers; with one, each sOA it names resumes its sessions, and a
// snapshot from other hardware fails naming the server.
func TestRigRestore(t *testing.T) {
	rg, start := testRig(t)
	rg.soaCfg.Naive = true
	s0, s1 := rg.servers[0], rg.servers[1]
	rg.boot(s0, start)
	rg.serve(s0, start, 4)
	cp := &store.Checkpoint{GOA: rg.goa.Snapshot(), SOAs: map[string]*core.SOAState{"t-00": s0.soa.Snapshot()}}
	ledger, old := s0.ledger, s0.soa

	now := start.Add(time.Minute)
	if err := rg.restore(now, nil); err != nil {
		t.Fatal(err)
	}
	if s0.soa == old || len(s0.soa.Sessions()) != 0 || s0.ledger != ledger {
		t.Fatal("cold restart kept the old sOA or its sessions, or replaced the ledger")
	}
	if err := rg.restore(now, cp); err != nil {
		t.Fatal(err)
	}
	if got := s0.soa.Sessions()["vm"]; got == nil || len(got.Cores) != 4 || len(s1.soa.Sessions()) != 0 {
		t.Fatalf("warm restart sessions: t-00 %v, t-01 %v", s0.soa.Sessions(), s1.soa.Sessions())
	}

	cp.SOAs["t-00"].Budgets.Cores = cp.SOAs["t-00"].Budgets.Cores[:1]
	if err := rg.restore(now, cp); err == nil || !strings.Contains(err.Error(), "t-00") {
		t.Fatalf("restore from a one-core ledger: err = %v, want one naming t-00", err)
	}
}

// TestFlatProfileAllocs guards that one profile report costs the gOA one
// allocation: the three flat weeks and the overclock template share a block.
func TestFlatProfileAllocs(t *testing.T) {
	p := agent.Profile{Server: "t-00", MedianWatts: 412.5, Requested: 16, Granted: 8, CoreCost: 3.1}
	var sink core.ServerProfile
	if allocs := testing.AllocsPerRun(100, func() { sink = flatProfile(p) }); allocs > 1 {
		t.Fatalf("flatProfile allocates %.1f objects, want <= 1", allocs)
	}
	_ = sink
}

// TestFlatProfileMatchesFlatWeek holds flatProfile to the FlatWeek templates
// it replaced: the same JSON, so the same checkpoint bytes, and the same
// value at every hour of a week.
func TestFlatProfileMatchesFlatWeek(t *testing.T) {
	for _, p := range []agent.Profile{
		{Server: "t-00", MedianWatts: 412.5, Requested: 16, Granted: 8, CoreCost: 3.1},
		{Server: "t-01", MedianWatts: 0.1 + 0.2, Requested: 0, Granted: 0, CoreCost: 0},
	} {
		got := flatProfile(p)
		want := core.ServerProfile{
			Power: timeseries.FlatWeek(p.MedianWatts, time.Hour),
			OC: &predict.OCTemplate{
				Requested: timeseries.FlatWeek(p.Requested, time.Hour),
				Granted:   timeseries.FlatWeek(p.Granted, time.Hour),
			},
			OCCoreCost: p.CoreCost,
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(gj) != string(wj) {
			t.Fatalf("%s: flat profile JSON\n%s\nwant\n%s", p.Server, gj, wj)
		}
		start := time.Date(2023, 4, 10, 0, 30, 0, 0, time.UTC)
		for h := 0; h < 7*24; h++ {
			ts := start.Add(time.Duration(h) * time.Hour)
			if got.Power.At(ts) != want.Power.At(ts) ||
				got.OC.RequestedAt(ts) != want.OC.RequestedAt(ts) || got.OC.GrantedAt(ts) != want.OC.GrantedAt(ts) {
				t.Fatalf("%s: flat profile differs from FlatWeek at %v", p.Server, ts)
			}
		}
	}
}
