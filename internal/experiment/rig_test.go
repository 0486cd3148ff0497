package experiment

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/causal"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/machine"
	"smartoclock/internal/power"
	"smartoclock/internal/store"
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

// TestRigDeliver drives rig.deliver directly: every malformed, misaddressed
// or untimely message is dropped without a panic or a state change, and each
// of the three message types lands when well-formed.
func TestRigDeliver(t *testing.T) {
	msg := func(typ, to string, payload any) agent.Message {
		m, err := agent.NewMessage(typ, "test", to, payload)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	raw := func(typ, to, payload string) agent.Message {
		return agent.Message{Type: typ, From: "test", To: to, Payload: json.RawMessage(payload)}
	}
	profile := profileMsg{Server: "t-00", MedianWatts: 200, Requested: 4, Granted: 2, CoreCost: 5}
	warning := rackEventMsg{Kind: int(power.EventWarning), Power: 900, Limit: 1000}

	// fingerprint captures everything deliver may change.
	type fingerprint struct {
		profiled   int
		budget0    float64
		budgetAt0  time.Time
		soaBudget0 float64
		soaBudget1 float64
		provenance int
	}
	snap := func(rg *rig[*cluster.Server], now time.Time) fingerprint {
		fp := fingerprint{
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

	ignored := []struct {
		name  string
		m     agent.Message
		crash bool // crash server 0's sOA first
	}{
		{"malformed profile", raw("soa.profile", "goa", `{"server":`), false},
		{"empty profile payload", raw("soa.profile", "goa", ``), false},
		{"profile for another gOA", msg("soa.profile", "goa/elsewhere", profile), false},
		{"malformed budget", raw("goa.budget", "soa/t-00", `[1,2]`), false},
		{"zero-watt budget", msg("goa.budget", "soa/t-00", budgetMsg{Watts: 0}), false},
		{"negative-watt budget", msg("goa.budget", "soa/t-00", budgetMsg{Watts: -5}), false},
		{"budget for unknown sOA", msg("goa.budget", "soa/nobody", budgetMsg{Watts: 300}), false},
		{"budget for crashed sOA", msg("goa.budget", "soa/t-00", budgetMsg{Watts: 300}), true},
		{"malformed rack event", raw("rack.event", "soa/t-00", `"warning"`), false},
		{"rack event for unknown sOA", msg("rack.event", "soa/nobody", warning), false},
		{"rack event for crashed sOA", msg("rack.event", "soa/t-00", warning), true},
		{"unknown message type", msg("goa.gossip", "soa/t-00", budgetMsg{Watts: 300}), false},
	}
	for _, tc := range ignored {
		t.Run("ignored/"+tc.name, func(t *testing.T) {
			rg, start := testRig(t)
			now := start.Add(time.Minute)
			if tc.crash {
				rg.servers[0].crash()
			}
			before := snap(rg, now)
			rg.deliver(now, tc.m)
			if after := snap(rg, now); after != before {
				t.Fatalf("state changed: %+v -> %+v", before, after)
			}
		})
	}

	t.Run("applied/profile", func(t *testing.T) {
		rg, start := testRig(t)
		rg.deliver(start, msg("soa.profile", "goa", profile))
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
		rg.deliver(now, msg("goa.budget", "soa/t-01", budgetMsg{Watts: 321}))
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
		m := msg("rack.event", "soa/t-00", rackEventMsg{Kind: int(power.EventCap), Power: 1100, Limit: 1000})
		m.Span = 42
		rg.deliver(now, m)
		// The sOA's cap reset is on record, chained to the message's span.
		recs := rg.prov.Records()
		if len(recs) != 1 || recs[0].Site != "soa.capreset" || recs[0].Subject != "t-00" || recs[0].Parent != 42 {
			t.Fatalf("provenance after a cap notification = %+v", recs)
		}
	})
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
