package experiment

import (
	"encoding/json"
	"testing"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/causal"
	"smartoclock/internal/cluster"
	"smartoclock/internal/machine"
	"smartoclock/internal/power"
)

// testRig assembles a two-server rig with a provenance recorder as its only
// observer and no transport.
func testRig(t *testing.T) (*rig, time.Time) {
	t.Helper()
	start := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	servers := []*rigServer{
		newRigServer(cluster.NewServer("t-00", machine.DefaultConfig(), 0), 4),
		newRigServer(cluster.NewServer("t-01", machine.DefaultConfig(), 0), 4),
	}
	for _, s := range servers {
		s.setUtil(0.8, 0.4)
	}
	rg := &rig{
		goaID:   "goa",
		limit:   partialOCLimit(servers, 0.9),
		soaCfg:  rigSOAConfig(),
		bcfg:    rigBudgetConfig(time.Hour, 0.25),
		start:   start,
		servers: servers,
		prov:    causal.NewRecorder(1, 0),
	}
	rg.assemble("rack-test")
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
	snap := func(rg *rig, now time.Time) fingerprint {
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
