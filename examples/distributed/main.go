// Distributed: the Global Overclocking Agent and two Server Overclocking
// Agents running as separate TCP endpoints exchanging real JSON messages —
// profile reports up, heterogeneous budget assignments down, overclocking
// requests and decisions across the wire.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

// profileReport is the sOA → gOA message body.
type profileReport struct {
	Server     string  `json:"server"`
	PowerWatts float64 `json:"power_watts"`
	OCCores    float64 `json:"oc_cores"`
	CoreCost   float64 `json:"core_cost"`
}

// budgetAssignment is the gOA → sOA message body.
type budgetAssignment struct {
	Server string  `json:"server"`
	Watts  float64 `json:"watts"`
}

// ocRequest and ocDecision cross the wire between a workload's WI agent
// and an sOA node.
type ocRequest struct {
	VM    string `json:"vm"`
	Cores int    `json:"cores"`
	// ReplyAddr tells the sOA node where to dial the decision back to.
	ReplyAddr string `json:"reply_addr"`
}

type ocDecision struct {
	VM      string `json:"vm"`
	Granted bool   `json:"granted"`
	Reason  string `json:"reason,omitempty"`
}

// soaNode hosts one server + sOA behind a TCP endpoint.
type soaNode struct {
	name   string
	node   *agent.TCPNode
	mu     sync.Mutex
	server *cluster.Server
	soa    *core.SOA
	clock  func() time.Time
	// applied receives one signal per budget assignment, after it is
	// applied and printed.
	applied chan struct{}
}

func startSOANode(name string, util float64, clock func() time.Time) *soaNode {
	hw := machine.DefaultConfig()
	server := cluster.NewServer(name, hw, 0)
	for c := 0; c < hw.Cores; c++ {
		server.SetCoreUtil(c, util)
	}
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), hw.Cores, clock())
	soa := core.NewSOA(core.DefaultSOAConfig(), server, budgets, 500, clock())

	tcp, err := agent.NewTCPNode(name, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	n := &soaNode{name: name, node: tcp, server: server, soa: soa, clock: clock, applied: make(chan struct{}, 1)}

	tcp.Register(name, func(m agent.Message) {
		n.mu.Lock()
		defer n.mu.Unlock()
		switch m.Type {
		case "goa.budget":
			b, err := agent.Decode[budgetAssignment](m)
			if err != nil {
				return
			}
			n.soa.SetStaticBudget(b.Watts, true)
			fmt.Printf("  [%s] received budget assignment: %.0f W\n", name, b.Watts)
			n.applied <- struct{}{}
		case "oc.request":
			req, err := agent.Decode[ocRequest](m)
			if err != nil {
				return
			}
			n.node.AddPeer(m.From, req.ReplyAddr)
			d := n.soa.Request(n.clock(), core.Request{
				VM: req.VM, Cores: req.Cores,
				TargetMHz: n.server.MaxOCMHz(), Priority: core.PriorityMetric,
			})
			resp, _ := agent.NewMessage("oc.decision", name, m.From,
				ocDecision{VM: req.VM, Granted: d.Granted, Reason: string(d.Reason)})
			_ = n.node.Send(resp)
		}
	})
	return n
}

func (n *soaNode) report(goaAddr string) {
	n.mu.Lock()
	body := profileReport{
		Server:     n.name,
		PowerWatts: n.server.Power(),
		OCCores:    float64(n.soa.ActiveOCCores()),
		CoreCost:   n.server.Machine().Config().OCCoreCost(),
	}
	n.mu.Unlock()
	n.node.AddPeer("goa", goaAddr)
	msg, _ := agent.NewMessage("soa.profile", n.name, "goa", body)
	if err := n.node.Send(msg); err != nil {
		log.Printf("%s: report failed: %v", n.name, err)
	}
}

// await waits for one signal on ch, exiting if none arrives within 5 s.
func await(ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		log.Fatalf("timed out waiting for %s", what)
	}
}

func main() {
	log.SetFlags(0)
	simNow := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return simNow }

	// The gOA endpoint.
	goaNode, err := agent.NewTCPNode("goa-host", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer goaNode.Close()
	goa := core.NewGOA("rack-1", 1300)
	var goaMu sync.Mutex
	profiles := make(chan struct{}, 1)
	goaNode.Register("goa", func(m agent.Message) {
		if m.Type != "soa.profile" {
			return
		}
		p, err := agent.Decode[profileReport](m)
		if err != nil {
			return
		}
		goaMu.Lock()
		// Demand skew: server-y declared twice the overclock need.
		requested := 5.0
		if p.Server == "server-y" {
			requested = 10
		}
		goa.SetProfile(p.Server, core.ServerProfile{
			Power: timeseries.FlatWeek(p.PowerWatts, time.Hour),
			OC: &predict.OCTemplate{
				Requested: timeseries.FlatWeek(requested, time.Hour),
				Granted:   timeseries.FlatWeek(p.OCCores, time.Hour),
			},
			OCCoreCost: p.CoreCost,
		})
		goaMu.Unlock()
		fmt.Printf("[gOA] profile from %s: %.0f W\n", p.Server, p.PowerWatts)
		profiles <- struct{}{}
	})

	// Two sOA endpoints.
	x := startSOANode("server-x", 0.55, clock)
	defer x.node.Close()
	y := startSOANode("server-y", 0.40, clock)
	defer y.node.Close()

	// 1. sOAs report their profiles to the gOA over TCP. Each report waits
	// for the gOA to handle the previous one, so the output order is fixed.
	for _, n := range []*soaNode{x, y} {
		n.report(goaNode.Addr())
		await(profiles, n.name+"'s profile")
	}

	// 2. The gOA computes heterogeneous budgets and pushes them back.
	goaMu.Lock()
	budgets := goa.BudgetsAt(simNow)
	goaMu.Unlock()
	for _, n := range []*soaNode{x, y} {
		goaNode.AddPeer(n.name, n.node.Addr())
		msg, _ := agent.NewMessage("goa.budget", "goa", n.name,
			budgetAssignment{Server: n.name, Watts: budgets[n.name]})
		if err := goaNode.Send(msg); err != nil {
			log.Fatal(err)
		}
		await(n.applied, n.name+"'s budget")
	}

	// 3. A workload client asks server-y to overclock 10 cores, over TCP.
	client, err := agent.NewTCPNode("wi-client", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	decisions := make(chan ocDecision, 1)
	client.Register("wi", func(m agent.Message) {
		if m.Type != "oc.decision" {
			return
		}
		if d, err := agent.Decode[ocDecision](m); err == nil {
			decisions <- d
		}
	})
	client.AddPeer("server-y", y.node.Addr())
	req, _ := agent.NewMessage("oc.request", "wi", "server-y",
		ocRequest{VM: "conf-42", Cores: 10, ReplyAddr: client.Addr()})
	if err := client.Send(req); err != nil {
		log.Fatal(err)
	}
	select {
	case d := <-decisions:
		fmt.Printf("[WI] overclock decision for %s: granted=%v %s\n", d.VM, d.Granted, d.Reason)
	case <-time.After(5 * time.Second):
		log.Fatal("timed out waiting for a decision")
	}
	y.mu.Lock()
	fmt.Printf("[server-y] overclocked cores now: %d, draw %.0f W\n",
		y.soa.ActiveOCCores(), y.server.Power())
	y.mu.Unlock()
}
