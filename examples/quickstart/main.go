// Quickstart: build one simulated server, attach a Server Overclocking
// Agent, request overclocking for a VM and watch admission control, the
// feedback loop and budget accounting at work.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
)

func main() {
	log.SetFlags(0)
	start := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)

	// A 64-core server with 3.3 GHz turbo and 4.0 GHz maximum overclock.
	hw := machine.DefaultConfig()
	server := cluster.NewServer("demo-server", hw, 0)

	// A VM occupying 8 cores at 70% utilization.
	vm, err := cluster.PlaceVM(server, "web-frontend", 8, 0)
	if err != nil {
		log.Fatal(err)
	}
	vm.SetUtil(0.7)

	// Per-core overclocking time budgets: 10% of each week, the paper's
	// running example for lifetime compliance.
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), hw.Cores, start)

	// The Server Overclocking Agent with a 600 W power budget (e.g. the
	// even share of a rack limit).
	soa := core.NewSOA(core.DefaultSOAConfig(), server, budgets, 600, start)
	soa.OnReject = func(vmName string, reason core.RejectReason) {
		fmt.Printf("  [WI] overclocking rejected for %s: %s\n", vmName, reason)
	}

	fmt.Printf("Server power before overclocking: %.0f W (budget 600 W)\n", server.Power())

	// The workload's latency approaches its SLO: the Workload Intelligence
	// layer requests overclocking for the VM's own cores.
	decision := soa.Request(start, core.Request{
		VM:             "web-frontend",
		Cores:          len(vm.Cores),
		TargetMHz:      hw.MaxOCMHz,
		Priority:       core.PriorityMetric,
		PreferredCores: vm.Cores,
	})
	if !decision.Granted {
		log.Fatalf("request rejected: %s", decision.Reason)
	}
	fmt.Printf("Granted: VM overclocked on cores %v\n", decision.Cores)
	fmt.Printf("VM frequency: %d MHz, server power: %.0f W\n", vm.Freq(), server.Power())

	// Run the control loop for a simulated minute: the sOA enforces its
	// budget, charges the per-core overclock time and tracks wear.
	now := start
	for i := 0; i < 60; i++ {
		now = now.Add(time.Second)
		soa.Tick(now)
		server.Advance(time.Second)
	}
	fmt.Printf("After 1 min: overclocked cores %d, budget left on core %d: %v\n",
		soa.ActiveOCCores(), vm.Cores[0], budgets.Core(vm.Cores[0]).Remaining().Round(time.Minute))
	fmt.Printf("Aging on overclocked core 0: %.1fs of reference wear in 60s of wall time\n",
		server.Machine().Aged(0).Seconds())

	// Load subsides: stop the session; cores return to turbo.
	soa.Stop(now, "web-frontend")
	fmt.Printf("Stopped: VM frequency back to %d MHz, power %.0f W\n", vm.Freq(), server.Power())
}
