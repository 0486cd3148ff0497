// Microservices: a latency-critical SocialNet-style deployment driven by
// bursty load, managed end to end by SmartOClock — metric-triggered
// overclocking with scale-out as the fallback when overclocking is
// rejected.
//
//	go run ./examples/microservices
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/workload"
)

func main() {
	log.SetFlags(0)
	start := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))
	hw := machine.DefaultConfig()

	server := cluster.NewServer("sn-0", hw, 0)
	svc, _ := workload.FindService("ComposePost")
	vm, err := cluster.PlaceVM(server, "compose-0", 4, 0)
	if err != nil {
		log.Fatal(err)
	}
	inst := workload.NewInstance(svc)

	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), hw.Cores, start)
	soa := core.NewSOA(core.DefaultSOAConfig(), server, budgets, 700, start)

	// The Global Workload Intelligence agent: overclock at 80% of the SLO,
	// release at 50%, scale out if the tail stays above 105%. A Local WI
	// agent inside the VM aggregates per-tick latencies over 5-second
	// windows and reports them upstream, like a conventional autoscaling
	// sidecar.
	mp := core.DefaultMetricPolicy()
	wi := core.NewGlobalWI(svc.SLOms(), &mp, nil, core.DefaultScaleOutConfig())
	local := core.NewLocalWI("compose-0", 5*time.Second, wi.Observe)
	soa.OnReject = func(vmName string, reason core.RejectReason) {
		wi.ReportRejection(vmName, reason)
		fmt.Printf("%s  rejection (%s) -> corrective scale-out pending\n", vmName, reason)
	}

	// Bursty load: medium base with 2x spikes.
	gen := &workload.LoadGen{
		BaseRPS:     workload.MediumLoad.RPS(svc, hw.TurboMHz),
		BurstProb:   0.01,
		BurstFactor: 1.35,
		BurstLen:    20,
		NoiseSD:     0.05,
	}

	fmt.Printf("service %s: SLO %.1f ms, capacity %.0f rps at turbo\n\n",
		svc.Name, svc.SLOms(), svc.CapacityRPS(hw.TurboMHz, hw.TurboMHz))
	fmt.Println("time    rps   p99(ms)  freq(MHz)  oc  note")

	now := start
	for i := 0; i < 300; i++ {
		now = now.Add(time.Second)
		rps := gen.RPSAt(now, rng)
		res := inst.Step(time.Second, rps, vm.Freq(), hw.TurboMHz, rng)
		vm.SetUtil(res.Util)

		local.RecordLatency(res.P99MS)
		local.RecordUtil(res.Util)
		local.Tick(now)
		dir := wi.Decide(now)
		want := dir.Overclock("compose-0") // read before Request can report a rejection
		_, active := soa.Sessions()["compose-0"]
		note := ""
		if want && !active {
			d := soa.Request(now, core.Request{
				VM: "compose-0", Cores: len(vm.Cores), TargetMHz: hw.MaxOCMHz,
				Priority: core.PriorityMetric, PreferredCores: vm.Cores,
			})
			if d.Granted {
				note = "overclock engaged"
			}
		} else if !want && active {
			soa.Stop(now, "compose-0")
			note = "overclock released"
		}
		if dir.Instances > 1 {
			note += " scale-out requested"
		}
		soa.Tick(now)
		server.Advance(time.Second)

		if i%20 == 0 || note != "" {
			fmt.Printf("%s  %4.0f  %7.2f  %9d  %2d  %s\n",
				now.Format("15:04:05"), rps, res.P99MS, vm.Freq(), soa.ActiveOCCores(), note)
		}
	}
	fmt.Printf("\nsummary: %d grants, %d rejections, %v overclock time consumed on core %d\n",
		soa.Granted(), soa.Rejected(),
		(budgets.Core(vm.Cores[0]).Config().Allowance() - budgets.Core(vm.Cores[0]).Remaining()).Round(time.Second),
		vm.Cores[0])
}
