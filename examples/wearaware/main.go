// Wearaware demonstrates the §VI hardware-support extensions working
// together: per-core frequency variability ("preferred cores"), online
// wear-out counters gating overclocking, and automatic migration of a
// session off worn cores.
//
//	go run ./examples/wearaware
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
)

func main() {
	log.SetFlags(0)
	start := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	hw := machine.DefaultConfig()
	hw.Cores = 16

	server := cluster.NewServer("edge-0", hw, 0)
	// Silicon variability: not every core reaches 4.0 GHz. The machine
	// exposes per-core maxima the way §VI's ACPI CPPC preferred-cores
	// engagement would.
	server.Machine().RandomizeCoreMaxOC(rand.New(rand.NewSource(7)), 3600)
	fastest := server.Machine().FastestCores(4)
	fmt.Print("per-core max overclock (MHz):")
	for c := 0; c < server.NumCores(); c++ {
		fmt.Printf(" %d", server.Machine().CoreMaxOC(c))
	}
	fmt.Printf("\npreferred (fastest) cores: %v\n\n", fastest)

	for c := 0; c < server.NumCores(); c++ {
		server.SetCoreUtil(c, 0.95) // hot workload: wear accrues fast
	}

	// Generous time budget so the ONLINE wear counters are the binding
	// constraint (§VI: upgrade from the conservative offline model).
	budgets := lifetime.NewCoreBudgets(lifetime.BudgetConfig{
		Epoch: 24 * time.Hour, Fraction: 0.9,
	}, hw.Cores, start)
	gate := lifetime.OnlineWearGate{Margin: 0.10, MinObservation: 20 * time.Minute}
	cfg := core.DefaultSOAConfig()
	hwm := server.Machine()
	cfg.WearGate = func(c int) bool { return gate.Allow(hwm.Aged(c), hwm.Elapsed()) }
	soa := core.NewSOA(cfg, server, budgets, 10000, start)
	soa.OnReject = func(vm string, reason core.RejectReason) {
		fmt.Printf("  [WI] %s rejected/stopped: %s\n", vm, reason)
	}

	// Overclock the four preferred cores.
	d := soa.Request(start, core.Request{
		VM: "hot-path", Cores: 4, TargetMHz: hw.MaxOCMHz,
		Priority: core.PriorityMetric, PreferredCores: fastest,
	})
	if !d.Granted {
		log.Fatalf("grant failed: %+v", d)
	}
	fmt.Printf("session on cores %v at %d MHz (per-core ceilings apply)\n",
		d.Cores, soa.Sessions()["hot-path"].CurrentMHz())
	for _, c := range d.Cores {
		fmt.Printf("  core %2d effective %d MHz\n", c, server.EffectiveFreq(c))
	}

	// Run at full tilt: the preferred cores age ~5x faster than the
	// envelope; the gate closes and the sOA migrates, then stops.
	now := start
	lastCores := fmt.Sprint(d.Cores)
	for i := 0; i < 240 && len(soa.Sessions()) > 0; i++ {
		now = now.Add(time.Minute)
		server.Advance(time.Minute)
		soa.Tick(now)
		if s, ok := soa.Sessions()["hot-path"]; ok {
			cur := fmt.Sprint(s.Cores)
			if cur != lastCores {
				fmt.Printf("%s  wear gate closed -> session migrated to cores %v\n",
					now.Format("15:04"), s.Cores)
				lastCores = cur
			}
		}
	}
	fmt.Printf("\nafter %s: sessions=%d\n", now.Sub(start), len(soa.Sessions()))
	for _, c := range fastest {
		aged, elapsed := hwm.Aged(c), hwm.Elapsed()
		fmt.Printf("  core %2d aged %5.1f min over %5.1f min elapsed (gate open: %v)\n",
			c, aged.Minutes(), elapsed.Minutes(), gate.Allow(aged, elapsed))
	}
}
