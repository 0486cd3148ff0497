package experiment

import (
	"os"
	"strconv"
	"testing"
)

// scaleSmokeCfg shrinks the per-rack cost so scale tests measure the
// streaming machinery, not the simulator's full Table I windows.
func scaleSmokeCfg(racks int) ScaleConfig {
	cfg := DefaultScaleConfig(racks)
	cfg.ServersPerRack = 6
	return cfg
}

// TestFleetScaleDeterministicAcrossWorkers pins the scale run's anchors:
// Requests/Successes/CapEvents are pure functions of (seed, config),
// identical at any worker count and dispatch order.
func TestFleetScaleDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	run := func(workers int, shuffle int64) *ScaleResult {
		cfg := scaleSmokeCfg(6)
		cfg.Workers = workers
		cfg.ShuffleShards = shuffle
		res, err := RunFleetScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1, 0)
	if ref.Requests == 0 {
		t.Fatal("scale run produced no overclock requests")
	}
	for _, v := range []struct {
		workers int
		shuffle int64
	}{{2, 0}, {8, 0}, {8, 2718}} {
		got := run(v.workers, v.shuffle)
		if got.Requests != ref.Requests || got.Successes != ref.Successes || got.CapEvents != ref.CapEvents {
			t.Errorf("workers=%d shuffle=%d: anchors (%d,%d,%d) diverge from workers=1 (%d,%d,%d)",
				v.workers, v.shuffle, got.Requests, got.Successes, got.CapEvents,
				ref.Requests, ref.Successes, ref.CapEvents)
		}
	}
}

// TestFleetScaleStamps checks the honest-parallelism bookkeeping that the
// flat-speedup bench bug motivated: every result carries GOMAXPROCS and an
// effective parallelism never exceeding it.
func TestFleetScaleStamps(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	cfg := scaleSmokeCfg(2)
	cfg.Workers = 64 // far beyond any host's GOMAXPROCS
	res, err := RunFleetScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoMaxProcs < 1 {
		t.Errorf("GoMaxProcs = %d", res.GoMaxProcs)
	}
	if res.EffectiveParallelism > res.GoMaxProcs {
		t.Errorf("effective parallelism %d exceeds GOMAXPROCS %d", res.EffectiveParallelism, res.GoMaxProcs)
	}
	if res.RacksPerSec <= 0 || res.WallSeconds <= 0 {
		t.Errorf("throughput not measured: %+v", res)
	}
}

func TestEffectiveParallelism(t *testing.T) {
	cases := []struct{ workers, procs, want int }{
		{0, 4, 4},  // unset = GOMAXPROCS
		{-1, 4, 4}, // negative = GOMAXPROCS
		{2, 4, 2},  // bounded below the host
		{8, 4, 4},  // more workers than the host can run
		{1, 1, 1},  // single-core host
		{64, 1, 1}, // the BENCH_fleet.json bug: workers=4, gomaxprocs=1
	}
	for _, c := range cases {
		if got := effectiveParallelism(c.workers, c.procs); got != c.want {
			t.Errorf("effectiveParallelism(%d, %d) = %d, want %d", c.workers, c.procs, got, c.want)
		}
	}
}

// TestScaleSmoke1k is the CI scale-smoke job: a 1k-rack streamed fleet must
// complete with per-rack residency inside budget — the O(active shard)
// property. Gated behind SOC_SCALE_SMOKE because it simulates 1000 racks
// (about a minute under -race on one core).
func TestScaleSmoke1k(t *testing.T) {
	if os.Getenv("SOC_SCALE_SMOKE") == "" {
		t.Skip("set SOC_SCALE_SMOKE=1 to run the 1k-rack scale smoke")
	}
	racks := 1000
	if v := os.Getenv("SOC_SCALE_SMOKE_RACKS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad SOC_SCALE_SMOKE_RACKS %q", v)
		}
		racks = n
	}
	res, err := RunFleetScale(scaleSmokeCfg(racks))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("scale smoke produced no overclock requests")
	}
	// Budget: streamed residency is O(workers x rack), a few MB total, so
	// per-rack bytes shrink as the fleet grows. 256 KiB/rack is ~10x the
	// expected value with -race instrumentation overhead included; a
	// materialized fleet (~1.3 MB/rack at paper density, ~300 KB at this
	// test's 6 servers/rack times the 5x system fan-out) blows through it.
	const budget = 256 << 10
	if res.BytesPerRack > budget {
		t.Errorf("bytes/rack = %d exceeds budget %d: fleet memory is no longer O(active shard)", res.BytesPerRack, budget)
	}
	t.Logf("racks=%d racks/sec=%.1f bytes/rack=%d peak=%dMB eff=%d",
		res.Racks, res.RacksPerSec, res.BytesPerRack, res.PeakHeapBytes>>20, res.EffectiveParallelism)
}
