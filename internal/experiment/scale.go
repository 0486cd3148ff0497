package experiment

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/trace"
)

// This file is the paper-scale throughput benchmark behind the socbench
// scaling curve (ROADMAP item 1). The paper's production study covers 7.1k
// dedicated racks; RunFleetScale runs a streamed fleet of any size — each
// worker generates its rack trace on entry, simulates it and drops it, so
// peak memory is O(workers x rack), not O(fleet). The result carries honest
// parallelism stamps (GOMAXPROCS, effective parallelism) and a measured
// bytes/rack so regressions in the O(active shard) property are caught by
// the scale-smoke CI job.

// ScaleConfig parameterizes one point of the fleet scaling curve.
type ScaleConfig struct {
	Seed int64
	// Racks is the fleet size (single region, even class mix).
	Racks int
	// TrainDays/EvalDays size each rack's trace and simulation windows.
	// The scale curve defaults to a smaller window than Table I — the
	// benchmark measures racks/sec and bytes/rack, not paper metrics.
	TrainDays, EvalDays int
	Step                time.Duration
	// ServersPerRack overrides the rack template density; <= 0 keeps the
	// paper default (28).
	ServersPerRack int
	// System selects the simulated control system; DefaultScaleConfig picks
	// SmartOClock (the full system).
	System baselines.System

	Workers       int
	ShuffleShards int64
}

// heapSamplePeriod is the peak-heap sampling cadence of a scale run.
const heapSamplePeriod = 20 * time.Millisecond

// DefaultScaleConfig returns a scale point sized so the 7.1k-rack run
// finishes in minutes on one core: a 2-day training window and 1 evaluated
// day per rack.
func DefaultScaleConfig(racks int) ScaleConfig {
	return ScaleConfig{
		Seed:      1,
		Racks:     racks,
		TrainDays: 2,
		EvalDays:  1,
		Step:      5 * time.Minute,
		System:    baselines.SmartOClock,
	}
}

// ScaleResult is one measured point of the scaling curve.
type ScaleResult struct {
	Racks          int     `json:"racks"`
	ServersPerRack int     `json:"servers_per_rack"`
	TrainDays      int     `json:"train_days"`
	EvalDays       int     `json:"eval_days"`
	WallSeconds    float64 `json:"wall_seconds"`
	RacksPerSec    float64 `json:"racks_per_sec"`

	// PeakHeapBytes is the sampled peak live-heap growth over the run's
	// post-GC baseline; BytesPerRack divides it by the fleet size — the
	// number that must stay flat as the fleet grows for memory to be
	// O(active shard).
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	BytesPerRack  uint64 `json:"bytes_per_rack"`
	// AllocBytesPerRack is cumulative allocation churn per rack (throughput
	// cost, not residency).
	AllocBytesPerRack uint64 `json:"alloc_bytes_per_rack"`

	// Workers is the configured worker bound; EffectiveParallelism is the
	// parallelism the host could actually deliver, min(workers, GOMAXPROCS)
	// — the honest stamp the flat-speedup bench methodology was missing.
	Workers              int `json:"workers"`
	GoMaxProcs           int `json:"gomaxprocs"`
	EffectiveParallelism int `json:"effective_parallelism"`

	// Determinism anchors: pure functions of (seed, racks, config), equal
	// at any worker count or dispatch order.
	Requests  int `json:"requests"`
	Successes int `json:"successes"`
	CapEvents int `json:"cap_events"`
}

// heapSampler polls the runtime for live-heap size until stopped and
// records the peak. Sampling (not exact accounting) is the right tool here:
// the interesting signal is whether residency scales with fleet size, a
// many-megabyte effect no 20ms sampler misses.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak.Load() {
				s.peak.Store(ms.HeapAlloc)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// halt stops sampling and returns the observed peak heap.
func (s *heapSampler) halt() uint64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

// RunFleetScale runs one streamed fleet of cfg.Racks racks under a single
// system and measures throughput and memory. Every rack is generated inside
// its shard from (seed, index) — the fleet is never materialized — and
// shard metrics fold in index order, so Requests/Successes/CapEvents are
// bit-identical at any worker count.
func RunFleetScale(cfg ScaleConfig) (*ScaleResult, error) {
	if cfg.Racks <= 0 {
		return nil, fmt.Errorf("experiment: scale run needs racks > 0, got %d", cfg.Racks)
	}
	base := DefaultScaleConfig(cfg.Racks)
	if cfg.TrainDays <= 0 {
		cfg.TrainDays = base.TrainDays
	}
	if cfg.EvalDays <= 0 {
		cfg.EvalDays = base.EvalDays
	}
	if cfg.Step <= 0 {
		cfg.Step = base.Step
	}

	fs := DefaultFleetSimConfig()
	fs.Seed = cfg.Seed
	fs.TrainDays = cfg.TrainDays
	fs.EvalDays = cfg.EvalDays
	fs.Step = cfg.Step
	fs.Workers = cfg.Workers
	fs.ShuffleShards = cfg.ShuffleShards
	if err := fs.Validate(); err != nil {
		return nil, err
	}

	days := cfg.TrainDays + cfg.EvalDays
	fcfg := trace.DefaultFleetConfig(fleetStart, time.Duration(days)*24*time.Hour)
	fcfg.Seed = cfg.Seed
	fcfg.Regions = []string{"Scale"}
	fcfg.RacksPerRegion = cfg.Racks
	fcfg.Step = cfg.Step
	if cfg.ServersPerRack > 0 {
		fcfg.RackTemplate.Servers = cfg.ServersPerRack
	}

	// Settle the heap so the sampled peak measures this run, not leftovers.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler(heapSamplePeriod)

	start := time.Now()
	outs, err := streamRacks(fleetOpts(fs), fleetUnits(&fcfg, cfg.Racks, 0, []FleetSimConfig{fs}, cfg.System))
	wall := time.Since(start)

	peak := sampler.halt()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	agg := foldRacks(outs)

	res := &ScaleResult{
		Racks:          cfg.Racks,
		ServersPerRack: fcfg.RackTemplate.Servers,
		TrainDays:      cfg.TrainDays,
		EvalDays:       cfg.EvalDays,
		WallSeconds:    wall.Seconds(),
		RacksPerSec:    float64(cfg.Racks) / wall.Seconds(),
		Workers:        cfg.Workers,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Requests:       agg.requests,
		Successes:      agg.successes,
		CapEvents:      agg.caps,
	}
	res.EffectiveParallelism = EffectiveParallelism(cfg.Workers, res.GoMaxProcs)
	if peak > before.HeapAlloc {
		res.PeakHeapBytes = peak - before.HeapAlloc
	}
	res.BytesPerRack = res.PeakHeapBytes / uint64(cfg.Racks)
	res.AllocBytesPerRack = (after.TotalAlloc - before.TotalAlloc) / uint64(cfg.Racks)
	return res, nil
}

// EffectiveParallelism is the parallelism a worker bound can actually reach
// on this host: min(workers, GOMAXPROCS), with workers <= 0 meaning "use
// GOMAXPROCS" exactly as parallel.Options does.
func EffectiveParallelism(workers, gomaxprocs int) int {
	if workers <= 0 || workers > gomaxprocs {
		return gomaxprocs
	}
	return workers
}
