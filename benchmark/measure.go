package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// heapSampleEvery is the peak-heap sampling cadence. ReadMemStats stops the
// world for tens of microseconds, so 5 ms costs well under 1% of a core
// while still catching every shard-sized residency bump.
const heapSampleEvery = 5 * time.Millisecond

// repCost is what one repetition cost the host, measured from outside the
// program under test: wall time, process CPU time, heap allocations and the
// sampled peak of the live heap over its post-GC baseline.
type repCost struct {
	Wall       time.Duration
	CPU        time.Duration
	Allocs     uint64
	AllocBytes uint64
	PeakHeap   uint64
}

// cpuTime returns the process's user+system CPU time so far. It catches
// spin loops and GC work that a second core hides from wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs fn once and reports its cost. The heap is settled first so
// the allocation deltas and the sampled peak belong to fn alone.
func measure(fn func()) repCost {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var peak atomic.Uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	cpu0 := cpuTime()
	start := time.Now()
	fn()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0

	close(stop)
	<-done
	runtime.ReadMemStats(&after)
	c := repCost{
		Wall:       wall,
		CPU:        cpu,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
	if p := peak.Load(); p > before.HeapAlloc {
		c.PeakHeap = p - before.HeapAlloc
	}
	return c
}
