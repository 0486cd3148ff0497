package core

import (
	"math/rand"
	"testing"
	"time"
)

func TestLocalWIAggregatesAndReports(t *testing.T) {
	var gotInstance string
	var got []InstanceMetrics
	l := NewLocalWI("vm-1", 10*time.Second, func(inst string, m InstanceMetrics) {
		gotInstance = inst
		got = append(got, m)
	})

	now := wiNow
	l.Tick(now) // arms the interval
	for i := 0; i < 100; i++ {
		l.RecordLatency(float64(i + 1)) // 1..100 ms
		l.RecordUtil(0.5)
	}
	l.Tick(now.Add(10 * time.Second))
	if len(got) != 1 {
		t.Fatalf("reports = %d", len(got))
	}
	if gotInstance != "vm-1" {
		t.Fatalf("instance = %q", gotInstance)
	}
	m := got[0]
	if m.AvgMS != 50.5 {
		t.Fatalf("AvgMS = %v", m.AvgMS)
	}
	if m.P99MS < 90 || m.P99MS > 100 {
		t.Fatalf("P99MS = %v", m.P99MS)
	}
	if m.Util != 0.5 {
		t.Fatalf("Util = %v", m.Util)
	}
}

func TestLocalWIWindowsAreIndependent(t *testing.T) {
	var got []InstanceMetrics
	l := NewLocalWI("vm", 10*time.Second, func(_ string, m InstanceMetrics) {
		got = append(got, m)
	})
	now := wiNow
	l.Tick(now)
	l.RecordLatency(100)
	l.Tick(now.Add(10 * time.Second)) // first window: 100 ms
	l.RecordLatency(10)
	l.Tick(now.Add(20 * time.Second)) // second window: 10 ms
	if len(got) != 2 {
		t.Fatalf("reports = %d", len(got))
	}
	if got[0].AvgMS != 100 || got[1].AvgMS != 10 {
		t.Fatalf("window leakage: %+v", got)
	}
}

func TestLocalWIEmptyWindowHeartbeat(t *testing.T) {
	count := 0
	l := NewLocalWI("vm", 10*time.Second, func(string, InstanceMetrics) { count++ })
	l.Tick(wiNow)
	l.Tick(wiNow.Add(30 * time.Second)) // three intervals, no samples
	if count != 3 {
		t.Fatalf("heartbeats = %d, want 3", count)
	}
}

func TestLocalWIManualFlush(t *testing.T) {
	var got []InstanceMetrics
	l := NewLocalWI("vm", time.Hour, func(_ string, m InstanceMetrics) {
		got = append(got, m)
	})
	l.RecordLatency(42)
	l.Flush()
	if len(got) != 1 || got[0].AvgMS != 42 {
		t.Fatalf("manual flush: %+v", got)
	}
}

func TestLocalWIDefaultInterval(t *testing.T) {
	l := NewLocalWI("vm", 0, nil)
	if l.Interval != 15*time.Second {
		t.Fatalf("default interval = %v", l.Interval)
	}
	l.Flush() // nil Report must not panic
}

// TestLocalWIFeedsGlobalWI wires the full local→global pipeline: latency
// samples aggregated locally drive the global agent's overclock decision.
func TestLocalWIFeedsGlobalWI(t *testing.T) {
	mp := DefaultMetricPolicy()
	g := NewGlobalWI(100, &mp, nil, DefaultScaleOutConfig())
	l := NewLocalWI("vm-0", 10*time.Second, g.Observe)

	rng := rand.New(rand.NewSource(4))
	now := wiNow
	l.Tick(now)
	// A window of latencies hovering at 90% of the SLO.
	for i := 0; i < 200; i++ {
		l.RecordLatency(85 + rng.Float64()*10)
	}
	now = now.Add(10 * time.Second)
	l.Tick(now)
	d := g.Decide(now)
	if !d.Overclock("vm-0") {
		t.Fatal("aggregated tail above scale-up threshold must trigger overclocking")
	}
}
