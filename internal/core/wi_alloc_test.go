package core

import (
	"fmt"
	"testing"
	"time"
)

// newBigUtilWI builds a deployment-level-util WI tracking n instances in
// steady state (no pending rejections, no overclocking pressure).
func newBigUtilWI(n int) *GlobalWI {
	up := UtilPolicy{ScaleUpUtil: 0.7, ScaleDownUtil: 0.45}
	w := NewGlobalWI(100, nil, nil, DefaultScaleOutConfig())
	w.Util = &up
	for i := 0; i < n; i++ {
		w.Observe(fmt.Sprintf("i%04d", i), InstanceMetrics{P99MS: 20, Util: 0.3})
	}
	return w
}

// TestDecideAllocsBounded guards that a steady-state Decide allocates
// nothing: it walks the name-sorted instance table and hands out a view of
// it. A regression that allocates inside the per-instance loop multiplies
// across deployments x decision intervals.
func TestDecideAllocsBounded(t *testing.T) {
	w := newBigUtilWI(256)
	now := wiNow
	w.Decide(now)
	allocs := testing.AllocsPerRun(50, func() {
		now = now.Add(time.Second)
		w.Decide(now)
	})
	if allocs != 0 {
		t.Fatalf("Decide allocates %.1f objects per call for 256 instances, want 0", allocs)
	}
}

// BenchmarkGlobalWIDecide pins the per-decision cost at deployment scale.
// The deployment-mean utilization is computed once per decision, not once
// per instance; recomputing it inside the loop made this O(instances²).
func BenchmarkGlobalWIDecide(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("instances=%d", n), func(b *testing.B) {
			w := newBigUtilWI(n)
			now := wiNow
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Second)
				w.Decide(now)
			}
		})
	}
}
