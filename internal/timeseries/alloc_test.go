package timeseries

import (
	"testing"
	"time"
)

// The trace generator's per-tick loop appends one sample per tick into
// series whose length is known up front. These guards pin the preallocation
// contract: a NewWithCap series absorbs its full tick count with zero
// reallocation, so the hot path never regrows.

func TestNewWithCapAppendNoRegrowth(t *testing.T) {
	start := time.Unix(0, 0).UTC()
	const steps = 4096
	allocs := testing.AllocsPerRun(20, func() {
		s := NewWithCap(start, time.Minute, steps)
		for i := 0; i < steps; i++ {
			s.Append(float64(i))
		}
		if s.Len() != steps {
			t.Fatalf("len = %d", s.Len())
		}
	})
	// One allocation for the Series struct, one for the Values backing
	// array — and nothing from the 4096 appends.
	if allocs > 2 {
		t.Errorf("prealloc'd append path allocated %.0f times per run, want <= 2", allocs)
	}
}
