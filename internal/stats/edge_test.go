package stats

import (
	"testing"
)

// TestPercentileEdgeCases exercises the boundary inputs of the
// closest-ranks interpolation: empty and single-sample inputs, duplicated
// values, and out-of-range percentiles (which clamp rather than panic).
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"empty out-of-range", nil, 150, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"single clamp-low", []float64{7}, -10, 7},
		{"single clamp-high", []float64{7}, 900, 7},
		{"duplicates all equal", []float64{3, 3, 3, 3}, 99, 3},
		{"duplicates mixed p50", []float64{1, 2, 2, 2, 5}, 50, 2},
		{"two samples interpolate", []float64{0, 10}, 25, 2.5},
		{"clamp low to min", []float64{1, 2, 3}, -5, 1},
		{"clamp high to max", []float64{1, 2, 3}, 105, 3},
		{"unsorted input", []float64{9, 1, 5}, 50, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.xs, tc.p); !almostEqual(got, tc.want, 1e-12) {
				t.Fatalf("Percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
			}
		})
	}
}

// TestP2QuantileSmallSamples checks the exact-fallback path (n < 5) and
// that duplicates do not break marker initialization at n = 5.
func TestP2QuantileSmallSamples(t *testing.T) {
	q := NewP2Quantile(0.5)
	if q.Value() != 0 {
		t.Fatal("empty estimator must report 0")
	}
	q.Add(3)
	if q.Value() != 3 {
		t.Fatalf("single-sample estimate = %v, want 3", q.Value())
	}
	for _, v := range []float64{3, 3, 3, 3} {
		q.Add(v)
	}
	if q.Value() != 3 {
		t.Fatalf("all-duplicate estimate = %v, want 3", q.Value())
	}
	// A long constant stream must stay pinned at the constant.
	for i := 0; i < 1000; i++ {
		q.Add(3)
	}
	if q.Value() != 3 {
		t.Fatalf("constant stream drifted to %v", q.Value())
	}
}

// TestP2QuantileRejectsBadP documents the constructor contract.
func TestP2QuantileRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%v) did not panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}
