package stats

import (
	"fmt"
	"sort"
)

// P2Quantile estimates a single quantile of a stream with O(1) memory using
// the P² algorithm (Jain & Chlamtac, 1985). The cluster emulation uses it
// to track per-deployment P99 latency over arbitrarily long runs without
// retaining samples.
type P2Quantile struct {
	p       float64
	n       int
	heights [5]float64
	pos     [5]float64
	want    [5]float64
	inc     [5]float64
	initial []float64
}

// NewP2Quantile creates an estimator for quantile p in (0,1).
// It panics for p outside (0,1) — a programming error.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile %v out of (0,1)", p))
	}
	q := &P2Quantile{p: p}
	q.pos = [5]float64{1, 2, 3, 4, 5}
	q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q
}

// Add records one observation.
func (q *P2Quantile) Add(x float64) {
	q.n++
	if q.n <= 5 {
		q.initial = append(q.initial, x)
		if q.n == 5 {
			sort.Float64s(q.initial)
			copy(q.heights[:], q.initial)
			q.initial = nil
		}
		return
	}

	// Locate the cell containing x and adjust extreme markers.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.want[i] += q.inc[i]
	}

	// Adjust interior markers with parabolic interpolation, falling back
	// to linear when the parabola would violate ordering.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

func (q *P2Quantile) parabolic(i int, d float64) float64 {
	return q.heights[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

func (q *P2Quantile) linear(i int, d float64) float64 {
	return q.heights[i] + d*(q.heights[i+int(d)]-q.heights[i])/(q.pos[i+int(d)]-q.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the exact small-sample quantile.
func (q *P2Quantile) Value() float64 {
	if q.n == 0 {
		return 0
	}
	if q.n < 5 {
		sorted := append([]float64(nil), q.initial...)
		sort.Float64s(sorted)
		return PercentileSorted(sorted, q.p*100)
	}
	return q.heights[2]
}
