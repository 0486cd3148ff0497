// Package stats provides the small statistical toolkit used throughout the
// SmartOClock reproduction: percentiles, error metrics and a streaming
// quantile estimator.
//
// All functions operate on float64 slices and never mutate their inputs
// unless documented otherwise.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a value from an
// empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted returns the p-th percentile of a sorted, non-empty slice
// with Percentile's interpolation, so a caller that sorts its own buffer
// gets Percentile's result bit for bit without the copy.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentiles computes several percentiles of xs in one pass over a single
// sorted copy. The returned slice matches ps positionally.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 100 {
			p = 100
		}
		out[i] = PercentileSorted(sorted, p)
	}
	return out
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// P99 returns the 99th percentile of xs.
func P99(xs []float64) float64 {
	return Percentile(xs, 99)
}

// RMSE returns the root mean squared error between predictions and actuals.
// The two slices must have the same, non-zero length.
func RMSE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, fmt.Errorf("stats: RMSE length mismatch: %d vs %d", len(pred), len(actual))
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred))), nil
}

// MeanError returns the mean signed error (pred - actual). A positive value
// means the predictor over-predicts on average; negative means it
// under-predicts. This is the per-entity metric behind the paper's Fig 15.
func MeanError(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, fmt.Errorf("stats: MeanError length mismatch: %d vs %d", len(pred), len(actual))
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := range pred {
		sum += pred[i] - actual[i]
	}
	return sum / float64(len(pred)), nil
}
