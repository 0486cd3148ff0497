// Package timeseries provides fixed-interval time series and the
// time-of-day template aggregation SmartOClock uses for power and
// utilization prediction.
//
// A Series holds samples at a fixed step starting at a given instant.
// Templates (see template.go) collapse multi-day series into a single
// representative day, the core of the paper's DailyMed/DailyMax predictors.
package timeseries

import (
	"fmt"
	"time"
)

// Series is a fixed-interval time series. Values[i] is the sample for the
// interval beginning at Start + i*Step.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// New creates an empty series starting at start with the given step.
// It panics if step is not positive, which always indicates a programming
// error at a call site.
func New(start time.Time, step time.Duration) *Series {
	if step <= 0 {
		panic(fmt.Sprintf("timeseries: non-positive step %v", step))
	}
	return &Series{Start: start, Step: step}
}

// NewWithCap creates an empty series with room for n samples, so a caller
// that knows its tick count up front can Append n times without a single
// reallocation on the hot path.
func NewWithCap(start time.Time, step time.Duration, n int) *Series {
	s := New(start, step)
	if n > 0 {
		s.Values = make([]float64, 0, n)
	}
	return s
}

// Grow ensures capacity for at least n more samples beyond the current
// length, reallocating at most once.
func (s *Series) Grow(n int) {
	if n <= 0 || cap(s.Values)-len(s.Values) >= n {
		return
	}
	grown := make([]float64, len(s.Values), len(s.Values)+n)
	copy(grown, s.Values)
	s.Values = grown
}

// FromValues creates a series from existing samples. The slice is used
// directly (not copied).
func FromValues(start time.Time, step time.Duration, values []float64) *Series {
	s := New(start, step)
	s.Values = values
	return s
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// End returns the instant just past the last sample interval.
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Values)) * s.Step)
}

// TimeAt returns the start instant of sample i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the sample index containing instant t, and whether t is
// within the series range.
func (s *Series) IndexOf(t time.Time) (int, bool) {
	if t.Before(s.Start) {
		return 0, false
	}
	i := int(t.Sub(s.Start) / s.Step)
	if i >= len(s.Values) {
		return len(s.Values) - 1, false
	}
	return i, true
}

// At returns the sample covering instant t, clamped to the first/last sample
// for out-of-range instants. Returns 0 for an empty series.
func (s *Series) At(t time.Time) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	i, _ := s.IndexOf(t)
	if i < 0 {
		i = 0
	}
	return s.Values[i]
}

// Append adds one sample at the end of the series.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	vals := make([]float64, len(s.Values))
	copy(vals, s.Values)
	return FromValues(s.Start, s.Step, vals)
}

// Slice returns the sub-series covering [from, to). Instants are clamped to
// the series range. The returned series shares backing storage.
func (s *Series) Slice(from, to time.Time) *Series {
	if from.Before(s.Start) {
		from = s.Start
	}
	if to.After(s.End()) {
		to = s.End()
	}
	if !to.After(from) {
		return New(from, s.Step)
	}
	lo := int(from.Sub(s.Start) / s.Step)
	hi := int(to.Sub(s.Start) / s.Step)
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	return FromValues(s.TimeAt(lo), s.Step, s.Values[lo:hi])
}

// Add adds other to s sample-wise over the overlapping range. The two series
// must share the same step. It returns an error (and leaves s unchanged) on
// a step mismatch.
func (s *Series) Add(other *Series) error {
	if other.Step != s.Step {
		return fmt.Errorf("timeseries: step mismatch %v vs %v", s.Step, other.Step)
	}
	offset := int(other.Start.Sub(s.Start) / s.Step)
	for j := range other.Values {
		i := offset + j
		if i < 0 || i >= len(s.Values) {
			continue
		}
		s.Values[i] += other.Values[j]
	}
	return nil
}

// Scale multiplies every sample by k in place and returns s.
func (s *Series) Scale(k float64) *Series {
	for i := range s.Values {
		s.Values[i] *= k
	}
	return s
}

// Map applies f to every sample in place and returns s.
func (s *Series) Map(f func(float64) float64) *Series {
	for i := range s.Values {
		s.Values[i] = f(s.Values[i])
	}
	return s
}

// Mean returns the mean of all samples, 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the maximum sample, 0 when empty.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum sample, 0 when empty.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Integral returns the sum of sample * step, i.e. the integral of the series
// over its range expressed in value-seconds. For a power series in watts this
// is energy in joules.
func (s *Series) Integral() float64 {
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum * s.Step.Seconds()
}
