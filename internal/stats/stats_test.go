package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanSimple(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Fatalf("Max = %v", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("Min/Max of empty must be 0")
	}
}

func TestPercentileExact(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Percentile(50) = %v, want 5", got)
	}
}

func TestPercentileClampsP(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := Percentile(xs, -5); got != 1 {
		t.Fatalf("clamped low percentile = %v", got)
	}
	if got := Percentile(xs, 150); got != 3 {
		t.Fatalf("clamped high percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentilesMatchesPercentile(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2}
	ps := []float64{0, 10, 50, 90, 99, 100}
	got := Percentiles(xs, ps...)
	for i, p := range ps {
		want := Percentile(xs, p)
		if !almostEqual(got[i], want, 1e-12) {
			t.Errorf("Percentiles[%v] = %v, want %v", p, got[i], want)
		}
	}
}

func TestMedianP99(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	if got := Median(xs); !almostEqual(got, 50.5, 1e-12) {
		t.Fatalf("Median = %v", got)
	}
	if got := P99(xs); !almostEqual(got, 99.01, 1e-9) {
		t.Fatalf("P99 = %v", got)
	}
}

func TestRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	actual := []float64{1, 2, 3}
	got, err := RMSE(pred, actual)
	if err != nil || got != 0 {
		t.Fatalf("RMSE identical = %v, %v", got, err)
	}
	got, err = RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil || !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("RMSE = %v, %v", got, err)
	}
}

func TestRMSEErrors(t *testing.T) {
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := RMSE(nil, nil); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
}

func TestMeanErrorSign(t *testing.T) {
	// Over-prediction is positive.
	got, err := MeanError([]float64{10, 10}, []float64{8, 8})
	if err != nil || got != 2 {
		t.Fatalf("MeanError = %v, %v", got, err)
	}
	got, err = MeanError([]float64{5}, []float64{9})
	if err != nil || got != -4 {
		t.Fatalf("MeanError under = %v, %v", got, err)
	}
}

// Property: for any sample, percentiles are monotone non-decreasing in p and
// bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			if v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RMSE >= |MeanError| (Jensen).
func TestErrorMetricInequalities(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		pred := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				pred = append(pred, x)
			}
		}
		if len(pred) == 0 {
			return true
		}
		actual := make([]float64, len(pred)) // zeros
		rmse, err1 := RMSE(pred, actual)
		me, err2 := MeanError(pred, actual)
		if err1 != nil || err2 != nil {
			return false
		}
		return rmse+1e-9 >= math.Abs(me)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(xs, 99)
	}
}

func TestP2QuantilePanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewP2Quantile(1.5)
}

func TestP2QuantileSmallSampleExact(t *testing.T) {
	q := NewP2Quantile(0.5)
	if q.Value() != 0 {
		t.Fatal("empty estimator must be 0")
	}
	for _, x := range []float64{3, 1, 2} {
		q.Add(x)
	}
	if q.Value() != 2 {
		t.Fatalf("small-sample median = %v", q.Value())
	}
}

func TestP2QuantileAccuracyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q := NewP2Quantile(p)
		exact := make([]float64, 0, 50000)
		for i := 0; i < 50000; i++ {
			x := rng.Float64() * 100
			q.Add(x)
			exact = append(exact, x)
		}
		want := Percentile(exact, p*100)
		if got := q.Value(); math.Abs(got-want) > 2 { // 2% of range
			t.Fatalf("p=%v: estimate %v vs exact %v", p, got, want)
		}
		if q.n != 50000 {
			t.Fatalf("n = %d", q.n)
		}
	}
}

func TestP2QuantileAccuracySkewed(t *testing.T) {
	// Latency-like distribution: lognormal body with a heavy tail.
	rng := rand.New(rand.NewSource(9))
	q := NewP2Quantile(0.99)
	exact := make([]float64, 0, 80000)
	for i := 0; i < 80000; i++ {
		x := math.Exp(rng.NormFloat64())
		q.Add(x)
		exact = append(exact, x)
	}
	want := Percentile(exact, 99)
	if rel := math.Abs(q.Value()-want) / want; rel > 0.1 {
		t.Fatalf("P99 estimate %v vs exact %v (rel %v)", q.Value(), want, rel)
	}
}

// TestP2QuantileMaxTracksExtremes checks that the top P² marker holds the
// exact running maximum.
func TestP2QuantileMaxTracksExtremes(t *testing.T) {
	q := NewP2Quantile(0.9)
	rng := rand.New(rand.NewSource(2))
	maxSeen := 0.0
	for i := 0; i < 1000; i++ {
		x := rng.Float64()
		if x > maxSeen {
			maxSeen = x
		}
		q.Add(x)
	}
	if q.heights[4] != maxSeen {
		t.Fatalf("top marker = %v, want %v", q.heights[4], maxSeen)
	}
}
