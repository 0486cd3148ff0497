package sim

import (
	"math/rand"
	"testing"
	"time"
)

var start = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine(start, 1)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTiesBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(start, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.After(time.Second, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine(start, 1)
	var at time.Time
	e.After(90*time.Second, func() { at = e.Now() })
	e.RunAll()
	if !at.Equal(start.Add(90 * time.Second)) {
		t.Fatalf("event saw Now = %v", at)
	}
	if !e.Now().Equal(start.Add(90 * time.Second)) {
		t.Fatalf("final Now = %v", e.Now())
	}
}

func TestPastEventRunsNow(t *testing.T) {
	e := NewEngine(start, 1)
	e.After(10*time.Second, func() {
		e.At(start, func() {}) // in the past
	})
	e.RunAll()
	if !e.Now().Equal(start.Add(10 * time.Second)) {
		t.Fatalf("Now = %v, past event must not rewind clock", e.Now())
	}
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	e := NewEngine(start, 1)
	count := 0
	e.Every(start.Add(time.Second), time.Second, func(time.Time) { count++ })
	n := e.Run(start.Add(10*time.Second + 500*time.Millisecond))
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if n != 10 {
		t.Fatalf("processed = %d", n)
	}
	if !e.Now().Equal(start.Add(10*time.Second + 500*time.Millisecond)) {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestRunUntilExclusive(t *testing.T) {
	e := NewEngine(start, 1)
	fired := false
	e.At(start.Add(time.Minute), func() { fired = true })
	e.Run(start.Add(time.Minute)) // boundary event must NOT run
	if fired {
		t.Fatal("boundary event ran; Run is exclusive of until")
	}
	e.Run(start.Add(time.Minute + time.Nanosecond))
	if !fired {
		t.Fatal("event past boundary did not run")
	}
}

func TestEveryPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(start, 1).Every(start, 0, func(time.Time) {})
}

func TestEveryFiringTimes(t *testing.T) {
	e := NewEngine(start, 1)
	var times []time.Time
	e.Every(start.Add(time.Second), 2*time.Second, func(ts time.Time) {
		times = append(times, ts)
	})
	e.Run(start.Add(6 * time.Second))
	want := []time.Duration{1 * time.Second, 3 * time.Second, 5 * time.Second}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i, d := range want {
		if !times[i].Equal(start.Add(d)) {
			t.Fatalf("tick %d at %v, want %v", i, times[i], start.Add(d))
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(start, 42)
		var out []float64
		for i := 0; i < 10; i++ {
			e.After(time.Duration(i)*time.Second, func() {
				out = append(out, e.Rand().Float64())
			})
		}
		e.RunAll()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProcessedAndPending(t *testing.T) {
	e := NewEngine(start, 1)
	e.After(time.Second, func() {})
	e.After(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.RunAll()
	if e.Processed() != 2 || e.Pending() != 0 {
		t.Fatalf("Processed = %d Pending = %d", e.Processed(), e.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(start, 1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			e.After(time.Second, recurse)
		}
	}
	e.After(time.Second, recurse)
	e.RunAll()
	if depth != 5 {
		t.Fatalf("depth = %d", depth)
	}
	if !e.Now().Equal(start.Add(5 * time.Second)) {
		t.Fatalf("Now = %v", e.Now())
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine(start, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i)*time.Microsecond, func() {})
	}
	e.RunAll()
}

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int64 { return e.nProc }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.events) }
