package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

var propStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// runScripted executes a randomized but seed-determined schedule and
// returns the execution trace: event labels in the order they ran.
func runScripted(seed int64) []string {
	e := NewEngine(propStart, seed)
	var order []string
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 40; i++ {
		i := i
		delay := time.Duration(rng.Intn(3600)) * time.Second
		switch rng.Intn(3) {
		case 0:
			e.After(delay, func() { order = append(order, fmt.Sprintf("after-%d@%v", i, e.Now())) })
		case 1:
			// Nested scheduling from inside a callback.
			e.After(delay, func() {
				order = append(order, fmt.Sprintf("outer-%d@%v", i, e.Now()))
				e.After(time.Duration(rng.Intn(600))*time.Second, func() {
					order = append(order, fmt.Sprintf("inner-%d@%v", i, e.Now()))
				})
			})
		default:
			n := 0
			e.Every(e.Now().Add(delay), time.Duration(1+rng.Intn(900))*time.Second, func(at time.Time) {
				if n < 5 {
					order = append(order, fmt.Sprintf("tick-%d-%d@%v", i, n, at))
				}
				n++
			})
		}
	}
	// Every one-shot lands within 70 minutes; tickers record five firings.
	e.Run(propStart.Add(2 * time.Hour))
	return order
}

// TestSameSeedSameEventOrder: same seed ⇒ byte-identical event order across
// two independent runs (the determinism property every chaos experiment
// leans on).
func TestSameSeedSameEventOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := runScripted(seed)
		b := runScripted(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: run lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: event %d differs: %q vs %q", seed, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
	}
}

// TestRunLeavesClockExactlyAtUntil: Run(until) must leave the clock at
// until — whether events stop before it, land exactly on it, or none exist.
func TestRunLeavesClockExactlyAtUntil(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		e := NewEngine(propStart, 1)
		until := propStart.Add(time.Duration(1+rng.Intn(7200)) * time.Second)
		for i := 0; i < rng.Intn(20); i++ {
			e.After(time.Duration(rng.Intn(10000))*time.Second, func() {})
		}
		if rng.Intn(2) == 0 {
			e.At(until, func() {}) // boundary event: exclusive, must not run
		}
		e.Run(until)
		if !e.Now().Equal(until) {
			t.Fatalf("trial %d: clock at %v, want exactly %v", trial, e.Now(), until)
		}
		// Remaining events must all be at or after until (Run is exclusive).
		for e.Step() {
			if e.Now().Before(until) {
				t.Fatalf("trial %d: event before until survived Run", trial)
			}
		}
	}
}
