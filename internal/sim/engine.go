// Package sim implements the deterministic discrete-event simulation engine
// that drives the SmartOClock large-scale evaluation (the paper's §V-B
// simulator) and the emulated 36-server cluster (§V-A).
//
// Events execute in timestamp order; ties are broken by scheduling order so
// runs with the same seed are fully reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Engine is a discrete-event simulator with a virtual clock.
// It is not safe for concurrent use: all events run on the caller's
// goroutine, which is exactly what makes runs deterministic.
type Engine struct {
	now    time.Time
	events eventHeap
	seq    int64
	rng    *rand.Rand
	nProc  int64
}

// NewEngine returns an engine whose clock starts at start, with a
// deterministic random source derived from seed.
func NewEngine(start time.Time, seed int64) *Engine {
	return &Engine{now: start, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// At schedules fn to run at virtual time at. Times in the past run at the
// current time (immediately on the next Step).
func (e *Engine) At(at time.Time, fn func()) {
	if at.Before(e.now) {
		at = e.now
	}
	e.seq++
	heap.Push(&e.events, &event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run delay after the current virtual time.
func (e *Engine) After(delay time.Duration, fn func()) {
	e.At(e.now.Add(delay), fn)
}

// Every schedules fn to run at start and then every interval thereafter.
// fn receives the firing time. It panics if interval is not positive.
func (e *Engine) Every(start time.Time, interval time.Duration, fn func(time.Time)) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	var tick func()
	next := start
	tick = func() {
		at := next
		fn(at)
		next = at.Add(interval)
		e.seq++
		heap.Push(&e.events, &event{at: next, seq: e.seq, fn: tick})
	}
	e.seq++
	if start.Before(e.now) {
		start = e.now
		next = start
	}
	heap.Push(&e.events, &event{at: start, seq: e.seq, fn: tick})
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	e.nProc++
	ev.fn()
	return true
}

// Run executes events until the clock reaches until (exclusive) or no events
// remain. The clock is left at until if it was reached, otherwise at the
// last event time. It returns the number of events executed by this call.
func (e *Engine) Run(until time.Time) int64 {
	start := e.nProc
	for len(e.events) > 0 {
		next := e.events[0].at
		if !next.Before(until) {
			break
		}
		e.Step()
	}
	if e.now.Before(until) {
		e.now = until
	}
	return e.nProc - start
}

// RunAll executes all pending events (including ones scheduled while
// running). Use with care: a self-rescheduling ticker never drains.
func (e *Engine) RunAll() int64 {
	start := e.nProc
	for e.Step() {
	}
	return e.nProc - start
}

// event is one scheduled callback.
type event struct {
	at  time.Time
	seq int64
	fn  func()
}

// eventHeap orders events by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
