package workload

import (
	"container/heap"
	"math"
	"math/rand"
)

// This file holds a request-granularity M/M/c queue simulator and the
// Erlang-C analytics it is validated against. The interpolation latency
// model in microservice.go is what the cluster emulation runs; the
// simulator is the reference that cross-validates that model's regime and
// anchors the congestion behaviour to first principles.

// ErlangC returns the probability that an arriving request must wait in an
// M/M/c system with offered load a = λ/μ and c servers. It returns 1 when
// the system is unstable (a >= c).
func ErlangC(a float64, c int) float64 {
	if c <= 0 || a <= 0 {
		return 0
	}
	if a >= float64(c) {
		return 1
	}
	// Compute with the standard recurrence to avoid factorial overflow:
	// B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1)) gives Erlang-B, then
	// C = B / (1 - rho*(1-B)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}

// MeanSojournMMC returns the analytic mean time in system (queueing +
// service) for an M/M/c queue, in the same time unit as 1/mu. It returns
// +Inf for an unstable system.
func MeanSojournMMC(lambda, mu float64, c int) float64 {
	if mu <= 0 || c <= 0 {
		return math.Inf(1)
	}
	a := lambda / mu
	if a >= float64(c) {
		return math.Inf(1)
	}
	pw := ErlangC(a, c)
	wq := pw / (float64(c)*mu - lambda)
	return wq + 1/mu
}

// qsEvent is a scheduled departure in the queue simulation.
type qsEvent struct {
	at float64
}

type qsHeap []qsEvent

func (h qsHeap) Len() int           { return len(h) }
func (h qsHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h qsHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *qsHeap) Push(x any)        { *h = append(*h, x.(qsEvent)) }
func (h *qsHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
func (h qsHeap) peek() float64 { return h[0].at }

// SimulateMMC runs an event-driven M/M/c FCFS simulation for n requests
// with arrival rate lambda and per-server service rate mu (both per
// second), returning each request's sojourn time in milliseconds. The
// simulation is deterministic for a given rng.
func SimulateMMC(rng *rand.Rand, lambda, mu float64, c, n int) []float64 {
	if lambda <= 0 || mu <= 0 || c <= 0 || n <= 0 {
		return nil
	}
	exp := func(rate float64) float64 { return rng.ExpFloat64() / rate }

	sojourns := make([]float64, 0, n)
	departures := &qsHeap{}
	busy := 0
	var queue []float64 // arrival times of waiting requests

	arrival := exp(lambda)
	generated := 0
	for len(sojourns) < n {
		// Next event: arrival or earliest departure.
		if generated < n && (departures.Len() == 0 || arrival <= departures.peek()) {
			now := arrival
			generated++
			arrival = now + exp(lambda)
			if busy < c {
				busy++
				svc := exp(mu)
				heap.Push(departures, qsEvent{at: now + svc})
				// A request that never waits sojourns for exactly its
				// service time.
				sojourns = append(sojourns, svc*1000)
			} else {
				queue = append(queue, now)
			}
			continue
		}
		if departures.Len() == 0 {
			break // exhausted arrivals with idle servers
		}
		ev := heap.Pop(departures).(qsEvent)
		if len(queue) > 0 {
			arrived := queue[0]
			queue = queue[1:]
			svc := exp(mu)
			heap.Push(departures, qsEvent{at: ev.at + svc})
			sojourns = append(sojourns, (ev.at+svc-arrived)*1000)
		} else {
			busy--
		}
	}
	if len(sojourns) > n {
		sojourns = sojourns[:n]
	}
	return sojourns
}
