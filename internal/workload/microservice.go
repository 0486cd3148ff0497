// Package workload models the applications the paper evaluates:
//
//   - SocialNet: eight latency-critical microservices (DeathStarBench) with
//     queueing-theoretic latency that explodes as load approaches capacity,
//     eases with overclocking, and halves its load under scale-out;
//   - MLTrain: throughput-optimized training whose rate tracks frequency;
//   - WebConf: a deployment-level conferencing service whose VM utilization
//     tracks request rate and frequency.
//
// The microservice latency model is the standard interpolation form for
// M/M/c-like systems: latency(ρ) = base · (1 + k·ρⁿ/(1−ρ)). The knee
// parameter k differs per service, reproducing the paper's observation that
// some services (Usr) tolerate high CPU utilization while others (UrlShort)
// violate their SLO even at low utilization (§III-Q1).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// SLOMultiplier is the paper's SLO definition: 5× a service's execution
// time on an unloaded system at turbo.
const SLOMultiplier = 5.0

// Microservice describes one latency-critical service tier.
type Microservice struct {
	// Name identifies the service (paper Fig 2 x-axis).
	Name string
	// BaseLatencyMS is the unloaded execution time at turbo frequency.
	BaseLatencyMS float64
	// CPUSensitivity in [0,1] is the fraction of execution time that
	// scales inversely with core frequency; the rest is memory/IO bound
	// and does not benefit from overclocking.
	CPUSensitivity float64
	// Knee controls how early congestion inflates the tail: P99 latency is
	// base·(1 + Knee·ρⁿ/(1−ρ)). Higher knee = SLO violated at lower load.
	Knee float64
	// AvgKnee is the analogous (smaller) coefficient for mean latency.
	AvgKnee float64
	// Exponent is n in the congestion term.
	Exponent float64
	// Cores is the number of worker threads one instance uses.
	Cores int
}

// SLOms returns the service's latency SLO in milliseconds.
func (m Microservice) SLOms() float64 { return SLOMultiplier * m.BaseLatencyMS }

// ServiceTimeMS returns the per-request execution time at the given core
// frequency: the CPU-bound fraction contracts with frequency, the rest is
// invariant.
func (m Microservice) ServiceTimeMS(freqMHz, turboMHz int) float64 {
	fr := float64(freqMHz) / float64(turboMHz)
	if fr <= 0 {
		fr = 1
	}
	return m.BaseLatencyMS * (m.CPUSensitivity/fr + (1 - m.CPUSensitivity))
}

// CapacityRPS returns the request rate at which ρ = 1 for the given
// frequency.
func (m Microservice) CapacityRPS(freqMHz, turboMHz int) float64 {
	es := m.ServiceTimeMS(freqMHz, turboMHz) / 1000
	return float64(m.Cores) / es
}

// rhoSaturation is the utilization beyond which the open queue is treated
// as overloaded and requests accumulate in the instance backlog.
const rhoSaturation = 0.98

// maxBacklogSeconds bounds the queue: requests beyond this many seconds of
// work are shed (timeouts/load shedding), as any production service would.
const maxBacklogSeconds = 30.0

// StepResult reports one simulation step of a microservice instance.
type StepResult struct {
	AvgMS  float64 // mean response latency over the step
	P99MS  float64 // tail response latency over the step
	Util   float64 // CPU utilization in [0,1]
	Rho    float64 // offered load (can exceed 1 when overloaded)
	SLOvio bool    // whether P99 exceeded the SLO
}

// Instance is one running replica of a microservice with queue state.
type Instance struct {
	Service Microservice
	// backlogReqs is the number of queued requests beyond what the open
	// model covers; positive only after overload episodes.
	backlogReqs float64
}

// NewInstance creates an idle instance of service m.
func NewInstance(m Microservice) *Instance { return &Instance{Service: m} }

// Step advances the instance by dt under an arrival rate of rps at the
// given frequency, returning the latency/utilization observed during the
// step. Optional rng adds ±5% lognormal measurement noise; pass nil for the
// pure analytic value.
func (in *Instance) Step(dt time.Duration, rps float64, freqMHz, turboMHz int, rng *rand.Rand) StepResult {
	m := in.Service
	// The offered load ρ = λ·E[S]/c (none for a negative rate) and the
	// capacity c/E[S] at which ρ = 1, from one service time.
	esMS := m.ServiceTimeMS(freqMHz, turboMHz)
	es := esMS / 1000
	offered := rps
	if offered < 0 {
		offered = 0
	}
	rho := offered * es / float64(m.Cores)
	capRPS := float64(m.Cores) / es

	// Overload bookkeeping: arrivals beyond rhoSaturation·capacity queue
	// up; spare capacity drains the backlog.
	if rho > rhoSaturation {
		in.backlogReqs += (rps - rhoSaturation*capRPS) * dt.Seconds()
		if max := capRPS * maxBacklogSeconds; in.backlogReqs > max {
			in.backlogReqs = max
		}
	} else if in.backlogReqs > 0 {
		in.backlogReqs -= (rhoSaturation*capRPS - rps) * dt.Seconds()
		if in.backlogReqs < 0 {
			in.backlogReqs = 0
		}
	}

	// Queueing delay from the backlog applies to every request.
	backlogMS := in.backlogReqs / capRPS * 1000

	// The congestion factors k·ρⁿ/(1−ρ) for the mean and the tail share
	// one ρⁿ, at a ρ capped just below saturation (the backlog model covers
	// the rest).
	var avgCong, p99Cong float64
	if !(rho <= 0) { // a NaN load stays NaN
		r := min(rho, rhoSaturation)
		pw := math.Pow(r, m.Exponent)
		avgCong = m.AvgKnee * pw / (1 - r)
		p99Cong = m.Knee * pw / (1 - r)
	}
	avg := esMS*(1+avgCong) + backlogMS
	p99 := esMS*(1+p99Cong) + backlogMS
	if rng != nil {
		noise := math.Exp(rng.NormFloat64() * 0.05)
		avg *= noise
		p99 *= noise
	}

	util := rho
	if util > 1 {
		util = 1
	}
	if in.backlogReqs > 0 {
		util = 1
	}
	return StepResult{
		AvgMS:  avg,
		P99MS:  p99,
		Util:   util,
		Rho:    rho,
		SLOvio: p99 > m.SLOms(),
	}
}

// Reset clears queue state.
func (in *Instance) Reset() { in.backlogReqs = 0 }

// Deployment is a load-balanced group of identical instances: arrivals
// split evenly, so scaling out halves per-instance load.
type Deployment struct {
	Service   Microservice
	Instances []*Instance
}

// NewDeployment creates a deployment with n instances of m.
// It panics if n is not positive.
func NewDeployment(m Microservice, n int) *Deployment {
	if n <= 0 {
		panic(fmt.Sprintf("workload: deployment needs >= 1 instance, got %d", n))
	}
	d := &Deployment{Service: m}
	for i := 0; i < n; i++ {
		d.Instances = append(d.Instances, NewInstance(m))
	}
	return d
}

// Step advances every instance by dt with total arrival rate totalRPS split
// evenly; freqMHz applies to all instances (per-instance frequencies are
// driven by the cluster layer). Returns the load-balanced aggregate result:
// the mean of per-instance averages and the worst per-instance P99.
func (d *Deployment) Step(dt time.Duration, totalRPS float64, freqMHz, turboMHz int, rng *rand.Rand) StepResult {
	per := totalRPS / float64(len(d.Instances))
	var agg StepResult
	for _, in := range d.Instances {
		r := in.Step(dt, per, freqMHz, turboMHz, rng)
		agg.AvgMS += r.AvgMS
		agg.Util += r.Util
		agg.Rho += r.Rho
		if r.P99MS > agg.P99MS {
			agg.P99MS = r.P99MS
		}
	}
	n := float64(len(d.Instances))
	agg.AvgMS /= n
	agg.Util /= n
	agg.Rho /= n
	agg.SLOvio = agg.P99MS > d.Service.SLOms()
	return agg
}

// SocialNet returns the eight SocialNet microservices used across the
// evaluation, calibrated so that under the paper's High load a single turbo
// instance violates most SLOs, a single overclocked instance meets most,
// and two turbo instances (ScaleOut) meet all — while Usr tolerates high
// utilization and UrlShort violates early (Fig 2).
func SocialNet() []Microservice {
	base := func(name string, lat, sens, knee float64) Microservice {
		return Microservice{
			Name: name, BaseLatencyMS: lat, CPUSensitivity: sens,
			Knee: knee, AvgKnee: knee / 4, Exponent: 2, Cores: 4,
		}
	}
	return []Microservice{
		base("ComposePost", 4.0, 0.85, 1.2),
		base("HomeTl", 2.5, 0.80, 1.0),
		base("UserTl", 2.2, 0.80, 1.1),
		base("UrlShort", 0.8, 0.90, 7.0), // fragile: violates at low util
		base("UserMention", 1.0, 0.85, 2.5),
		base("Text", 1.5, 0.75, 1.6),
		base("Media", 3.0, 0.45, 1.3), // partially memory/IO bound
		base("Usr", 0.9, 0.85, 0.35),  // tolerant: fine at high util
	}
}

// FindService returns the SocialNet service with the given name.
func FindService(name string) (Microservice, bool) {
	for _, m := range SocialNet() {
		if m.Name == name {
			return m, true
		}
	}
	return Microservice{}, false
}
