package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refRho, refCongestion and refStep are verbatim copies of Microservice.Rho,
// Microservice.congestion and Instance.Step before Step computed the
// service time and ρⁿ once (receivers turned into first parameters): the
// reference Step must match bit for bit.
func refRho(m Microservice, rps float64, freqMHz, turboMHz int) float64 {
	if rps < 0 {
		rps = 0
	}
	es := m.ServiceTimeMS(freqMHz, turboMHz) / 1000
	return rps * es / float64(m.Cores)
}

func refCongestion(m Microservice, k, rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	if rho > rhoSaturation {
		rho = rhoSaturation
	}
	return k * math.Pow(rho, m.Exponent) / (1 - rho)
}

func refStep(in *Instance, dt time.Duration, rps float64, freqMHz, turboMHz int, rng *rand.Rand) StepResult {
	m := in.Service
	rho := refRho(m, rps, freqMHz, turboMHz)
	esMS := m.ServiceTimeMS(freqMHz, turboMHz)
	capRPS := m.CapacityRPS(freqMHz, turboMHz)

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

	avg := esMS*(1+refCongestion(m, m.AvgKnee, rho)) + backlogMS
	p99 := esMS*(1+refCongestion(m, m.Knee, rho)) + backlogMS
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

// sameStep reports whether two step results and the instances' backlogs
// agree bit for bit.
func sameStep(a, b StepResult, ina, inb *Instance) bool {
	bits := math.Float64bits
	return bits(a.AvgMS) == bits(b.AvgMS) && bits(a.P99MS) == bits(b.P99MS) &&
		bits(a.Util) == bits(b.Util) && bits(a.Rho) == bits(b.Rho) && a.SLOvio == b.SLOvio &&
		bits(ina.backlogReqs) == bits(inb.backlogReqs)
}

// TestStepMatchesReference drives every SocialNet service, plus one with a
// non-integer exponent, through seeded random sequences of steps: rates
// from negative (signed zero included) through deep overload, frequencies
// from the capping floor to the overclock maximum and beyond, step lengths
// that build and drain backlogs, and both a nil and a seeded noise source.
// Each step's result and the backlog it leaves must match the reference bit
// for bit.
func TestStepMatchesReference(t *testing.T) {
	services := append(SocialNet(), Microservice{
		Name: "odd", BaseLatencyMS: 1.7, CPUSensitivity: 0.6, Knee: 3.1, AvgKnee: 0.9, Exponent: 2.37, Cores: 3,
	})
	backlogged, drained := 0, 0
	for _, svc := range services {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var noiseA, noiseB *rand.Rand
			if seed%2 == 0 {
				noiseA, noiseB = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			}
			got, want := NewInstance(svc), NewInstance(svc)
			capacity := svc.CapacityRPS(turbo, turbo)
			for step := 0; step < 400; step++ {
				var rps float64
				switch rng.Intn(6) {
				case 0:
					rps = -capacity * rng.Float64()
				case 1:
					rps = math.Copysign(0, -1)
				case 2:
					rps = 0
				case 3:
					rps = capacity * (1 + 2*rng.Float64()) // overload
				default:
					rps = capacity * rng.Float64()
				}
				freq := 1200 + rng.Intn(3200)
				dt := time.Duration(rng.Intn(30)+1) * time.Second
				had := got.backlogReqs > 0
				a := got.Step(dt, rps, freq, turbo, noiseA)
				b := refStep(want, dt, rps, freq, turbo, noiseB)
				if !sameStep(a, b, got, want) {
					t.Fatalf("%s seed %d step %d (rps %v, %d MHz, %v): %+v backlog %v, reference %+v backlog %v",
						svc.Name, seed, step, rps, freq, dt, a, got.backlogReqs, b, want.backlogReqs)
				}
				if had {
					backlogged++
					if got.backlogReqs == 0 {
						drained++
					}
				}
			}
		}
	}
	if backlogged == 0 || drained == 0 {
		t.Fatalf("%d steps met a backlog and %d drained one: the draw misses a backlog state", backlogged, drained)
	}
}
