package workload

import (
	"math"
	"time"
)

// MLTrain models throughput-optimized machine-learning training
// (FunctionBench): constantly high utilization, throughput proportional to
// core frequency. It is the power-hungry neighbour in the cluster
// experiments and is never overclocked — but it suffers when power capping
// throttles its frequency.
type MLTrain struct {
	// StepsPerSecondAtTurbo is the training throughput at turbo frequency.
	StepsPerSecondAtTurbo float64
	// Util is the workload's constant CPU utilization.
	Util float64

	totalSteps float64
	elapsed    time.Duration
}

// NewMLTrain returns a training job with the given turbo throughput.
func NewMLTrain(stepsPerSecond float64) *MLTrain {
	return &MLTrain{StepsPerSecondAtTurbo: stepsPerSecond, Util: 0.9}
}

// Throughput returns steps/second at the given frequency (linear scaling).
func (m *MLTrain) Throughput(freqMHz, turboMHz int) float64 {
	return m.StepsPerSecondAtTurbo * float64(freqMHz) / float64(turboMHz)
}

// Step advances training by dt at the given frequency, accumulating steps.
func (m *MLTrain) Step(dt time.Duration, freqMHz, turboMHz int) {
	m.totalSteps += m.Throughput(freqMHz, turboMHz) * dt.Seconds()
	m.elapsed += dt
}

// MeanThroughput returns average steps/second over the run.
func (m *MLTrain) MeanThroughput() float64 {
	if m.elapsed == 0 {
		return 0
	}
	return m.totalSteps / m.elapsed.Seconds()
}

// WebConf models the paper's proprietary conferencing service for the
// production experiments (§V-C, Figs 16-17): per-VM CPU utilization is
// proportional to the request rate and inversely proportional to effective
// capacity, which grows superlinearly with frequency (higher frequency also
// improves boost residency and cache behaviour).
type WebConf struct {
	// CapacityRPSAtTurbo is the request rate that saturates one VM at
	// turbo.
	CapacityRPSAtTurbo float64
	// CapacityExponent is the exponent on the frequency ratio; calibrated
	// to ≈1.3 so overclocking 3.3→4.0 GHz serves ≈28% more load at equal
	// utilization (Fig 16).
	CapacityExponent float64
}

// NewWebConf returns a conferencing VM model with the paper's calibration.
func NewWebConf(capacityRPS float64) WebConf {
	return WebConf{CapacityRPSAtTurbo: capacityRPS, CapacityExponent: 1.3}
}

// Capacity returns the VM's request capacity at the given frequency.
func (w WebConf) Capacity(freqMHz, turboMHz int) float64 {
	fr := float64(freqMHz) / float64(turboMHz)
	return w.CapacityRPSAtTurbo * math.Pow(fr, w.CapacityExponent)
}

// Util returns CPU utilization for rps requests/second at the given
// frequency, clamped to [0,1].
func (w WebConf) Util(rps float64, freqMHz, turboMHz int) float64 {
	c := w.Capacity(freqMHz, turboMHz)
	if c <= 0 {
		return 1
	}
	u := rps / c
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// RPSAtUtil returns the request rate the VM can serve at the given target
// utilization and frequency — the inverse of Util, used for Fig 16's
// "same utilization, more load" reading.
func (w WebConf) RPSAtUtil(util float64, freqMHz, turboMHz int) float64 {
	if util < 0 {
		util = 0
	}
	return util * w.Capacity(freqMHz, turboMHz)
}

// DeploymentUtil returns the deployment-level mean utilization across VM
// utilizations — WebConf's provisioning metric (§III-Q1, Fig 4): operators
// keep this below a target (e.g. 50%) to absorb an availability-zone
// failure.
func DeploymentUtil(vmUtils []float64) float64 {
	if len(vmUtils) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range vmUtils {
		sum += u
	}
	return sum / float64(len(vmUtils))
}
