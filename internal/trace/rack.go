package trace

import (
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/machine"
	"smartoclock/internal/stats"
	"smartoclock/internal/timeseries"
)

// VMSpec places one VM of a service on a server.
type VMSpec struct {
	Service ServiceProfile
	Cores   int
}

// ServerSpec describes one server's hardware and its VM placement.
// Operators spread a workload's VMs across servers, so any one server hosts
// a mix of services (§III-Q2) — that mix is what VMs captures.
type ServerSpec struct {
	Name string
	HW   machine.Config
	VMs  []VMSpec
}

// UtilAtClock returns the server's mean core utilization at the instant c:
// each VM contributes its service's utilization weighted by its core count.
// Every VM reads the one Clock instead of decomposing the instant itself.
func (s *ServerSpec) UtilAtClock(c Clock, rng *rand.Rand) float64 {
	if s.HW.Cores == 0 {
		return 0
	}
	busy := 0.0
	for i := range s.VMs {
		vm := &s.VMs[i]
		busy += float64(vm.Cores) * vm.Service.UtilAtClock(c, rng)
	}
	u := busy / float64(s.HW.Cores)
	if u > 1 {
		u = 1
	}
	return u
}

// PowerAt returns the server's modeled power draw at utilization u with all
// cores at turbo (the non-overclocked baseline the traces record).
func (s ServerSpec) PowerAt(u float64) float64 {
	return s.HW.PredictPower(0, s.HW.TurboMHz, 0, u)
}

// ServerTrace is one server's generated utilization and power series.
type ServerTrace struct {
	Spec  ServerSpec
	Util  *timeseries.Series
	Power *timeseries.Series
}

// RackTrace is one rack's generated trace: per-server series plus the rack
// power limit.
type RackTrace struct {
	Name       string
	LimitWatts float64
	Servers    []*ServerTrace
}

// RackPower returns the rack's total power series (sum of servers).
func (r *RackTrace) RackPower() *timeseries.Series {
	if len(r.Servers) == 0 {
		return nil
	}
	total := r.Servers[0].Power.Clone()
	for _, s := range r.Servers[1:] {
		// Same start/step by construction; Add cannot fail.
		if err := total.Add(s.Power); err != nil {
			panic(fmt.Sprintf("trace: misaligned server series: %v", err))
		}
	}
	return total
}

// UtilizationStats returns the rack's average, median and P99 power
// utilization (draw/limit) — the per-rack metrics behind Fig 5.
func (r *RackTrace) UtilizationStats() (avg, p50, p99 float64) {
	p := r.RackPower()
	if p == nil || r.LimitWatts <= 0 {
		return 0, 0, 0
	}
	util := make([]float64, p.Len())
	for i, v := range p.Values {
		util[i] = v / r.LimitWatts
	}
	ps := stats.Percentiles(util, 50, 99)
	return stats.Mean(util), ps[0], ps[1]
}

// RackGenConfig parameterizes rack trace generation.
type RackGenConfig struct {
	Name    string
	Servers int
	HW      machine.Config
	// Profiles is the service catalog VMs are drawn from.
	Profiles []ServiceProfile
	// VMsPerServerMin/Max bound how many VMs each server hosts.
	VMsPerServerMin, VMsPerServerMax int
	// VMCoresMin/Max bound per-VM core counts (paper: many small 2-8 core
	// VMs).
	VMCoresMin, VMCoresMax int
	// TargetP99Util sets the rack power limit so that the rack's P99 power
	// utilization equals this value — the knob that produces the paper's
	// High/Medium/Low-power cluster classes.
	TargetP99Util float64
	// OutlierDayProb is the chance that the trace contains one anomalous
	// day with OutlierBoost multiplicative extra load.
	OutlierDayProb float64
	OutlierBoost   float64
	// OutlierWithinDays restricts the anomalous day to the first N days
	// (0 = anywhere in the trace). Useful to keep evaluation windows
	// clean when studying predictor robustness.
	OutlierWithinDays int

	Start    time.Time
	Step     time.Duration
	Duration time.Duration
}

// DefaultRackGenConfig returns a generation config matching the paper's
// environment: 24-32 servers per rack (we use 28), 5-minute samples, small
// multi-tenant VMs.
func DefaultRackGenConfig(name string, start time.Time, duration time.Duration) RackGenConfig {
	return RackGenConfig{
		Name:            name,
		Servers:         28,
		HW:              machine.DefaultConfig(),
		Profiles:        Catalog(),
		VMsPerServerMin: 4,
		VMsPerServerMax: 8,
		VMCoresMin:      2,
		VMCoresMax:      8,
		TargetP99Util:   0.85,
		OutlierDayProb:  0.1,
		OutlierBoost:    0.3,
		Start:           start,
		Step:            5 * time.Minute,
		Duration:        duration,
	}
}

// Validate reports whether the configuration is usable.
func (c RackGenConfig) Validate() error {
	switch {
	case c.Servers <= 0:
		return fmt.Errorf("trace: Servers = %d", c.Servers)
	case len(c.Profiles) == 0:
		return fmt.Errorf("trace: empty profile catalog")
	case c.VMsPerServerMin <= 0 || c.VMsPerServerMax < c.VMsPerServerMin:
		return fmt.Errorf("trace: bad VM count bounds [%d,%d]", c.VMsPerServerMin, c.VMsPerServerMax)
	case c.VMCoresMin <= 0 || c.VMCoresMax < c.VMCoresMin:
		return fmt.Errorf("trace: bad VM core bounds [%d,%d]", c.VMCoresMin, c.VMCoresMax)
	case c.TargetP99Util <= 0 || c.TargetP99Util > 1.2:
		return fmt.Errorf("trace: TargetP99Util = %v", c.TargetP99Util)
	case c.Step <= 0 || c.Duration < c.Step:
		return fmt.Errorf("trace: bad step/duration %v/%v", c.Step, c.Duration)
	}
	return c.HW.Validate()
}

// randBetween returns a uniform int in [lo, hi].
func randBetween(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// GenServerSpec draws one server's VM placement from the catalog.
func GenServerSpec(cfg RackGenConfig, name string, rng *rand.Rand) ServerSpec {
	spec := ServerSpec{Name: name, HW: cfg.HW}
	nVMs := randBetween(rng, cfg.VMsPerServerMin, cfg.VMsPerServerMax)
	budget := cfg.HW.Cores
	for v := 0; v < nVMs && budget > 0; v++ {
		cores := randBetween(rng, cfg.VMCoresMin, cfg.VMCoresMax)
		if cores > budget {
			cores = budget
		}
		profile := cfg.Profiles[rng.Intn(len(cfg.Profiles))]
		// Per-VM phase jitter decorrelates instances of the same service.
		profile.PhaseShiftHours += rng.Float64()*2 - 1
		spec.VMs = append(spec.VMs, VMSpec{Service: profile, Cores: cores})
		budget -= cores
	}
	return spec
}

// GenRack generates one rack's full trace deterministically from rng.
func GenRack(cfg RackGenConfig, rng *rand.Rand) (*RackTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	steps := int(cfg.Duration / cfg.Step)
	rack := &RackTrace{Name: cfg.Name, Servers: make([]*ServerTrace, 0, cfg.Servers)}

	// Optional outlier day for the whole rack (a holiday, an incident).
	outlierDay := -1
	if rng.Float64() < cfg.OutlierDayProb {
		days := int(cfg.Duration / (24 * time.Hour))
		if cfg.OutlierWithinDays > 0 && days > cfg.OutlierWithinDays {
			days = cfg.OutlierWithinDays
		}
		if days > 0 {
			outlierDay = rng.Intn(days)
		}
	}

	for i := 0; i < cfg.Servers; i++ {
		spec := GenServerSpec(cfg, fmt.Sprintf("%s-s%02d", cfg.Name, i), rng)
		// The tick count is known up front: sizing both series here keeps
		// the per-tick loop below allocation-free (guarded by AllocsPerRun).
		util := timeseries.NewWithCap(cfg.Start, cfg.Step, steps)
		power := timeseries.NewWithCap(cfg.Start, cfg.Step, steps)
		// Servers draw from rng in turn, so the tick loop must stay inside
		// the server loop: each tick is decomposed once per server, for all
		// of its VMs, rather than once per rack into a table of Clocks.
		for j := 0; j < steps; j++ {
			ts := cfg.Start.Add(time.Duration(j) * cfg.Step)
			u := spec.UtilAtClock(ClockOf(ts), rng)
			if outlierDay >= 0 && int(ts.Sub(cfg.Start)/(24*time.Hour)) == outlierDay {
				u *= 1 + cfg.OutlierBoost
				if u > 1 {
					u = 1
				}
			}
			util.Append(u)
			power.Append(spec.PowerAt(u))
		}
		rack.Servers = append(rack.Servers, &ServerTrace{Spec: spec, Util: util, Power: power})
	}

	// Set the limit so the rack's P99 utilization hits the target class.
	total := rack.RackPower()
	p99 := stats.P99(total.Values)
	rack.LimitWatts = p99 / cfg.TargetP99Util
	return rack, nil
}
