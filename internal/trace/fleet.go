package trace

import (
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/parallel"
)

// ClusterClass groups racks by their power headroom, matching Table I's
// High/Medium/Low-power cluster split.
type ClusterClass int

const (
	// HighPower racks run close to their limit; overclocking headroom is
	// scarce and mispredictions are punished.
	HighPower ClusterClass = iota
	// MediumPower racks have moderate headroom.
	MediumPower
	// LowPower racks have abundant headroom.
	LowPower
)

// String returns the class name as used in Table I.
func (c ClusterClass) String() string {
	switch c {
	case HighPower:
		return "High-Power"
	case MediumPower:
		return "Medium-Power"
	case LowPower:
		return "Low-Power"
	default:
		return fmt.Sprintf("ClusterClass(%d)", int(c))
	}
}

// TargetP99Util returns the generation knob for the class: the rack's P99
// power draw as a fraction of its limit.
func (c ClusterClass) TargetP99Util() float64 {
	switch c {
	case HighPower:
		// §III-Q2: on power-constrained racks the headroom available at
		// the 99th percentile covers only ~75% of what full overclocking
		// needs — baseline P99 at 90% of the limit reproduces that.
		return 0.93
	case MediumPower:
		return 0.86
	default:
		return 0.62
	}
}

// FleetRack annotates a generated rack trace with its region and class.
type FleetRack struct {
	*RackTrace
	Region string
	Class  ClusterClass
}

// FleetConfig parameterizes fleet generation.
type FleetConfig struct {
	Seed           int64
	Regions        []string
	RacksPerRegion int
	// ClassMix gives the fraction of racks per class; it is normalized.
	ClassMix map[ClusterClass]float64
	Start    time.Time
	Step     time.Duration
	Duration time.Duration
	// RackTemplate provides all remaining rack-level knobs; Name, Start,
	// Step, Duration and TargetP99Util are overridden per rack.
	RackTemplate RackGenConfig
}

// DefaultFleetConfig returns a fleet sized for simulation experiments:
// four regions (like Fig 8) with an even class mix.
func DefaultFleetConfig(start time.Time, duration time.Duration) FleetConfig {
	return FleetConfig{
		Seed:           1,
		Regions:        []string{"Region1", "Region2", "Region3", "Region4"},
		RacksPerRegion: 25,
		ClassMix: map[ClusterClass]float64{
			HighPower: 1, MediumPower: 1, LowPower: 1,
		},
		Start:        start,
		Step:         5 * time.Minute,
		Duration:     duration,
		RackTemplate: DefaultRackGenConfig("", start, duration),
	}
}

// NumRacks returns the fleet's total rack count (regions x racks/region).
func (c FleetConfig) NumRacks() int {
	return len(c.Regions) * c.RacksPerRegion
}

// validate reports whether the fleet-level shape is usable.
func (c FleetConfig) validate() error {
	if len(c.Regions) == 0 || c.RacksPerRegion <= 0 {
		return fmt.Errorf("trace: empty fleet config")
	}
	return nil
}

// classWeights normalizes the class mix into per-class weights plus their
// total, defaulting to an even mix when unset.
func (c FleetConfig) classWeights() (classes []ClusterClass, weights []float64, totalW float64) {
	classes = []ClusterClass{HighPower, MediumPower, LowPower}
	for _, cl := range classes {
		w := c.ClassMix[cl]
		if w < 0 {
			w = 0
		}
		weights = append(weights, w)
		totalW += w
	}
	if totalW == 0 {
		weights = []float64{1, 1, 1}
		totalW = 3
	}
	return classes, weights, totalW
}

// GenFleetRack generates rack idx (0 <= idx < cfg.NumRacks()) of the fleet
// described by cfg, without materializing any sibling. The rack's random
// stream — and its class draw — is seeded from (cfg.Seed, idx) via
// parallel.ChildSeed, so the result is a pure function of the config and
// the index: adding racks, removing regions, or generating across any number
// of workers never perturbs the racks that remain, and callers that fold
// racks one at a time get memory O(1 rack) instead of O(fleet).
func GenFleetRack(cfg FleetConfig, idx int) (*FleetRack, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= cfg.NumRacks() {
		return nil, fmt.Errorf("trace: rack index %d out of range [0,%d)", idx, cfg.NumRacks())
	}
	classes, weights, totalW := cfg.classWeights()

	region := cfg.Regions[idx/cfg.RacksPerRegion]
	i := idx % cfg.RacksPerRegion
	rng := rand.New(rand.NewSource(parallel.ChildSeed(cfg.Seed, uint64(idx))))

	// Deterministic class draw from the rack's own stream.
	x := rng.Float64() * totalW
	class := classes[len(classes)-1]
	for k, w := range weights {
		if x < w {
			class = classes[k]
			break
		}
		x -= w
	}
	rcfg := cfg.RackTemplate
	rcfg.Name = fmt.Sprintf("%s-rack%03d", region, i)
	rcfg.Start = cfg.Start
	rcfg.Step = cfg.Step
	rcfg.Duration = cfg.Duration
	rcfg.TargetP99Util = class.TargetP99Util()
	rack, err := GenRack(rcfg, rng)
	if err != nil {
		return nil, err
	}
	return &FleetRack{RackTrace: rack, Region: region, Class: class}, nil
}
