package experiment

import (
	"fmt"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/chaos"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/invariant"
	"smartoclock/internal/parallel"
	"smartoclock/internal/policy"
	"smartoclock/internal/power"
	"smartoclock/internal/sim"
	"smartoclock/internal/trace"
)

// The scenario zoo experiment: every policy set crossed with every
// adversarial scenario, each cell a full multi-rack simulation with the
// invariant checker watching — including the decision-time admission audit
// that catches over-granting policies the feedback loop would otherwise
// mask. The bar is uniform: zero violations in every cell, byte-identical
// output at any worker count.

// ZooConfig parameterizes the policy × scenario matrix.
type ZooConfig struct {
	Seed     int64
	Start    time.Time
	Duration time.Duration
	// Tick is the control cadence (workload updates, sOA ticks, rack
	// manager ticks, invariant checks).
	Tick time.Duration

	// Policies are the policy sets to certify; nil means the safe catalog
	// (policy.Factories()).
	Policies []policy.Factory
	// Scenarios are the regimes to run; nil means trace.ZooCatalog(Seed).
	Scenarios []trace.ZooScenario

	// Mild control-plane faults (always on: a zoo without message loss
	// certifies less than production sees).
	DropProb  float64
	DelayProb float64
	MaxDelay  time.Duration
	BaseDelay time.Duration

	// Per-core overclock time budgets.
	BudgetEpoch      time.Duration
	OCBudgetFraction float64
	// RackLimitScale scales each rack's limit relative to estimated
	// baseline-plus-half-overclock draw (<1 keeps enforcement busy).
	RackLimitScale float64
	// EnforcementGrace bounds how long rack power may exceed the limit
	// before the invariant fires.
	EnforcementGrace time.Duration

	// Workers/ShuffleSeed control cell-level parallelism; output is
	// byte-identical for any values (each cell derives its own seed from
	// its index, never from dispatch order).
	Workers     int
	ShuffleSeed int64

	// Provenance enables causal decision records: each cell carries a
	// deterministic recorder seeded from the cell seed, spans ride the
	// control-plane messages, and the resulting log lands on
	// ZooCellResult.Provenance. Off or on, the simulation result bytes are
	// identical (the zero-observer-effect contract).
	Provenance bool
}

// DefaultZooConfig returns the profile used by `socsim -zoo` and CI: the
// full safe-policy catalog against the full scenario catalog, 90 minutes
// of simulated time per cell, 10% message loss.
func DefaultZooConfig() ZooConfig {
	return ZooConfig{
		Seed:             1,
		Start:            time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC),
		Duration:         90 * time.Minute,
		Tick:             5 * time.Second,
		DropProb:         0.10,
		DelayProb:        0.10,
		MaxDelay:         10 * time.Second,
		BaseDelay:        50 * time.Millisecond,
		BudgetEpoch:      time.Hour,
		OCBudgetFraction: 0.25,
		RackLimitScale:   0.90,
		EnforcementGrace: 15 * time.Second,
		Provenance:       true,
	}
}

// Validate reports whether the configuration is runnable.
func (c ZooConfig) Validate() error {
	switch {
	case c.Tick <= 0 || c.Duration < c.Tick:
		return fmt.Errorf("experiment: bad zoo tick/duration %v/%v", c.Tick, c.Duration)
	case c.BudgetEpoch <= 0 || c.OCBudgetFraction <= 0:
		return fmt.Errorf("experiment: bad zoo OC budget %v/%v", c.BudgetEpoch, c.OCBudgetFraction)
	case c.EnforcementGrace < c.Tick:
		return fmt.Errorf("experiment: zoo EnforcementGrace %v below one tick %v", c.EnforcementGrace, c.Tick)
	case c.RackLimitScale <= 0:
		return fmt.Errorf("experiment: zoo RackLimitScale = %v, must be positive", c.RackLimitScale)
	}
	return c.transportConfig(c.Seed).Validate()
}

// transportConfig is a cell's mild message-fault model under the cell seed.
func (c ZooConfig) transportConfig(seed int64) chaos.Config {
	return chaos.Config{
		Seed:      seed + 1,
		DropProb:  c.DropProb,
		DelayProb: c.DelayProb,
		MaxDelay:  c.MaxDelay,
		BaseDelay: c.BaseDelay,
	}
}

// ZooCellResult is one (policy, scenario) cell of the matrix.
type ZooCellResult struct {
	Policy   string
	Scenario string
	Ticks    int
	// Requests/Granted prove the cell wasn't vacuously safe.
	Requests int
	Granted  int
	// Warnings/CapEvents across the cell's racks: enforcement activity.
	Warnings  int
	CapEvents int
	// AdmissionAudits is how many power-side admission decisions the
	// decision-time audit saw.
	AdmissionAudits int
	InvariantChecks int64
	Violations      []invariant.Violation
	// FleetObservation holds the cell's causal decision log in Provenance
	// (nil with provenance off). Records are in emission order, which the
	// deterministic engine makes byte-stable for the cell's seed.
	FleetObservation
	// Err is non-nil when any invariant was violated.
	Err error
}

// ZooResult is the full matrix.
type ZooResult struct {
	Cells []ZooCellResult
	// Err is the first cell failure, nil when the whole matrix is clean.
	Err error
}

// driftHost is the sOA-facing view of a server with an imperfect power
// sensor: every reading is scaled by the scenario's gain while the rack
// manager and the invariants keep seeing the true draw.
type driftHost struct {
	*cluster.Server
	gain func() float64
}

func (h *driftHost) Power() float64 { return h.gain() * h.Server.Power() }

// RunZooCell executes one (policy, scenario) cell with the given seed.
func RunZooCell(cfg ZooConfig, f policy.Factory, sc trace.ZooScenario, seed int64) *ZooCellResult {
	res := &ZooCellResult{Policy: f.Name, Scenario: sc.Name}
	eng := sim.NewEngine(cfg.Start, seed)

	tr := chaos.NewTransport(cfg.transportConfig(seed), eng, agent.NewBus())

	// One observer per cell, shared by its racks: single-goroutine engine,
	// deterministic span sequence derived from the cell seed. It records
	// nothing when provenance is off — every Emit/Span call in the rig
	// degrades to a no-op.
	ob := newObserver(observeKnobs{provenance: cfg.Provenance, seed: seed})

	checker := invariant.NewChecker()
	checker.Instrument(nil, nil, ob.prov)

	soaCfg := stressSOAConfig()
	soaCfg.Policies = f

	racks := make([]*rig[*cluster.Server], sc.Racks)
	for r := range racks {
		name := fmt.Sprintf("zoo-r%d", r)
		audit := invariant.AdmissionWithinBudget(checker, name, 0)
		servers := make([]*rigServer[*cluster.Server], sc.ServersPerRack)
		est, fullOC := 0.0, 0.0
		for i := range servers {
			hw := sc.HW(r, i)
			s := newRigServer(cluster.NewServer(fmt.Sprintf("%s-s%02d", name, i), hw, 0), hw.OCCoreCost(), hw.Cores/4)
			s.host = &driftHost{Server: s.srv, gain: func() float64 {
				return sc.SensorGain(r, i, eng.Now().Sub(cfg.Start))
			}}
			// Limit estimate: halfway between all-quiet and VM-hot draw
			// (demand waves run roughly half duty), plus half the fleet
			// overclocking at once.
			base := sc.Util(r, i, 0, false)
			setUtil(s, sc.Util(r, i, 0, true), base)
			est += 0.5 * s.srv.Power()
			setUtil(s, base, base)
			est += 0.5 * s.srv.Power()
			fullOC += s.srv.OCDeltaWatts(len(s.vmCores), s.srv.MaxOCMHz(), 0.9)
			servers[i] = s
		}
		zr := &rig[*cluster.Server]{
			goaID:    "goa/" + name,
			limit:    cfg.RackLimitScale * (est + 0.5*fullOC),
			soaCfg:   soaCfg,
			bcfg:     rigBudgetConfig(cfg.BudgetEpoch, cfg.OCBudgetFraction),
			start:    cfg.Start,
			servers:  servers,
			observer: ob,
		}
		zr.soaCfg.OnAdmit = func(a core.AdmissionAudit) {
			res.AdmissionAudits++
			audit(a)
		}
		zr.assemble(power.DefaultRackConfig(name, zr.limit))
		// The zoo has no outages, so the budget push always runs.
		wireRig(eng, tr, zr)
		scheduleRigMessages(eng, tr, zr, cfg.Tick)

		// Invariants: the zoo's bar is all of them, every tick.
		zr.watch(checker, cfg.EnforcementGrace)
		zr.watchLedgers(checker, 12*cfg.Tick)
		racks[r] = zr
	}

	// Main control tick.
	eng.Every(cfg.Start.Add(cfg.Tick), cfg.Tick, func(now time.Time) {
		res.Ticks++
		off := now.Sub(cfg.Start)
		for r, zr := range racks {
			for i, s := range zr.servers {
				base := sc.Util(r, i, off, false)
				vm := base
				want := sc.Demand(r, i, off)
				if want {
					vm = sc.Util(r, i, off, true)
				}
				setUtil(s, vm, base)
				zr.stepServer(s, now, want)
			}
			zr.tickRack(now, cfg.Tick)
		}
		checker.Check(now)
	})

	eng.Run(cfg.Start.Add(cfg.Duration))

	for _, zr := range racks {
		res.Requests += zr.requests
		res.Granted += zr.granted
		res.Warnings += zr.rack.Warnings()
		res.CapEvents += zr.rack.CapEvents()
	}
	res.InvariantChecks = checker.Checks()
	res.Violations = checker.Violations()
	res.FleetObservation = ob.freeze()
	res.Err = checker.Err()
	return res
}

// Observation merges the cells' observations in matrix-index order: its
// Provenance is the canonical whole-zoo log, byte-identical for any worker
// count, and CriticalPath summarizes it.
func (r *ZooResult) Observation() *FleetObservation {
	parts := make([]*FleetObservation, len(r.Cells))
	for i := range r.Cells {
		parts[i] = &r.Cells[i].FleetObservation
	}
	return mergeObservations(parts...)
}

// RunZoo executes the full policy × scenario matrix. Cells run in parallel
// under cfg.Workers; each cell's seed derives from its fixed matrix index,
// so the result is byte-identical for any worker count or dispatch order.
func RunZoo(cfg ZooConfig) (*ZooResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pols := cfg.Policies
	if pols == nil {
		pols = policy.Factories()
	}
	scs := cfg.Scenarios
	if scs == nil {
		scs = trace.ZooCatalog(cfg.Seed)
	}
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}

	// Cell i is scenario i / len(pols) under policy set i % len(pols).
	opts := parallel.Options{Workers: cfg.Workers, ShuffleSeed: cfg.ShuffleSeed}
	results := parallel.Map(len(pols)*len(scs), opts, func(i int) *ZooCellResult {
		return RunZooCell(cfg, pols[i%len(pols)], scs[i/len(pols)], parallel.ChildSeed(cfg.Seed, uint64(i)))
	})

	res := &ZooResult{Cells: make([]ZooCellResult, len(results))}
	for i, c := range results {
		res.Cells[i] = *c
		if res.Err == nil && c.Err != nil {
			res.Err = fmt.Errorf("zoo cell %s×%s: %w", c.Policy, c.Scenario, c.Err)
		}
	}
	return res, nil
}

// Format renders the matrix as a report table.
func (r *ZooResult) Format() string {
	tbl := &Table{
		Caption: "Zoo: policy × scenario stress matrix (invariant violations must be 0)",
		Headers: []string{"Scenario", "Policy", "Ticks", "Reqs", "Granted", "Warn", "Caps", "Audits", "Checks", "Violations"},
	}
	for _, c := range r.Cells {
		tbl.AddRow(c.Scenario, c.Policy, c.Ticks, c.Requests, c.Granted,
			c.Warnings, c.CapEvents, c.AdmissionAudits, c.InvariantChecks, len(c.Violations))
	}
	return tbl.Format()
}
