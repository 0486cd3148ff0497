package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/invariant"
	"smartoclock/internal/machine"
	"smartoclock/internal/parallel"
	"smartoclock/internal/power"
	"smartoclock/internal/sim"
	"smartoclock/internal/timeseries"
	"smartoclock/internal/trace"
)

// The oversubscription experiments: power headroom spent the opposite way
// from overclocking. RunOversub sweeps the oversubscription ratio on a rack
// fed by a deterministic deployment-arrival stream — predicted-peak
// admission in front, severity-ordered capping behind — and reports the
// admitted-servers / cap-events / availability tradeoff. RunContention puts
// both consumers on one rack: production servers running sOA overclock
// sessions (severity-critical) against harvest deployments admitted by
// oversubscription, competing for the same headroom. Both are watched by
// the invariant battery (NoBrownout, SeverityOrder, plus the overclock
// safety invariants in the contention cells) and are byte-identical at any
// worker count, like every other experiment.

// OversubConfig parameterizes the oversubscription and contention sweeps.
type OversubConfig struct {
	Seed     int64
	Start    time.Time
	Duration time.Duration
	// Tick is the control cadence (utilization updates, rack manager
	// ticks, invariant checks).
	Tick time.Duration

	// Ratios is the oversubscription-ratio sweep; each ratio is one cell.
	Ratios []float64
	// LimitWatts is the provisioned rack limit of the standalone cells.
	LimitWatts float64

	// Arrivals / ArrivalEvery shape the deployment-arrival stream.
	Arrivals     int
	ArrivalEvery time.Duration
	// HistoryStep is the sampling step of the synthetic power history each
	// arrival's day template is fitted on.
	HistoryStep time.Duration
	// Quantile / MaxTemplateAge parameterize predicted-peak admission.
	Quantile       float64
	MaxTemplateAge time.Duration

	// Contention-cell knobs: BaseServers production servers run sOAs, and
	// the rack limit is ContentionLimitScale × their reserved predicted
	// peak, so the headroom both policy families fight over is explicit.
	BaseServers          int
	ContentionLimitScale float64
	BudgetEpoch          time.Duration
	OCBudgetFraction     float64

	// Workers/ShuffleSeed control cell-level parallelism; results are
	// byte-identical for any values.
	Workers     int
	ShuffleSeed int64
}

// DefaultOversubConfig returns the profile used by `socsim -oversub` /
// `-contention` and CI: three ratios straddling the provisioned limit, two
// hours of simulated time, ~18 deployment arrivals.
func DefaultOversubConfig() OversubConfig {
	return OversubConfig{
		Seed:                 1,
		Start:                time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC),
		Duration:             2 * time.Hour,
		Tick:                 15 * time.Second,
		Ratios:               []float64{0.90, 1.05, 1.20, 1.40},
		LimitWatts:           2600,
		Arrivals:             18,
		ArrivalEvery:         5 * time.Minute,
		HistoryStep:          15 * time.Minute,
		Quantile:             0.98,
		MaxTemplateAge:       14 * 24 * time.Hour,
		BaseServers:          6,
		ContentionLimitScale: 1.20,
		BudgetEpoch:          time.Hour,
		OCBudgetFraction:     0.25,
	}
}

// Validate reports whether the configuration is runnable.
func (c OversubConfig) Validate() error {
	switch {
	case c.Tick <= 0 || c.Duration < c.Tick:
		return fmt.Errorf("experiment: bad oversub tick/duration %v/%v", c.Tick, c.Duration)
	case len(c.Ratios) == 0:
		return fmt.Errorf("experiment: oversub sweep has no ratios")
	case c.LimitWatts <= 0:
		return fmt.Errorf("experiment: oversub LimitWatts = %v", c.LimitWatts)
	case c.Arrivals < 1 || c.ArrivalEvery <= 0:
		return fmt.Errorf("experiment: oversub arrivals %d every %v", c.Arrivals, c.ArrivalEvery)
	case c.HistoryStep <= 0 || c.HistoryStep > 24*time.Hour:
		return fmt.Errorf("experiment: oversub HistoryStep = %v", c.HistoryStep)
	case c.Quantile <= 0 || c.Quantile > 1:
		return fmt.Errorf("experiment: oversub Quantile = %v out of (0,1]", c.Quantile)
	case c.MaxTemplateAge <= 0:
		return fmt.Errorf("experiment: oversub MaxTemplateAge = %v", c.MaxTemplateAge)
	case c.BaseServers < 1 || c.ContentionLimitScale <= 1:
		return fmt.Errorf("experiment: oversub base servers %d, limit scale %v (must be >1)",
			c.BaseServers, c.ContentionLimitScale)
	case c.BudgetEpoch <= 0 || c.OCBudgetFraction <= 0:
		return fmt.Errorf("experiment: bad oversub OC budget %v/%v", c.BudgetEpoch, c.OCBudgetFraction)
	}
	for _, r := range c.Ratios {
		if r <= 0 {
			return fmt.Errorf("experiment: oversub ratio %v, must be positive", r)
		}
	}
	return nil
}

// OversubCellResult is one ratio cell of a sweep.
type OversubCellResult struct {
	Ratio float64
	// Offered/Admitted/Rejected count admission decisions; Fallback counts
	// decisions that used the conservative nameplate path (absent, stale
	// or unusable template).
	Offered   int
	Admitted  int
	Rejected  int
	Fallback  int
	Warnings  int
	CapEvents int
	// ServerTicks/CappedTicks book availability of the admitted
	// deployments: the fraction of admitted server-ticks spent capped.
	ServerTicks int
	CappedTicks int
	// MaxUtil is the highest post-enforcement rack draw as a fraction of
	// the provisioned limit.
	MaxUtil float64
	// OCCoreHours is overclocked core-hours delivered to the production
	// servers (contention cells only).
	OCCoreHours     float64
	InvariantChecks int64
	Violations      []invariant.Violation
	// Err is non-nil when any invariant was violated.
	Err error
}

// Availability returns the fraction of admitted server-ticks spent
// uncapped, 1 when nothing was admitted.
func (c *OversubCellResult) Availability() float64 {
	if c.ServerTicks == 0 {
		return 1
	}
	return 1 - float64(c.CappedTicks)/float64(c.ServerTicks)
}

// OversubResult is the standalone ratio sweep.
type OversubResult struct {
	Cells []OversubCellResult
	Err   error
}

// ContentionResult is the combined overclocking-vs-oversubscription sweep.
type ContentionResult struct {
	Cells []OversubCellResult
	Err   error
}

// admittedServer is one deployment placed on the rack, with its private
// utilization RNG (seeded from the sweep seed and arrival index, so the
// stream is independent of admission order).
type admittedServer struct {
	srv *cluster.Server
	arr trace.Arrival
	rng *rand.Rand
}

// fitArrivalTemplate builds the candidate's power day template from a
// synthetic history: the arrival's service shape sampled every HistoryStep
// over its HistoryDays, converted to watts through its hardware model.
func fitArrivalTemplate(start time.Time, step time.Duration, a trace.Arrival, seed int64) *timeseries.WeekTemplate {
	histStart := start.AddDate(0, 0, -a.HistoryDays)
	hist := timeseries.New(histStart, step)
	rng := rand.New(rand.NewSource(parallel.ChildSeed(seed, uint64(5000+a.Index))))
	n := int(time.Duration(a.HistoryDays) * 24 * time.Hour / step)
	for i := 0; i < n; i++ {
		u := a.Service.UtilAt(histStart.Add(time.Duration(i)*step), rng)
		hist.Append(a.HW.IdleWatts + float64(a.HW.Cores)*a.HW.CorePower(a.HW.TurboMHz, u))
	}
	return timeseries.BuildWeekTemplate(hist, timeseries.ReduceMedian)
}

// oversubCell is one ratio cell: the deployment-arrival stream admitted onto
// one rack, and in contention cells the production servers' rig sharing it.
type oversubCell struct {
	cfg OversubConfig
	eng *sim.Engine
	// limit is the rack's provisioned limit, which admission plans against.
	limit float64
	// rig holds the production base servers (none outside contention cells)
	// over the cell's rack, which the admitted deployments join. It has no
	// gOA: its limit is the bases' reserve, whose even share each sOA runs on.
	rig      *rig[*cluster.Server]
	adm      *power.Admission
	checker  *invariant.Checker
	admitted []*admittedServer
	res      *OversubCellResult
}

// runOversubCell executes one ratio cell. contention adds the production
// sOA servers; mode and admitAll select the unsafe canary variants.
func runOversubCell(cfg OversubConfig, ratio float64, seed int64, contention bool, mode power.CapMode, admitAll bool) *OversubCellResult {
	c, err := newOversubCell(cfg, ratio, seed, contention, mode, admitAll)
	if err != nil {
		return &OversubCellResult{Ratio: ratio, Err: err}
	}
	c.eng.Run(cfg.Start.Add(cfg.Duration))
	return c.result()
}

// newOversubCell builds the cell's rack, admission and invariant battery and
// registers the arrivals and the control tick on its engine.
func newOversubCell(cfg OversubConfig, ratio float64, seed int64, contention bool, mode power.CapMode, admitAll bool) (*oversubCell, error) {
	c := &oversubCell{
		cfg:     cfg,
		eng:     sim.NewEngine(cfg.Start, seed),
		limit:   cfg.LimitWatts,
		rig:     &rig[*cluster.Server]{start: cfg.Start},
		checker: invariant.NewChecker(),
		res:     &OversubCellResult{Ratio: ratio},
	}
	if contention {
		c.rig.limit = c.buildBases()
		c.limit = cfg.ContentionLimitScale * c.rig.limit
	}

	rackCfg := power.DefaultRackConfig("oversub-r0", c.limit)
	rackCfg.Mode = mode
	if mode == power.CapInvertedUnsafe {
		// Shallow emergency target for the inverted canary: the default deep
		// target caps every class to the floor, which leaves no uncapped
		// witness for invariant.SeverityOrder to pair against. Stopping
		// partway guarantees the inversion is observable.
		rackCfg.TargetFraction = 0.90
	}
	c.rig.assembleRack(rackCfg)

	adm, err := power.NewAdmission(power.OversubConfig{
		Ratio:          ratio,
		Quantile:       cfg.Quantile,
		MaxTemplateAge: cfg.MaxTemplateAge,
		AdmitAllUnsafe: admitAll,
	}, c.limit)
	if err != nil {
		return nil, err
	}
	c.adm = adm
	adm.Reserve(c.rig.limit)

	invariant.NoBrownout(c.checker, c.rig.rack, 1e-6)
	invariant.SeverityOrder(c.checker, c.rig.rack)
	if contention {
		c.bootBases()
	}

	// The deployment-arrival stream: admission decides at each arrival. The
	// stream, day templates and utilization traces all derive from the sweep
	// seed, not the cell seed: every ratio cell faces the exact same
	// workload, so admitted/rejected/capped differences across a sweep are
	// attributable to the ratio alone.
	stream := trace.NewArrivalStream(cfg.Seed+17, cfg.ArrivalEvery, cfg.Arrivals)
	for i := 0; i < cfg.Arrivals; i++ {
		a := stream.Arrival(i)
		if a.At >= cfg.Duration {
			continue
		}
		if contention && a.Severity == 0 {
			a.Severity = 1 // class 0 belongs to the production base
		}
		c.res.Offered++
		c.eng.At(cfg.Start.Add(a.At), func() { c.admit(a) })
	}
	c.eng.Every(cfg.Start.Add(cfg.Tick), cfg.Tick, c.tick)
	return c, nil
}

// buildBases adds the production base servers to the rig and returns their
// predicted-peak reserve: hot VM cores, warm background, plus half the
// overclock delta — the same estimate the zoo uses to size rack limits.
func (c *oversubCell) buildBases() float64 {
	cfg := c.cfg
	c.rig.soaCfg = stressSOAConfig()
	c.rig.bcfg = rigBudgetConfig(cfg.BudgetEpoch, cfg.OCBudgetFraction)
	reserve := 0.0
	hw := machine.DefaultConfig()
	for i := 0; i < cfg.BaseServers; i++ {
		s := newRigServer(cluster.NewServer(fmt.Sprintf("base-%02d", i), hw, 100+i), hw.OCCoreCost(), hw.Cores/4)
		s.srv.SetSeverity(power.SeverityCritical)
		setUtil(s, 0.90, 0.40)
		reserve += s.srv.Power() + 0.5*s.srv.OCDeltaWatts(len(s.vmCores), s.srv.MaxOCMHz(), 0.9)
		setUtil(s, 0.40, 0.40)
		c.rig.servers = append(c.rig.servers, s)
	}
	return reserve
}

// bootBases starts every base's sOA on its even share of the reserve and arms
// the overclocking safety battery: competing with oversubscription must not
// loosen any overclock bound. Rack events reach the sOAs directly.
func (c *oversubCell) bootBases() {
	rg := c.rig
	for _, s := range rg.servers {
		rg.boot(s, rg.start)
		invariant.SessionsWithinGrant(c.checker, rg.rack.Name(), s.srv, func() *core.SOA { return s.soa })
		invariant.CoreBudgetsNeverOverdrawn(c.checker, rg.rack.Name(), s.srv, rg.bcfg, rg.start, 12*c.cfg.Tick)
	}
	rg.rack.Subscribe(func(ev power.Event) {
		for _, s := range rg.servers {
			s.soa.OnRackEvent(c.eng.Now(), ev)
		}
	})
}

// admit decides one arrival; a granted deployment joins the rack with its
// severity class.
func (c *oversubCell) admit(a trace.Arrival) {
	cand := power.Candidate{
		Name:           a.Name,
		NameplateWatts: a.HW.NameplateWatts(),
		Severity:       power.Severity(a.Severity),
	}
	if a.HistoryDays > 0 {
		cand.Template = fitArrivalTemplate(c.cfg.Start, c.cfg.HistoryStep, a, c.cfg.Seed)
		cand.FittedAt = c.cfg.Start.AddDate(0, 0, -a.TemplateAgeDays)
	}
	d := c.adm.Admit(c.eng.Now(), cand)
	if d.Conservative {
		c.res.Fallback++
	}
	if !d.Granted {
		c.res.Rejected++
		return
	}
	c.res.Admitted++
	srv := cluster.NewServer(a.Name, a.HW, int(power.NumSeverities)-1-a.Severity)
	srv.SetSeverity(power.Severity(a.Severity))
	c.rig.rack.AddServer(srv)
	rng := rand.New(rand.NewSource(parallel.ChildSeed(c.cfg.Seed, uint64(9000+a.Index))))
	c.admitted = append(c.admitted, &admittedServer{srv: srv, arr: a, rng: rng})
}

// tick runs one control tick: deployment and base utilization, the bases'
// overclock demand and sOAs, hardware, the rack manager and the invariants.
func (c *oversubCell) tick(now time.Time) {
	off := now.Sub(c.cfg.Start)
	for _, ad := range c.admitted {
		u := ad.arr.Service.UtilAt(now, ad.rng)
		for k := 0; k < ad.srv.NumCores(); k++ {
			ad.srv.SetCoreUtil(k, u)
		}
	}
	rg := c.rig
	for i, s := range rg.servers {
		base := trace.BenignUtil(c.cfg.Seed, 0, i, off, false)
		vm := base
		want := trace.DemandWave(0, i, len(rg.servers), off, 20*time.Minute, 0.45)
		if want {
			vm = trace.BenignUtil(c.cfg.Seed, 0, i, off, true)
		}
		setUtil(s, vm, base)
		rg.stepServer(s, now, want)
		c.res.OCCoreHours += float64(s.soa.ActiveOCCores()) * c.cfg.Tick.Hours()
	}
	for _, ad := range c.admitted {
		ad.srv.Advance(c.cfg.Tick)
	}
	rg.tickRack(now, c.cfg.Tick)
	for _, ad := range c.admitted {
		c.res.ServerTicks++
		if ad.srv.CapLevel() > 0 {
			c.res.CappedTicks++
		}
	}
	if u := rg.rack.Power() / c.limit; u > c.res.MaxUtil {
		c.res.MaxUtil = u
	}
	c.checker.Check(now)
}

// result aggregates the finished cell.
func (c *oversubCell) result() *OversubCellResult {
	res := c.res
	res.Warnings = c.rig.rack.Warnings()
	res.CapEvents = c.rig.rack.CapEvents()
	res.InvariantChecks = c.checker.Checks()
	res.Violations = c.checker.Violations()
	res.Err = c.checker.Err()
	return res
}

// gatherOversubCells wraps the parallel sweep shared by both runners.
func gatherOversubCells(cfg OversubConfig, contention bool, seedBase uint64) ([]OversubCellResult, error) {
	opts := parallel.Options{Workers: cfg.Workers, ShuffleSeed: cfg.ShuffleSeed}
	results := parallel.Map(len(cfg.Ratios), opts, func(i int) *OversubCellResult {
		return runOversubCell(cfg, cfg.Ratios[i], parallel.ChildSeed(cfg.Seed, seedBase+uint64(i)),
			contention, power.CapSeverity, false)
	})
	cells := make([]OversubCellResult, len(results))
	var firstErr error
	for i, c := range results {
		cells[i] = *c
		if firstErr == nil && c.Err != nil {
			firstErr = fmt.Errorf("oversub ratio %.2f: %w", c.Ratio, c.Err)
		}
	}
	return cells, firstErr
}

// RunOversub executes the standalone oversubscription sweep: predicted-peak
// admission against severity-ordered capping across the configured ratios.
// Cells run in parallel under cfg.Workers; each cell's seed derives from
// its fixed index, so the result is byte-identical for any worker count or
// dispatch order.
func RunOversub(cfg OversubConfig) (*OversubResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cells, err := gatherOversubCells(cfg, false, 0)
	return &OversubResult{Cells: cells, Err: err}, nil
}

// RunContention executes the combined sweep: oversubscription admission and
// sOA overclock sessions competing for the same rack headroom.
func RunContention(cfg OversubConfig) (*ContentionResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cells, err := gatherOversubCells(cfg, true, 100)
	return &ContentionResult{Cells: cells, Err: err}, nil
}

// formatOversubCells renders a sweep as a report table.
func formatOversubCells(caption string, cells []OversubCellResult, withOC bool) string {
	headers := []string{"Ratio", "Offered", "Admit", "Reject", "Fallback", "Warn", "Caps", "Avail%", "MaxUtil", "Checks", "Viol"}
	if withOC {
		headers = append(headers[:7], append([]string{"OC core-h"}, headers[7:]...)...)
	}
	tbl := &Table{Caption: caption, Headers: headers}
	for i := range cells {
		c := &cells[i]
		row := []any{
			fmt.Sprintf("%.2f", c.Ratio), c.Offered, c.Admitted, c.Rejected, c.Fallback,
			c.Warnings, c.CapEvents,
		}
		if withOC {
			row = append(row, c.OCCoreHours)
		}
		row = append(row, 100*c.Availability(), c.MaxUtil, c.InvariantChecks, len(c.Violations))
		tbl.AddRow(row...)
	}
	return tbl.Format()
}

// Format renders the standalone sweep.
func (r *OversubResult) Format() string {
	return formatOversubCells(
		"Oversubscription: predicted-peak admission vs severity-classed capping (invariant violations must be 0)",
		r.Cells, false)
}

// Format renders the contention sweep.
func (r *ContentionResult) Format() string {
	return formatOversubCells(
		"Contention: oversubscription admission vs overclock sessions on shared headroom (invariant violations must be 0)",
		r.Cells, true)
}
