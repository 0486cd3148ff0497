package experiment

import (
	"fmt"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/causal"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/parallel"
	"smartoclock/internal/power"
	"smartoclock/internal/predict"
	"smartoclock/internal/store"
	"smartoclock/internal/timeseries"
	"smartoclock/internal/trace"
)

// FleetSimConfig parameterizes the large-scale trace-driven simulation
// behind Table I (§V-B).
type FleetSimConfig struct {
	Seed          int64
	RacksPerClass int
	// TrainDays of trace feed the templates; EvalDays are simulated with
	// the agents running.
	TrainDays, EvalDays int
	// Step is the trace/simulation tick (the paper's traces are 5-minute).
	Step time.Duration
	// OCThreshold is the service utilization above which a VM's cores
	// demand overclocking.
	OCThreshold float64
	// OCBudgetFraction is the weekly per-core overclock time allowance.
	OCBudgetFraction float64

	// The remaining knobs exist for ablation studies; zero values select
	// the defaults used by Table I.

	// TemplateStrategy picks the predictor behind power templates:
	// "dailymed" (default), "dailymax", "flatmed", "flatmax" or "weekly".
	TemplateStrategy string
	// ExploreStepWatts overrides the sOA exploration increment.
	ExploreStepWatts float64
	// WarnFraction overrides the rack warning threshold.
	WarnFraction float64

	// CheckpointTick, when positive, checkpoints every rack's control plane
	// (gOA + all sOAs with their lifetime ledgers) at the start of that
	// evaluation tick, serializes it through the store envelope, tears the
	// live agents down and replaces them with fresh agents restored from the
	// decoded bytes. The run must be byte-identical to an uninterrupted one
	// — the roundtrip test uses this to prove checkpoint/restore is lossless
	// mid-run, at every worker count.
	CheckpointTick int

	// Workers bounds how many rack simulations run concurrently;
	// <= 0 selects GOMAXPROCS. Results are bit-identical for every
	// worker count: each rack shard is independent and per-shard results
	// are reduced in shard-index order, never completion order.
	Workers int
	// ShuffleShards, when nonzero, dispatches rack shards in a seeded
	// random order instead of ascending index order. Output must not
	// change; the determinism and race tests set it to prove that.
	ShuffleShards int64

	// Observe enables the observability layer: every shard runs with its
	// own metrics registry and event tracer, merged in shard-index order so
	// the combined snapshot and trace are byte-identical for any worker
	// count. Off by default — the uninstrumented hot path pays only nil
	// checks.
	Observe bool
	// RecordEvery, when positive and Observe is set, additionally samples
	// every shard's registry into per-interval time series at this sim-time
	// cadence. Shard recordings merge in shard-index order, so recorded
	// series are byte-identical across worker counts like snapshots are.
	RecordEvery time.Duration
	// TraceOnly restricts the event trace to these components (see
	// obs.NewTracer); empty records everything.
	TraceOnly []obs.Component
}

// DefaultFleetSimConfig returns a configuration sized to finish in seconds
// while exercising every mechanism; scale RacksPerClass/EvalDays up on the
// CLI for tighter statistics.
func DefaultFleetSimConfig() FleetSimConfig {
	return FleetSimConfig{
		Seed:             1,
		RacksPerClass:    6,
		TrainDays:        7,
		EvalDays:         5,
		Step:             5 * time.Minute,
		OCThreshold:      0.55,
		OCBudgetFraction: 0.25,
	}
}

// Validate reports whether the configuration is runnable. The fleet's rack
// manager and per-core lifetime budget check their own bounds.
func (c FleetSimConfig) Validate() error {
	switch {
	case c.RacksPerClass <= 0:
		return fmt.Errorf("experiment: fleet RacksPerClass = %d, must be positive", c.RacksPerClass)
	case c.TrainDays <= 0 || c.EvalDays <= 0:
		return fmt.Errorf("experiment: fleet TrainDays/EvalDays = %d/%d, both must be positive", c.TrainDays, c.EvalDays)
	case c.Step <= 0 || c.Step > 24*time.Hour:
		return fmt.Errorf("experiment: fleet Step = %v outside (0, 24h]", c.Step)
	}
	if ticks := c.EvalDays * int(24*time.Hour/c.Step); c.CheckpointTick < 0 || c.CheckpointTick >= ticks {
		return fmt.Errorf("experiment: fleet CheckpointTick = %d outside [0, %d)", c.CheckpointTick, ticks)
	}
	if _, err := predictorFor(c.TemplateStrategy); err != nil {
		return err
	}
	if err := c.rackConfig("fleet", 1).Validate(); err != nil {
		return err
	}
	return c.budgetConfig().Validate()
}

// rackConfig is the rack manager of a fleet rack: the evaluation default,
// with the ablations' warning threshold when one is set.
func (c *FleetSimConfig) rackConfig(name string, limit float64) power.RackConfig {
	rc := power.DefaultRackConfig(name, limit)
	if c.WarnFraction != 0 {
		rc.WarnFraction = c.WarnFraction
		if rc.RestoreFraction > c.WarnFraction {
			rc.RestoreFraction = c.WarnFraction - 0.03
		}
	}
	return rc
}

// budgetConfig is the per-core overclock time budget: a weekly allowance of
// OCBudgetFraction.
func (c *FleetSimConfig) budgetConfig() lifetime.BudgetConfig {
	return rigBudgetConfig(7*24*time.Hour, c.OCBudgetFraction)
}

// fleetStart is a Monday at midnight: training week is Mon-Sun, evaluation
// starts the following Monday.
var fleetStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// traceHost replays a server's baseline power trace and adds the modeled
// overclock power of whatever frequencies the agents set. It is a rig host:
// core.Host for the sOA and power.Server for the rack manager, exactly as
// the paper's simulator does: "Models are used to estimate the power impact
// of overclocking; CPU utilization and core frequency are the input."
type traceHost struct {
	name       string
	hw         machine.Config
	ocCoreCost float64 // hw.OCCoreCost(), which Power reads per core
	desired    []int
	capLevel   int
	basePower  float64 // current baseline (trace) watts
	util       float64 // current mean utilization
	// ocWatts caches the overclock term of Power, which walks every core.
	// SetDesiredFreq, ForceCap and setTick set ocDirty only when the
	// frequency, cap level or utilization they write actually changes.
	ocWatts float64
	ocDirty bool
}

func newTraceHost(st *trace.ServerTrace) *traceHost {
	hw := st.Spec.HW
	h := &traceHost{name: st.Spec.Name, hw: hw, ocCoreCost: hw.OCCoreCost(), desired: make([]int, hw.Cores), ocDirty: true}
	for i := range h.desired {
		h.desired[i] = hw.TurboMHz
	}
	return h
}

func (h *traceHost) setTick(baseWatts, util float64) {
	h.basePower = baseWatts
	if util != h.util {
		h.util = util
		h.ocDirty = true
	}
}

// Advance is a no-op: setTick moves the replayed baseline.
func (h *traceHost) Advance(time.Duration) {}

// Instrument is a no-op: a replayed trace has no machine series.
func (h *traceHost) Instrument(*metrics.Registry, ...metrics.Label) {}

// core.Host.

func (h *traceHost) Name() string              { return h.name }
func (h *traceHost) NumCores() int             { return h.hw.Cores }
func (h *traceHost) TurboMHz() int             { return h.hw.TurboMHz }
func (h *traceHost) MaxOCMHz() int             { return h.hw.MaxOCMHz }
func (h *traceHost) StepMHz() int              { return h.hw.StepMHz }
func (h *traceHost) CoreUtil(core int) float64 { return h.util }

func (h *traceHost) SetDesiredFreq(core, mhz int) {
	if mhz < h.hw.MinMHz {
		mhz = h.hw.MinMHz
	}
	if mhz > h.hw.MaxOCMHz {
		mhz = h.hw.MaxOCMHz
	}
	if f := mhz - mhz%h.hw.StepMHz; f != h.desired[core] {
		h.desired[core] = f
		h.ocDirty = true
	}
}

func (h *traceHost) DesiredFreq(core int) int { return h.desired[core] }

func (h *traceHost) capCeiling() int {
	c := h.hw.MaxOCMHz - h.capLevel*h.hw.StepMHz
	if c < h.hw.MinMHz {
		c = h.hw.MinMHz
	}
	return c
}

func (h *traceHost) EffectiveFreq(core int) int {
	f := h.desired[core]
	if c := h.capCeiling(); f > c {
		f = c
	}
	return f
}

// ocFraction returns how far into the overclock range a frequency sits.
func (h *traceHost) ocFraction(freq int) float64 {
	if freq <= h.hw.TurboMHz {
		return 0
	}
	return float64(freq-h.hw.TurboMHz) / float64(h.hw.MaxOCMHz-h.hw.TurboMHz)
}

// Power models the server draw: the baseline trace scaled down when capped
// below turbo, plus per-core overclock power scaled by utilization. The
// overclock term is recomputed only after one of its inputs changed.
func (h *traceHost) Power() float64 {
	ceil := h.capCeiling()
	base := h.basePower
	if ceil < h.hw.TurboMHz {
		base *= float64(ceil) / float64(h.hw.TurboMHz)
	}
	if h.ocDirty {
		h.ocWatts = h.ocPower(ceil)
		h.ocDirty = false
	}
	return base + h.ocWatts
}

// ocPower sums the overclock watts of every core above turbo, in core
// order, each held to the cap ceiling ceil.
func (h *traceHost) ocPower(ceil int) float64 {
	uf := h.util
	if uf < 0.3 {
		uf = 0.3 // static overclock cost never vanishes
	}
	oc := 0.0
	for _, f := range h.desired {
		if f > h.hw.TurboMHz {
			eff := f
			if eff > ceil {
				eff = ceil
			}
			oc += h.ocCoreCost * h.ocFraction(eff) * uf
		}
	}
	return oc
}

func (h *traceHost) OCDeltaWatts(cores, mhz int, util float64) float64 {
	if mhz > h.hw.MaxOCMHz {
		mhz = h.hw.MaxOCMHz
	}
	if util < 0.3 {
		util = 0.3
	}
	return float64(cores) * h.ocCoreCost * h.ocFraction(mhz) * util
}

// power.Server.

func (h *traceHost) CapPriority() int { return 0 }
func (h *traceHost) CapLevel() int    { return h.capLevel }

// MaxCapLevel rounds up so the deepest level reaches MinMHz even when the
// MaxOC→Min range is not a whole number of steps (see cluster.Server).
func (h *traceHost) MaxCapLevel() int {
	return (h.hw.MaxOCMHz - h.hw.MinMHz + h.hw.StepMHz - 1) / h.hw.StepMHz
}

func (h *traceHost) ForceCap(level int) {
	if level < 0 {
		level = 0
	}
	if max := h.MaxCapLevel(); level > max {
		level = max
	}
	if level != h.capLevel {
		h.capLevel = level
		h.ocDirty = true
	}
}

// hasOC reports whether any core is requested beyond turbo.
func (h *traceHost) hasOC() bool {
	for _, f := range h.desired {
		if f > h.hw.TurboMHz {
			return true
		}
	}
	return false
}

// sessionEffectiveRatio returns the mean effective (post-cap) frequency of
// a session's cores relative to turbo.
func sessionEffectiveRatio(h *traceHost, s *core.Session) float64 {
	if len(s.Cores) == 0 {
		return 1
	}
	sum := 0.0
	for _, c := range s.Cores {
		sum += float64(h.EffectiveFreq(c))
	}
	return sum / float64(len(s.Cores)) / float64(h.hw.TurboMHz)
}

// Table1Row is one (system, class) cell set of Table I.
type Table1Row struct {
	System      baselines.System
	Class       trace.ClusterClass
	CapEvents   int
	NormCaps    float64 // capping events normalized to Central
	SuccessPct  float64 // successful overclocking request-ticks
	PenaltyPct  float64 // mean frequency reduction of non-OC servers during caps
	NormPerf    float64 // mean frequency ratio vs turbo baseline
	Requests    int
	RacksTested int
}

// wantsOC reports whether a VM demands overclocking at instant c: a
// user-facing service whose utilization is at or above the threshold.
func wantsOC(vm *trace.VMSpec, c trace.Clock, threshold float64) bool {
	return vm.Service.UserFacing() && vm.Service.UtilAtClock(c, nil) >= threshold
}

// fillDemand precomputes, into a caller-owned buffer (len(out) ticks from
// start), the number of a server's cores demanding overclocking at each
// tick, so shards can carve per-server demand out of one arena allocation.
func fillDemand(out []int, st *trace.ServerTrace, key prepKey, start time.Time) []int {
	for t := range out {
		c := trace.ClockOf(start.Add(time.Duration(t) * key.Step))
		demand := 0
		for i := range st.Spec.VMs {
			if vm := &st.Spec.VMs[i]; wantsOC(vm, c, key.OCThreshold) {
				demand += vm.Cores
			}
		}
		if demand > st.Spec.HW.Cores {
			demand = st.Spec.HW.Cores
		}
		out[t] = demand
	}
	return out
}

// predictorFor returns a fresh predictor for the configured strategy. An
// unknown strategy is an error: quietly substituting a default would produce
// a plausible table for the wrong predictor.
func predictorFor(strategy string) (predict.Predictor, error) {
	switch strategy {
	case "", "dailymed":
		return predict.NewDailyMed(), nil
	case "dailymax":
		return predict.NewDailyMax(), nil
	case "flatmed":
		return &predict.FlatMed{}, nil
	case "flatmax":
		return &predict.FlatMax{}, nil
	case "weekly":
		return &predict.Weekly{}, nil
	}
	return nil, fmt.Errorf("experiment: unknown TemplateStrategy %q (want dailymed, dailymax, flatmed, flatmax or weekly)", strategy)
}

// templateFromPredictor fits p on train and materializes it as a week
// template at the training series' step, so any predictor can drive the
// template-shaped agent interfaces.
func templateFromPredictor(p predict.Predictor, train *timeseries.Series) *timeseries.WeekTemplate {
	p.Fit(train)
	step := train.Step
	slots := int(24 * time.Hour / step)
	if slots < 1 {
		slots = 1
	}
	mk := func(ref time.Time, kind timeseries.DayKind) *timeseries.DayTemplate {
		t := &timeseries.DayTemplate{Step: step, Kind: kind, Slots: make([]float64, slots)}
		for i := range t.Slots {
			t.Slots[i] = p.Predict(ref.Add(time.Duration(i) * step))
		}
		return t
	}
	// Reference instants in the week immediately after training (what the
	// templates will be queried for).
	monday := train.End()
	for monday.Weekday() != time.Monday {
		monday = monday.Add(24 * time.Hour)
	}
	saturday := monday.Add(5 * 24 * time.Hour)
	return &timeseries.WeekTemplate{
		Weekday: mk(monday, timeseries.Weekdays),
		Weekend: mk(saturday, timeseries.Weekends),
	}
}

// rackMetrics is one rack's contribution to the Table I aggregates. Racks
// are simulated concurrently, so each shard returns its own rackMetrics and
// the caller folds them in shard-index order (see accumulate) — float sums
// stay bit-identical for any worker count.
type rackMetrics struct {
	caps, requests, successes int
	penaltySum                float64
	penaltyN                  int
	perfSum                   float64
	perfN                     int
}

// accumulate folds other into m. Callers must invoke it in a fixed shard
// order: float addition is not associative, and completion-order folding
// would make results depend on scheduling.
func (m *rackMetrics) accumulate(other rackMetrics) {
	m.caps += other.caps
	m.requests += other.requests
	m.successes += other.successes
	m.penaltySum += other.penaltySum
	m.penaltyN += other.penaltyN
	m.perfSum += other.perfSum
	m.perfN += other.perfN
}

// successPct is the share of overclock request-ticks served, in percent.
func (m rackMetrics) successPct() float64 {
	if m.requests == 0 {
		return 0
	}
	return 100 * float64(m.successes) / float64(m.requests)
}

// normPerf is the mean effective frequency of overclock candidates over
// turbo.
func (m rackMetrics) normPerf() float64 {
	if m.perfN == 0 {
		return 0
	}
	return m.perfSum / float64(m.perfN)
}

// shardOut is one rack shard's result: its metric contributions plus, for an
// observed run, the shard's observation, which the caller merges in
// shard-index order.
type shardOut struct {
	m  rackMetrics
	ob FleetObservation
}

// prepKey is every configuration field prepareRack reads, and nothing else:
// runs whose configs have equal keys share one prep, and a field that is not
// here cannot reach the prep, so it cannot be shared by accident.
type prepKey struct {
	TrainDays, EvalDays int
	Step                time.Duration
	OCThreshold         float64
	TemplateStrategy    string
	Observe             bool
}

func (c *FleetSimConfig) prepKey() prepKey {
	return prepKey{c.TrainDays, c.EvalDays, c.Step, c.OCThreshold, c.TemplateStrategy, c.Observe}
}

// rackPrep is everything about simulating one rack that depends only on its
// prepKey, not on the system or variant under test: the evaluation window's
// per-server overclock demand, each server's training-week profile and — for
// unobserved runs — the gOA's budget split of those profiles. Every run of a
// unit with that key runs over it, so the prep is strictly read-only: hosts,
// rack manager, gOA and sOAs are built fresh per run (see runSystem), and the
// templates and demand slices here are shared by pointer and never written
// after prepareRack returns.
type rackPrep struct {
	rt        *trace.RackTrace
	evalStart time.Time
	ticks     int
	// demands[i][t] is server i's overclock demand (cores) at evaluation
	// tick t. One arena backs every row, so the whole block is one
	// allocation that frees with the unit.
	demands [][]int
	// profiles[i] is server i's training-week profile. Its power template is
	// fitted once and shared: the gOA splits budgets from it, the server's
	// own sOA predicts from it.
	profiles []core.ServerProfile
	// budgetTpls is the gOA's per-server budget split of profiles. Only an
	// unobserved run uses it; an observed run recomputes the split on its
	// own instrumented gOA, whose budget-computation series are per system,
	// so prepareRack leaves it nil then.
	budgetTpls map[string]*timeseries.WeekTemplate
}

// prepareRack does the system-independent work of simulating rt: demand,
// power and overclock templates, and (unobserved) budget templates. It is a
// pure function of its arguments and emits nothing to any observer. The
// key's TemplateStrategy must already be valid (every entry point validates
// its config before any shard runs).
func prepareRack(rt *trace.RackTrace, key prepKey) *rackPrep {
	evalStart := fleetStart.Add(time.Duration(key.TrainDays) * 24 * time.Hour)
	ticks := key.EvalDays * int(24*time.Hour/key.Step)
	p := &rackPrep{
		rt: rt, evalStart: evalStart, ticks: ticks,
		demands:  make([][]int, len(rt.Servers)),
		profiles: make([]core.ServerProfile, len(rt.Servers)),
	}
	arena := make([]int, len(rt.Servers)*ticks)
	// Training demand is consumed immediately per server, so one scratch
	// buffer serves every server in turn.
	trainScratch := make([]int, key.TrainDays*int(24*time.Hour/key.Step))
	for i, st := range rt.Servers {
		p.demands[i] = fillDemand(arena[i*ticks:(i+1)*ticks:(i+1)*ticks], st, key, evalStart)
		pred, err := predictorFor(key.TemplateStrategy)
		if err != nil {
			panic(err) // a caller skipped the strategy check
		}
		// Overclock template from the training week's demand (granted = 0
		// during training: the baseline trace has no overclocking).
		rec := predict.NewOCRecorder(fleetStart, key.Step)
		for _, d := range fillDemand(trainScratch, st, key, fleetStart) {
			rec.Record(d, 0)
		}
		p.profiles[i] = core.ServerProfile{
			Power:      templateFromPredictor(pred, st.Power.Slice(fleetStart, evalStart)),
			OC:         rec.Template(),
			OCCoreCost: st.Spec.HW.OCCoreCost(),
		}
	}
	if !key.Observe {
		goa := core.NewGOA(rt.Name, rt.LimitWatts)
		p.profile(goa)
		p.budgetTpls = goa.BudgetTemplates(key.Step)
	}
	return p
}

// profile gives goa every server's training-week profile.
func (p *rackPrep) profile(goa *core.GOA) {
	for i, st := range p.rt.Servers {
		goa.SetProfile(st.Spec.Name, p.profiles[i])
	}
}

// fleetSOAConfig is the sOA recipe shared by every server of a fleet run,
// before baselines.SOAConfig specializes it per system.
func fleetSOAConfig(cfg FleetSimConfig) core.SOAConfig {
	c := core.DefaultSOAConfig()
	c.ProfileStep = cfg.Step
	c.ExploreConfirm = cfg.Step
	c.ExploitTime = 6 * cfg.Step
	c.InitialBackoff = cfg.Step
	c.MaxBackoff = 12 * cfg.Step
	// One tick stands for ~10 of the paper's 30-second exploration rounds,
	// so each bump is correspondingly larger.
	c.ExploreStepWatts = 40
	if cfg.ExploreStepWatts > 0 {
		c.ExploreStepWatts = cfg.ExploreStepWatts
	}
	if cfg.ExploreStepWatts < 0 {
		c.ExploreStepWatts = 0
		c.NoExplore = true
	}
	c.DefaultOCHorizon = 15 * time.Minute
	c.AdmissionUtil = 0.7
	c.BufferWatts = 15
	return c
}

// systemRun is one system's simulation of a prepared rack: a rig over the
// rack's trace hosts, built fresh per run, plus what only the fleet has — the
// trace baselines, the demand and the Table I accumulators.
type systemRun struct {
	prep *rackPrep
	cfg  FleetSimConfig
	rg   *rig[*traceHost]

	now time.Time
	m   rackMetrics
}

// runSystem simulates prep's rack under sys for the evaluation window. When
// cfg.Observe is set the rack, gOA and every sOA are instrumented against a
// shard-local observer (single-goroutine, like the shard itself) whose
// observation the caller merges in shard-index order. class labels the
// shard's cluster class — rack names repeat across the per-class
// mini-fleets, so class+system+rack is the unique series identity.
// shard is the flattened (class, system, rack) index, which (with the root
// seed) derives the shard-local provenance recorder so span IDs never depend
// on dispatch order or on which systems share the prep.
func runSystem(prep *rackPrep, sys baselines.System, cfg FleetSimConfig, class string, shard int) shardOut {
	r := newSystemRun(prep, sys, cfg, class, shard)
	for t := 0; t < prep.ticks; t++ {
		r.tick(t)
	}
	return r.finish()
}

// newSystemRun assembles sys's rig over prep, then gives the gOA the prep's
// profiles and each sOA its budget and power templates. Booting an agent
// emits nothing, so observers see the gOA's budget split before any sOA acts.
func newSystemRun(prep *rackPrep, sys baselines.System, cfg FleetSimConfig, class string, shard int) *systemRun {
	rt := prep.rt
	rg := &rig[*traceHost]{
		limit:   rt.LimitWatts,
		bcfg:    cfg.budgetConfig(),
		start:   prep.evalStart,
		servers: make([]*rigServer[*traceHost], len(rt.Servers)),
		session: "oc",
	}
	r := &systemRun{prep: prep, cfg: cfg, rg: rg}
	if cfg.Observe {
		byClass, bySystem := metrics.L("class", class), metrics.L("system", sys.String())
		rg.observer = newObserver(observeKnobs{
			observe: true, only: cfg.TraceOnly, recordEvery: cfg.RecordEvery, start: prep.evalStart,
			provenance: true, seed: parallel.ChildSeed(cfg.Seed, uint64(shard)), stream: 1,
			labels: []metrics.Label{byClass, bySystem},
		})
		rg.soaLabels = []metrics.Label{byClass, bySystem, metrics.L("rack", rt.Name)}
	}
	for i, st := range rt.Servers {
		h := newTraceHost(st)
		rg.servers[i] = newRigServer(h, h.ocCoreCost, 0)
	}
	rg.soaCfg = baselines.SOAConfig(sys, fleetSOAConfig(cfg), func(extra float64) bool {
		return rg.rack.Power()+extra <= rt.LimitWatts
	})
	rg.assemble(cfg.rackConfig(rt.Name, rt.LimitWatts))
	prep.profile(rg.goa)
	budgetTpls := prep.budgetTpls
	if rg.reg != nil {
		budgetTpls = rg.goa.BudgetTemplates(cfg.Step)
	}
	for i, s := range rg.servers {
		switch sys {
		case baselines.Central:
			// The oracle performs all admission; no local budget enforcement
			// should second-guess it.
			s.soa.SetStaticBudget(1e9, false)
		case baselines.NaiveOClock:
			// Even share.
		default:
			s.soa.SetAssignedBudget(budgetTpls[s.srv.name])
		}
		s.soa.SetPowerTemplate(prep.profiles[i].Power)
	}

	// Rack events feed every sOA directly (the fleet has no transport); caps
	// are counted by the rack itself.
	rg.rack.Subscribe(func(ev power.Event) {
		for _, s := range rg.servers {
			s.soa.OnRackEvent(r.now, ev)
		}
	})
	return r
}

// tick advances the rack by evaluation tick t.
func (r *systemRun) tick(t int) {
	rg := r.rg
	r.now = r.prep.evalStart.Add(time.Duration(t) * r.cfg.Step)
	// 0. Optional mid-run checkpoint/restore cycle.
	if r.cfg.CheckpointTick > 0 && t == r.cfg.CheckpointTick {
		r.checkpointRestore(t)
	}
	// 1. Update baselines from the trace.
	idx := r.cfg.TrainDays*int(24*time.Hour/r.cfg.Step) + t
	for i, st := range r.prep.rt.Servers {
		j := idx
		if j >= st.Power.Len() {
			j = st.Power.Len() - 1
		}
		rg.servers[i].srv.setTick(st.Power.Values[j], st.Util.Values[j])
	}
	// 2. Demand changes → session management + admission, for every server
	// before any sOA ticks: Central's oracle reads the whole rack's power.
	r.serveDemand(t)
	// 3. sOA control loops.
	for _, s := range rg.servers {
		s.soa.Tick(r.now)
	}
	// 4. Rack manager: warnings, caps, restores.
	capsBefore := rg.rack.CapEvents()
	rg.tickRack(r.now, r.cfg.Step)
	// 5. Metrics.
	r.measure(t, rg.rack.CapEvents() > capsBefore)
	// 6. Telemetry recording at the end of the tick: the sampled state
	// covers everything up to the tick's end boundary.
	if rg.recorder != nil {
		rg.recorder.Tick(r.now.Add(r.cfg.Step))
	}
}

// checkpointRestore snapshots the whole control plane with its lifetime
// ledgers, pushes it through the serialized envelope, and restarts the rig
// from the decoded bytes. The remainder of the run must be indistinguishable
// from never having restarted.
func (r *systemRun) checkpointRestore(t int) {
	rg := r.rg
	cp := &store.Checkpoint{GOA: rg.goa.Snapshot(), SOAs: make(map[string]*core.SOAState, len(rg.servers))}
	for _, s := range rg.servers {
		cp.SOAs[s.srv.name] = s.soa.Snapshot()
	}
	data, err := store.Encode(r.now, cp)
	var got store.Checkpoint
	if err == nil {
		_, err = store.Decode(data, &got)
	}
	if err == nil {
		err = rg.restore(r.now, &got)
	}
	if err != nil {
		// A checkpoint that cannot roundtrip is a store-layer bug, not a
		// simulation outcome — fail loudly.
		panic(fmt.Sprintf("experiment: fleet checkpoint roundtrip at tick %d: %v", t, err))
	}
}

// serveDemand plays every server's WI for tick t — its session follows the
// tick's demand — and counts the overclock request-ticks it served.
func (r *systemRun) serveDemand(t int) {
	for i, s := range r.rg.servers {
		d := r.prep.demands[i][t]
		r.rg.serve(s, r.now, d)
		if d > 0 {
			r.m.requests++
			if sess, ok := s.soa.Sessions()[r.rg.session]; ok && sessionEffectiveRatio(s.srv, sess) > 1 {
				r.m.successes++
			}
		}
	}
}

// measure accumulates tick t's Table I metrics. Performance is measured over
// the overclock-candidate VMs: their effective frequency relative to turbo,
// including any capping penalty. The capping penalty itself is measured on
// the servers with no overclock demand.
func (r *systemRun) measure(t int, capped bool) {
	for i, s := range r.rg.servers {
		h := s.srv
		if r.prep.demands[i][t] > 0 {
			if sess, ok := s.soa.Sessions()[r.rg.session]; ok {
				r.m.perfSum += sessionEffectiveRatio(h, sess)
			} else {
				ceil := h.capCeiling()
				if ceil > h.hw.TurboMHz {
					ceil = h.hw.TurboMHz
				}
				r.m.perfSum += float64(ceil) / float64(h.hw.TurboMHz)
			}
			r.m.perfN++
		} else if capped && !h.hasOC() {
			ceil := h.capCeiling()
			if ceil < h.hw.TurboMHz {
				r.m.penaltySum += 1 - float64(ceil)/float64(h.hw.TurboMHz)
				r.m.penaltyN++
			}
		}
	}
}

// finish returns the run's metric contributions and, when observed, its
// shard-local observation.
func (r *systemRun) finish() shardOut {
	rg := r.rg
	r.m.caps = rg.rack.CapEvents()
	out := shardOut{m: r.m}
	if rg.reg != nil {
		// Critical-path and fan-out profile of the shard's causal log, plus
		// the tracer's drop counter, become ordinary (sum-mergeable) series.
		(&causal.Log{Records: rg.prov.Records()}).Register(rg.reg, rg.labels...)
		rg.reg.Counter("trace_dropped_total", rg.labels...).Add(float64(rg.tracer.Dropped()))
		out.ob = rg.freeze()
	}
	return out
}

// fleetOpts returns the parallel scheduling options for a fleet sim config.
func fleetOpts(cfg FleetSimConfig) parallel.Options {
	return parallel.Options{Workers: cfg.Workers, ShuffleSeed: cfg.ShuffleShards}
}

// rackUnit is the recipe for one unit of streamed fleet work: rack rackIdx
// of the fleet fcfg describes, generated once, then simulated by each of
// runs in turn. It carries the recipe, not the rack: the worker generates the
// trace on entry and drops it (and its preps) on exit, so a paper-scale fleet
// holds O(workers) racks in memory instead of O(fleet).
type rackUnit struct {
	fcfg    *trace.FleetConfig
	rackIdx int
	runs    []unitRun
}

// unitRun is one (config variant, system) run inside a rackUnit. shard is
// its flattened index in the caller's result slice: it seeds the run's
// provenance stream and fixes its place in every fold and merge.
type unitRun struct {
	cfg   *FleetSimConfig
	sys   baselines.System
	shard int
}

// fleetUnits returns the units of a fleet of n racks that runs every
// (variant, system) pair: unit r is rack r, and run (v, s) is shard
// offset + (v·len(systems) + s)·n + r, so each pair's results form one slice
// in rack order.
func fleetUnits(fcfg *trace.FleetConfig, n, offset int, variants []FleetSimConfig, systems ...baselines.System) []rackUnit {
	units := make([]rackUnit, n)
	per := len(variants) * len(systems)
	runs := make([]unitRun, n*per)
	for r := range units {
		units[r] = rackUnit{fcfg: fcfg, rackIdx: r, runs: runs[r*per : (r+1)*per]}
		for v := range variants {
			for s, sys := range systems {
				pair := v*len(systems) + s
				units[r].runs[pair] = unitRun{cfg: &variants[v], sys: sys, shard: offset + pair*n + r}
			}
		}
	}
	return units
}

// streamRacks runs units under opts and returns one result per run, slot k
// holding the run whose shard index is k. A unit generates its rack —
// byte-identical wherever and whenever it runs, since a rack is a pure
// function of (seed, index) — and simulates each run over a prep of it.
// Adjacent runs with equal prepKeys share one prep; units list their runs
// variant-major, so a unit prepares once per distinct key and holds one prep
// at a time. Results are placed by shard index, never completion order, so
// folds over them are bit-identical for any worker count. Every run's
// config must be valid; the first generation error fails the call.
func streamRacks(opts parallel.Options, units []rackUnit) ([]shardOut, error) {
	shards := 0
	for _, u := range units {
		shards += len(u.runs)
	}
	type unitOut struct {
		runs []unitRun
		outs []shardOut
		err  error
	}
	done := parallel.Map(len(units), opts, func(u int) unitOut {
		unit := units[u]
		fr, err := trace.GenFleetRack(*unit.fcfg, unit.rackIdx)
		if err != nil {
			return unitOut{err: err}
		}
		var key prepKey
		var prep *rackPrep
		outs := make([]shardOut, len(unit.runs))
		for k, run := range unit.runs {
			if next := run.cfg.prepKey(); prep == nil || next != key {
				key, prep = next, prepareRack(fr.RackTrace, next)
			}
			outs[k] = runSystem(prep, run.sys, *run.cfg, fr.Class.String(), run.shard)
		}
		return unitOut{runs: unit.runs, outs: outs}
	})
	results := make([]shardOut, shards)
	for _, d := range done {
		if d.err != nil {
			return nil, d.err
		}
		for k, run := range d.runs {
			results[run.shard] = d.outs[k]
		}
	}
	return results, nil
}

// foldRacks sums shard metrics in shard-index order.
func foldRacks(outs []shardOut) rackMetrics {
	var agg rackMetrics
	for _, o := range outs {
		agg.accumulate(o.m)
	}
	return agg
}

// table1FleetConfig builds the per-class mini-fleet config for class index
// ci. Each class gets its own seed stream and a single-class mix, so exact
// class coverage is guaranteed at any scale.
func table1FleetConfig(cfg FleetSimConfig, class trace.ClusterClass, ci int) trace.FleetConfig {
	days := cfg.TrainDays + cfg.EvalDays
	fcfg := trace.DefaultFleetConfig(fleetStart, time.Duration(days)*24*time.Hour)
	fcfg.Seed = cfg.Seed + int64(ci)
	fcfg.Regions = []string{"SimRegion"}
	fcfg.RacksPerRegion = cfg.RacksPerClass
	fcfg.Step = cfg.Step
	fcfg.ClassMix = map[trace.ClusterClass]float64{class: 1}
	return fcfg
}

// RunTable1 reproduces Table I: five systems across the three power
// classes. Every (class, rack) pair is an independent unit fanned out
// across cfg.Workers goroutines; it prepares its rack once and runs all five
// systems over it. Per-(rack, system) results are folded in flattened
// shard-index order so the table is bit-identical to the serial sweep.
func RunTable1(cfg FleetSimConfig) (*Table, []Table1Row, error) {
	tbl, rows, _, err := runTable1(cfg)
	return tbl, rows, err
}

// RunTable1Observed is RunTable1 with the observability layer on: it
// additionally returns the fleet-wide metrics snapshot and event trace,
// merged across shards in shard-index order.
func RunTable1Observed(cfg FleetSimConfig) (*Table, []Table1Row, *FleetObservation, error) {
	cfg.Observe = true
	return runTable1(cfg)
}

func runTable1(cfg FleetSimConfig) (*Table, []Table1Row, *FleetObservation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	classes := []trace.ClusterClass{trace.HighPower, trace.MediumPower, trace.LowPower}
	systems := baselines.All()

	// Every (class, system, rack) triple keeps its flattened shard index —
	// class-major, then system, then rack — which seeds its provenance
	// stream and fixes its place in the fold and merge order. The unit of
	// work is (class, rack): it generates and prepares the rack once and
	// runs the five systems, all with cfg, over that one prep. Each
	// per-class mini-fleet has a single-class mix, so it guarantees exact
	// class coverage at any scale, and every class has the same nr racks,
	// so shard i contributes to the (class, system) cell i/nr. No trace is
	// generated here: units stream their racks inside the worker (memory
	// O(active units)).
	var units []rackUnit
	variants := []FleetSimConfig{cfg}
	nr := 0
	for ci, class := range classes {
		fcfg := table1FleetConfig(cfg, class, ci)
		nr = fcfg.NumRacks()
		units = append(units, fleetUnits(&fcfg, nr, ci*len(systems)*nr, variants, systems...)...)
	}
	results, err := streamRacks(fleetOpts(cfg), units)
	if err != nil {
		return nil, nil, nil, err
	}

	// Reduce in shard order: shards are grouped by cell, so this fold
	// visits each cell's racks in generation order, exactly like the old
	// serial loop. Telemetry merges in the same order, which is what makes
	// the snapshot and trace byte-identical across worker counts.
	cells := make([]rackMetrics, len(classes)*len(systems))
	parts := make([]*FleetObservation, len(results))
	for i := range results {
		cells[i/nr].accumulate(results[i].m)
		parts[i] = &results[i].ob
	}
	var observation *FleetObservation
	if cfg.Observe {
		observation = mergeObservations(parts...)
	}

	var rows []Table1Row
	for ci, class := range classes {
		centralCaps := 0
		classRows := make([]Table1Row, 0, len(systems))
		for si, sys := range systems {
			agg := cells[ci*len(systems)+si]
			row := Table1Row{System: sys, Class: class, CapEvents: agg.caps,
				SuccessPct: agg.successPct(), NormPerf: agg.normPerf(),
				Requests: agg.requests, RacksTested: nr}
			if agg.penaltyN > 0 {
				row.PenaltyPct = 100 * agg.penaltySum / float64(agg.penaltyN)
			}
			if sys == baselines.Central {
				centralCaps = agg.caps
			}
			classRows = append(classRows, row)
		}
		denom := centralCaps
		if denom < 1 {
			denom = 1 // a capless oracle: report absolute counts
		}
		for i := range classRows {
			classRows[i].NormCaps = float64(classRows[i].CapEvents) / float64(denom)
		}
		rows = append(rows, classRows...)
	}

	tbl := &Table{
		Caption: "Table I: Comparison of SmartOClock to different baselines",
		Headers: []string{"Cluster", "System", "Norm.#PowerCaps", "SuccessfulOClockReqs", "PenaltyOnPowerCap", "Norm.Performance"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Class.String(), r.System.String(),
			fmt.Sprintf("%.1f", r.NormCaps),
			fmt.Sprintf("%.0f%%", r.SuccessPct),
			fmt.Sprintf("%.0f%%", r.PenaltyPct),
			fmt.Sprintf("%.3f", r.NormPerf))
	}
	return tbl, rows, observation, nil
}
