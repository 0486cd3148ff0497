package experiment

import (
	"fmt"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/causal"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
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
	// obs.NewFiltered); empty records everything.
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

// fleetStart is a Monday at midnight: training week is Mon-Sun, evaluation
// starts the following Monday.
var fleetStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// traceHost replays a server's baseline power trace and adds the modeled
// overclock power of whatever frequencies the agents set. It implements
// core.Host for the sOA and power.Server for the rack manager, exactly as
// the paper's simulator does: "Models are used to estimate the power impact
// of overclocking; CPU utilization and core frequency are the input."
type traceHost struct {
	name        string
	turbo       int
	maxOC       int
	stepMHz     int
	minMHz      int
	cores       int
	ocCoreCost  float64
	desired     []int
	capLevel    int
	basePower   float64 // current baseline (trace) watts
	util        float64 // current mean utilization
	capPriority int
}

func newTraceHost(st *trace.ServerTrace, capPriority int) *traceHost {
	hw := st.Spec.HW
	h := &traceHost{
		name:        st.Spec.Name,
		turbo:       hw.TurboMHz,
		maxOC:       hw.MaxOCMHz,
		stepMHz:     hw.StepMHz,
		minMHz:      hw.MinMHz,
		cores:       hw.Cores,
		ocCoreCost:  hw.OCCoreCost(),
		desired:     make([]int, hw.Cores),
		capPriority: capPriority,
	}
	for i := range h.desired {
		h.desired[i] = h.turbo
	}
	return h
}

func (h *traceHost) setTick(baseWatts, util float64) {
	h.basePower = baseWatts
	h.util = util
}

// core.Host.

func (h *traceHost) Name() string              { return h.name }
func (h *traceHost) NumCores() int             { return h.cores }
func (h *traceHost) TurboMHz() int             { return h.turbo }
func (h *traceHost) MaxOCMHz() int             { return h.maxOC }
func (h *traceHost) StepMHz() int              { return h.stepMHz }
func (h *traceHost) CoreUtil(core int) float64 { return h.util }

func (h *traceHost) SetDesiredFreq(core, mhz int) {
	if mhz < h.minMHz {
		mhz = h.minMHz
	}
	if mhz > h.maxOC {
		mhz = h.maxOC
	}
	h.desired[core] = mhz - mhz%h.stepMHz
}

func (h *traceHost) DesiredFreq(core int) int { return h.desired[core] }

func (h *traceHost) capCeiling() int {
	c := h.maxOC - h.capLevel*h.stepMHz
	if c < h.minMHz {
		c = h.minMHz
	}
	return c
}

func (h *traceHost) effectiveFreq(core int) int {
	f := h.desired[core]
	if c := h.capCeiling(); f > c {
		f = c
	}
	return f
}

// ocFraction returns how far into the overclock range a frequency sits.
func (h *traceHost) ocFraction(freq int) float64 {
	if freq <= h.turbo {
		return 0
	}
	return float64(freq-h.turbo) / float64(h.maxOC-h.turbo)
}

// Power models the server draw: the baseline trace scaled down when capped
// below turbo, plus per-core overclock power scaled by utilization.
func (h *traceHost) Power() float64 {
	ceil := h.capCeiling()
	base := h.basePower
	if ceil < h.turbo {
		base *= float64(ceil) / float64(h.turbo)
	}
	uf := h.util
	if uf < 0.3 {
		uf = 0.3 // static overclock cost never vanishes
	}
	oc := 0.0
	for _, f := range h.desired {
		if f > h.turbo {
			eff := f
			if eff > ceil {
				eff = ceil
			}
			oc += h.ocCoreCost * h.ocFraction(eff) * uf
		}
	}
	return base + oc
}

func (h *traceHost) OCDeltaWatts(cores, mhz int, util float64) float64 {
	if mhz > h.maxOC {
		mhz = h.maxOC
	}
	if util < 0.3 {
		util = 0.3
	}
	return float64(cores) * h.ocCoreCost * h.ocFraction(mhz) * util
}

// power.Server.

func (h *traceHost) CapPriority() int { return h.capPriority }
func (h *traceHost) CapLevel() int    { return h.capLevel }

// MaxCapLevel rounds up so the deepest level reaches MinMHz even when the
// MaxOC→Min range is not a whole number of steps (see cluster.Server).
func (h *traceHost) MaxCapLevel() int { return (h.maxOC - h.minMHz + h.stepMHz - 1) / h.stepMHz }

func (h *traceHost) ForceCap(level int) {
	if level < 0 {
		level = 0
	}
	if max := h.MaxCapLevel(); level > max {
		level = max
	}
	h.capLevel = level
}

// meanFreqRatio returns the mean effective frequency across cores relative
// to turbo — the per-server performance metric of Table I.
func (h *traceHost) meanFreqRatio() float64 {
	sum := 0.0
	for i := range h.desired {
		sum += float64(h.effectiveFreq(i))
	}
	return sum / float64(h.cores) / float64(h.turbo)
}

// hasOC reports whether any core is requested beyond turbo.
func (h *traceHost) hasOC() bool {
	for _, f := range h.desired {
		if f > h.turbo {
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
		sum += float64(h.effectiveFreq(c))
	}
	return sum / float64(len(s.Cores)) / float64(h.turbo)
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

// wantsOC reports whether a VM demands overclocking at ts: a user-facing
// service whose utilization is at or above the threshold.
func wantsOC(vm *trace.VMSpec, ts time.Time, threshold float64) bool {
	switch vm.Service.Pattern {
	case trace.PatternSpiky, trace.PatternBroadPeak, trace.PatternDiurnal:
		return vm.Service.UtilAt(ts, nil) >= threshold
	}
	return false
}

// fillDemand precomputes, into a caller-owned buffer (len(out) ticks from
// start), the number of a server's cores demanding overclocking at each
// tick, so shards can carve per-server demand out of one arena allocation.
func fillDemand(out []int, st *trace.ServerTrace, cfg FleetSimConfig, start time.Time) []int {
	for t := range out {
		ts := start.Add(time.Duration(t) * cfg.Step)
		demand := 0
		for i := range st.Spec.VMs {
			if vm := &st.Spec.VMs[i]; wantsOC(vm, ts, cfg.OCThreshold) {
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

// predictorFor returns a fresh predictor for the configured strategy.
func predictorFor(strategy string) predict.Predictor {
	switch strategy {
	case "", "dailymed":
		return predict.NewDailyMed()
	case "dailymax":
		return predict.NewDailyMax()
	case "flatmed":
		return &predict.FlatMed{}
	case "flatmax":
		return &predict.FlatMax{}
	case "weekly":
		return &predict.Weekly{}
	default:
		return predict.NewDailyMed()
	}
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

// FleetObservation bundles the telemetry of an observed fleet run: the
// merged metrics snapshot, the concatenated event trace and — when
// recording was enabled — the merged per-interval time series. All three
// are byte-deterministic for a given seed regardless of worker count.
type FleetObservation struct {
	Metrics *metrics.Snapshot
	Trace   *obs.Tracer
	// Series holds the recorded time series; nil unless RecordEvery was set.
	Series *metrics.Recording
	// Provenance is the fleet-wide causal decision log, shard logs
	// concatenated in shard-index order.
	Provenance *causal.Log
	// CriticalPath summarizes the provenance log: longest causal chain,
	// decisions and messages per tick (the tick critical-path profile).
	CriticalPath causal.Stats
}

// newShardTracer builds the tracer for one observed shard, honoring the
// config's component filter.
func newShardTracer(only []obs.Component) *obs.Tracer {
	if len(only) > 0 {
		return obs.NewFiltered(only...)
	}
	return obs.New()
}

// shardOut is one rack shard's result: its metric contributions plus, for an
// observed run, the shard-local telemetry the caller merges in shard-index
// order. err is set when the shard's rack could not be generated.
type shardOut struct {
	m    rackMetrics
	snap *metrics.Snapshot
	tr   *obs.Tracer
	rec  *metrics.Recording
	prov *causal.Log
	err  error
}

// rackRun simulates one rack under one system for the evaluation window
// and returns its metric contributions. It is a pure function of its
// arguments — no shared state, no random draws — which is what makes the
// rack the unit of parallel sharding.
func rackRun(rt *trace.RackTrace, sys baselines.System, cfg FleetSimConfig) rackMetrics {
	return rackRunObserved(rt, sys, cfg, "", 0).m
}

// rackRunObserved is rackRun plus per-shard telemetry: when cfg.Observe is
// set the rack, gOA and every sOA are instrumented against a shard-local
// registry and tracer (single-goroutine, like the shard itself) whose
// snapshot the caller merges in shard-index order. class labels the shard's
// cluster class — rack names repeat across the per-class mini-fleets, so
// class+system+rack is the unique series identity.
// shard is the shard's fixed matrix index, which (with the root seed)
// derives the shard-local provenance recorder so span IDs never depend on
// dispatch order.
func rackRunObserved(rt *trace.RackTrace, sys baselines.System, cfg FleetSimConfig, class string, shard int) shardOut {
	var requests, successes, penaltyN, perfN int
	var penaltySum, perfSum float64
	var reg *metrics.Registry
	var tracer *obs.Tracer
	var prov *causal.Recorder
	var shardLabels []metrics.Label
	if cfg.Observe {
		reg = metrics.NewRegistry()
		tracer = newShardTracer(cfg.TraceOnly)
		prov = causal.NewRecorder(parallel.ChildSeed(cfg.Seed, uint64(shard)), 1)
		shardLabels = []metrics.Label{
			metrics.L("class", class),
			metrics.L("system", sys.String()),
		}
	}
	evalStart := fleetStart.Add(time.Duration(cfg.TrainDays) * 24 * time.Hour)
	ticks := cfg.EvalDays * int(24*time.Hour/cfg.Step)
	var recorder *metrics.Recorder
	if reg != nil && cfg.RecordEvery > 0 {
		recorder = metrics.NewRecorder(reg, evalStart, cfg.RecordEvery)
	}

	// Build hosts, templates and demand.
	hosts := make([]*traceHost, len(rt.Servers))
	demands := make([][]int, len(rt.Servers))
	soas := make([]*core.SOA, len(rt.Servers))

	rackCfg := power.DefaultRackConfig(rt.Name, rt.LimitWatts)
	if cfg.WarnFraction > 0 {
		rackCfg.WarnFraction = cfg.WarnFraction
		if rackCfg.RestoreFraction > cfg.WarnFraction {
			rackCfg.RestoreFraction = cfg.WarnFraction - 0.03
		}
	}
	// One arena allocation backs every server's demand series: the shard
	// makes 1 slice instead of len(Servers), and the whole block frees at
	// once when the shard ends.
	demandArena := make([]int, len(rt.Servers)*ticks)
	servers := make([]power.Server, 0, len(rt.Servers))
	for i, st := range rt.Servers {
		hosts[i] = newTraceHost(st, 0)
		servers = append(servers, hosts[i])
		demands[i] = fillDemand(demandArena[i*ticks:(i+1)*ticks:(i+1)*ticks], st, cfg, evalStart)
	}
	rack := power.NewRack(rackCfg, servers...)
	rack.AttachProvenance(prov)
	if reg != nil {
		rack.Instrument(reg, tracer, shardLabels...)
	}

	// Global Overclocking Agent: training-week templates per server.
	goa := core.NewGOA(rt.Name, rt.LimitWatts)
	goa.AttachProvenance(prov)
	if reg != nil {
		goa.Instrument(reg, tracer, shardLabels...)
	}
	trainEnd := evalStart
	// Training demand is consumed immediately per server, so one scratch
	// buffer serves every server in turn.
	trainScratch := make([]int, cfg.TrainDays*int(24*time.Hour/cfg.Step))
	// Each server's power template is fitted once and shared: the gOA
	// splits budgets from it, the server's own sOA predicts from it.
	powerTpls := make([]*timeseries.WeekTemplate, len(rt.Servers))
	for i, st := range rt.Servers {
		train := st.Power.Slice(fleetStart, trainEnd)
		powerTpls[i] = templateFromPredictor(predictorFor(cfg.TemplateStrategy), train)
		// Overclock template from the training week's demand (granted = 0
		// during training: the baseline trace has no overclocking).
		rec := predict.NewOCRecorder(fleetStart, cfg.Step)
		trainDemand := fillDemand(trainScratch, st, cfg, fleetStart)
		for _, d := range trainDemand {
			rec.Record(d, 0)
		}
		goa.SetProfile(st.Spec.Name, core.ServerProfile{
			Power:      powerTpls[i],
			OC:         rec.Template(),
			OCCoreCost: st.Spec.HW.OCCoreCost(),
		})
	}
	budgetTpls := goa.BudgetTemplates(cfg.Step)

	// Server Overclocking Agents.
	soaBase := core.DefaultSOAConfig()
	soaBase.ProfileStep = cfg.Step
	soaBase.ExploreConfirm = cfg.Step
	soaBase.ExploitTime = 6 * cfg.Step
	soaBase.InitialBackoff = cfg.Step
	soaBase.MaxBackoff = 12 * cfg.Step
	// One tick stands for ~10 of the paper's 30-second exploration rounds,
	// so each bump is correspondingly larger.
	soaBase.ExploreStepWatts = 40
	if cfg.ExploreStepWatts > 0 {
		soaBase.ExploreStepWatts = cfg.ExploreStepWatts
	}
	if cfg.ExploreStepWatts < 0 {
		soaBase.ExploreStepWatts = 0
		soaBase.NoExplore = true
	}
	soaBase.DefaultOCHorizon = 15 * time.Minute
	soaBase.AdmissionUtil = 0.7
	soaBase.BufferWatts = 15

	oracle := func(extra float64) bool {
		return rack.Power()+extra <= rt.LimitWatts
	}
	bcfg := lifetime.BudgetConfig{
		Epoch: 7 * 24 * time.Hour, Fraction: cfg.OCBudgetFraction,
		CarryOver: true, MaxCarryOver: 1,
	}
	// buildSOA constructs server i's agent from configuration alone — the
	// same recipe whether it is the initial boot or a post-checkpoint
	// rebuild. Config is code, state is data: closures (the oracle), host
	// bindings and cadences come from here; learned state comes from
	// SetAssignedBudget/SetPowerTemplate at boot or Restore after a
	// checkpoint.
	buildSOA := func(i int) *core.SOA {
		st := rt.Servers[i]
		scfg := baselines.SOAConfig(sys, soaBase, oracle)
		budgets := lifetime.NewCoreBudgets(bcfg, st.Spec.HW.Cores, evalStart)
		even := rt.LimitWatts / float64(len(rt.Servers))
		if sys == baselines.Central {
			// The oracle performs all admission; no local budget
			// enforcement should second-guess it.
			even = 1e9
		}
		return core.NewSOA(scfg, hosts[i], budgets, even, evalStart)
	}
	// instrumentSOA binds an agent to the shard registry. Rebuilt agents
	// resolve the same series (identity is name+labels), so counters keep
	// accumulating across a checkpoint/restore cycle.
	instrumentSOA := func(a *core.SOA) {
		a.AttachProvenance(prov)
		if reg == nil {
			return
		}
		soaLabels := make([]metrics.Label, 0, len(shardLabels)+1)
		soaLabels = append(soaLabels, shardLabels...)
		soaLabels = append(soaLabels, metrics.L("rack", rt.Name))
		a.Instrument(reg, tracer, soaLabels...)
	}
	for i, st := range rt.Servers {
		soas[i] = buildSOA(i)
		switch sys {
		case baselines.NaiveOClock, baselines.Central:
			// Even share; Central admits via the oracle anyway.
		default:
			soas[i].SetAssignedBudget(budgetTpls[st.Spec.Name])
		}
		soas[i].SetPowerTemplate(powerTpls[i])
		instrumentSOA(soas[i])
	}

	// Rack events feed every sOA; caps are counted by the rack itself.
	var now time.Time
	rack.Subscribe(func(ev power.Event) {
		for _, a := range soas {
			a.OnRackEvent(now, ev)
		}
	})

	trainOffset := cfg.TrainDays * int(24*time.Hour/cfg.Step)
	for t := 0; t < ticks; t++ {
		now = evalStart.Add(time.Duration(t) * cfg.Step)
		// 0. Optional mid-run checkpoint/restore cycle: snapshot the whole
		// control plane, push it through the serialized envelope, and swap
		// in fresh agents restored from the decoded bytes. The remainder of
		// the run must be indistinguishable from never having restarted.
		if cfg.CheckpointTick > 0 && t == cfg.CheckpointTick {
			cp := &store.Checkpoint{GOA: goa.Snapshot(), SOAs: make(map[string]*core.SOAState, len(rt.Servers))}
			for i, st := range rt.Servers {
				cp.SOAs[st.Spec.Name] = soas[i].Snapshot()
			}
			data, err := store.Encode(now, cp)
			var got store.Checkpoint
			if err == nil {
				_, err = store.Decode(data, &got)
			}
			if err == nil {
				g := core.NewGOA(rt.Name, rt.LimitWatts)
				g.Restore(got.GOA)
				g.AttachProvenance(prov)
				if reg != nil {
					g.Instrument(reg, tracer, shardLabels...)
				}
				goa = g
				for i, st := range rt.Servers {
					a := buildSOA(i)
					if rerr := a.Restore(got.SOAs[st.Spec.Name]); rerr != nil {
						err = rerr
						break
					}
					instrumentSOA(a)
					soas[i] = a
				}
			}
			if err != nil {
				// A checkpoint that cannot roundtrip is a store-layer bug,
				// not a simulation outcome — fail loudly.
				panic(fmt.Sprintf("experiment: fleet checkpoint roundtrip at tick %d: %v", t, err))
			}
		}
		// 1. Update baselines from the trace.
		for i, st := range rt.Servers {
			idx := trainOffset + t
			if idx >= st.Power.Len() {
				idx = st.Power.Len() - 1
			}
			hosts[i].setTick(st.Power.Values[idx], st.Util.Values[idx])
		}
		// 2. Demand changes → session management + admission. Unmet
		// demand retries every tick (the WI agent keeps asking), which
		// is also what drives the sOA's exploration.
		for i := range rt.Servers {
			d := demands[i][t]
			sessions := soas[i].Sessions()
			_, active := sessions["oc"]
			prev := 0
			if active {
				prev = len(sessions["oc"].Cores)
			}
			if d != prev {
				if active {
					soas[i].Stop(now, "oc")
				}
				if d > 0 {
					req := core.Request{
						VM: "oc", Cores: d, TargetMHz: hosts[i].maxOC,
						Priority: core.PriorityMetric,
					}
					// The demand signal plays the WI: its span roots the
					// admission chain for this request.
					req.Span = uint64(prov.Emit(causal.Record{
						Time:      now,
						Kind:      causal.KindMessage,
						Component: "wi",
						Site:      "wi.request",
						Subject:   hosts[i].name + "/oc",
					}))
					soas[i].Request(now, req)
				}
			}
			if d > 0 {
				requests++
				s, ok := soas[i].Sessions()["oc"]
				if ok && sessionEffectiveRatio(hosts[i], s) > 1 {
					successes++
				}
			}
		}
		// 3. sOA control loops.
		for _, a := range soas {
			a.Tick(now)
		}
		// 4. Rack manager: warnings, caps, restores.
		capsBefore := rack.CapEvents()
		rack.Tick(now)
		capped := rack.CapEvents() > capsBefore
		// 5. Metrics. Performance is measured over the overclock-candidate
		// VMs: their effective frequency relative to turbo, including any
		// capping penalty. The capping penalty itself is measured on the
		// servers with no overclock demand.
		for i := range hosts {
			if demands[i][t] > 0 {
				if s, ok := soas[i].Sessions()["oc"]; ok {
					perfSum += sessionEffectiveRatio(hosts[i], s)
				} else {
					ceil := hosts[i].capCeiling()
					if ceil > hosts[i].turbo {
						ceil = hosts[i].turbo
					}
					perfSum += float64(ceil) / float64(hosts[i].turbo)
				}
				perfN++
			} else if capped && !hosts[i].hasOC() {
				ceil := hosts[i].capCeiling()
				if ceil < hosts[i].turbo {
					penaltySum += 1 - float64(ceil)/float64(hosts[i].turbo)
					penaltyN++
				}
			}
		}
		// 6. Telemetry recording at the end of the tick: the sampled state
		// covers everything up to the tick's end boundary.
		if recorder != nil {
			recorder.Tick(now.Add(cfg.Step))
		}
	}
	m := rackMetrics{
		caps: rack.CapEvents(), requests: requests, successes: successes,
		penaltySum: penaltySum, penaltyN: penaltyN,
		perfSum: perfSum, perfN: perfN,
	}
	out := shardOut{m: m}
	if reg == nil {
		return out
	}
	// Critical-path and fan-out profile of the shard's causal log, plus the
	// tracer's drop counter, become ordinary (sum-mergeable) series.
	out.prov = &causal.Log{Records: prov.Records()}
	out.prov.Register(reg, shardLabels...)
	reg.Counter("trace_dropped_total", shardLabels...).Add(float64(tracer.Dropped()))
	if recorder != nil {
		out.rec = recorder.Recording()
	}
	out.snap, out.tr = reg.Snapshot(), tracer
	return out
}

// fleetOpts returns the parallel scheduling options for a fleet sim config.
func fleetOpts(cfg FleetSimConfig) parallel.Options {
	return parallel.Options{Workers: cfg.Workers, ShuffleSeed: cfg.ShuffleShards}
}

// rackShard is the recipe for one unit of streamed fleet work: rack rackIdx
// of the fleet fcfg describes, simulated under sys. It carries the recipe,
// not the rack: the worker generates the trace on entry and drops it on
// exit, so a paper-scale fleet holds O(workers) rack traces in memory
// instead of O(fleet).
type rackShard struct {
	fcfg    *trace.FleetConfig
	rackIdx int
	sys     baselines.System
}

// streamRacks runs n rack shards across cfg.Workers goroutines. Shard i
// generates its rack from recipe(i) — byte-identical wherever and whenever it
// runs, since a rack is a pure function of (seed, index) — and simulates it;
// results come back in shard-index order, never completion order, so folds
// over them are bit-identical for any worker count. The first generation
// error fails the whole run.
func streamRacks(n int, cfg FleetSimConfig, recipe func(i int) rackShard) ([]shardOut, error) {
	outs := parallel.Map(n, fleetOpts(cfg), func(i int) shardOut {
		sh := recipe(i)
		fr, err := trace.GenFleetRack(*sh.fcfg, sh.rackIdx)
		if err != nil {
			return shardOut{err: err}
		}
		return rackRunObserved(fr.RackTrace, sh.sys, cfg, fr.Class.String(), i)
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}
	return outs, nil
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
// classes. Every (rack, system) pair is an independent shard fanned out
// across cfg.Workers goroutines; shard results are folded in shard-index
// order so the table is bit-identical to the serial sweep.
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
	classes := []trace.ClusterClass{trace.HighPower, trace.MediumPower, trace.LowPower}
	systems := baselines.All()

	// Flatten every (class, system, rack) triple into the shard list. Each
	// per-class mini-fleet has a single-class mix, so it guarantees exact
	// class coverage at any scale. No trace is generated here: shards stream
	// their racks inside the worker (memory O(active shards)). cellOf maps a
	// shard to the (class, system) aggregate it contributes to.
	var shards []rackShard
	var cellOf []int
	racksPerClass := make([]int, len(classes))
	for ci, class := range classes {
		fcfg := table1FleetConfig(cfg, class, ci)
		racksPerClass[ci] = fcfg.NumRacks()
		for si, sys := range systems {
			for ri := 0; ri < fcfg.NumRacks(); ri++ {
				shards = append(shards, rackShard{fcfg: &fcfg, rackIdx: ri, sys: sys})
				cellOf = append(cellOf, ci*len(systems)+si)
			}
		}
	}
	results, err := streamRacks(len(shards), cfg, func(i int) rackShard { return shards[i] })
	if err != nil {
		return nil, nil, nil, err
	}

	// Reduce in shard order: shards are grouped by cell, so this fold
	// visits each cell's racks in generation order, exactly like the old
	// serial loop. Telemetry merges in the same order, which is what makes
	// the snapshot and trace byte-identical across worker counts.
	cells := make([]rackMetrics, len(classes)*len(systems))
	var observation *FleetObservation
	if cfg.Observe {
		snaps := make([]*metrics.Snapshot, len(results))
		tracers := make([]*obs.Tracer, len(results))
		recs := make([]*metrics.Recording, len(results))
		for i, r := range results {
			snaps[i] = r.snap
			tracers[i] = r.tr
			recs[i] = r.rec
		}
		total := 0
		for _, r := range results {
			if r.prov != nil {
				total += len(r.prov.Records)
			}
		}
		prov := &causal.Log{Records: make([]causal.Record, 0, total)}
		for _, r := range results {
			if r.prov != nil {
				prov.Records = append(prov.Records, r.prov.Records...)
			}
		}
		observation = &FleetObservation{
			Metrics:      metrics.Merge(snaps...),
			Trace:        obs.Concat(tracers...),
			Series:       metrics.MergeRecordings(recs...),
			Provenance:   prov,
			CriticalPath: prov.Stats(),
		}
	}
	for i, r := range results {
		cells[cellOf[i]].accumulate(r.m)
	}

	var rows []Table1Row
	for ci, class := range classes {
		centralCaps := 0
		classRows := make([]Table1Row, 0, len(systems))
		for si, sys := range systems {
			agg := cells[ci*len(systems)+si]
			row := Table1Row{System: sys, Class: class, CapEvents: agg.caps,
				Requests: agg.requests, RacksTested: racksPerClass[ci]}
			if agg.requests > 0 {
				row.SuccessPct = 100 * float64(agg.successes) / float64(agg.requests)
			}
			if agg.penaltyN > 0 {
				row.PenaltyPct = 100 * agg.penaltySum / float64(agg.penaltyN)
			}
			if agg.perfN > 0 {
				row.NormPerf = agg.perfSum / float64(agg.perfN)
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
