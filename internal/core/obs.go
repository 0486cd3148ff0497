package core

import (
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
)

// This file wires the agent hierarchy into the observability layer. Each
// agent owns a nil-able *xxxObs holding pre-resolved metric handles: when
// instrumentation is off the hot paths pay a single pointer test, and when
// it is on each event is a plain field update (0 allocs/op, guarded by
// obs_alloc_test.go). Trace emission is reserved for bounded occurrences —
// rejections, state transitions, faults — never per-grant bookkeeping.

// soaObs holds the sOA's resolved instruments.
type soaObs struct {
	tracer *obs.Tracer
	server string

	requests     *metrics.Counter
	grants       *metrics.Counter
	rejPower     *metrics.Counter
	rejLifetime  *metrics.Counter
	rejDuplicate *metrics.Counter
	rejInvalid   *metrics.Counter
	exhaustedSes *metrics.Counter
	exploreBumps *metrics.Counter
	warnBackoffs *metrics.Counter
	capResets    *metrics.Counter
	exhaustPower *metrics.Counter
	exhaustOC    *metrics.Counter
	budgetWatts  *metrics.Gauge
	extraWatts   *metrics.Gauge
	grantCores   *metrics.Histogram
}

// Instrument attaches the sOA to a registry, a tracer and a provenance
// recorder (see provenance.go); a nil registry attaches only the recorder.
// The server label is the host name; extra labels give experiment context
// (class, system). Calling it again — e.g. on an agent rebooted after a
// chaos crash — resolves the same series, so totals keep accumulating.
func (a *SOA) Instrument(reg *metrics.Registry, tr *obs.Tracer, prov *causal.Recorder, labels ...metrics.Label) {
	a.prov = prov
	if reg == nil {
		return
	}
	server := a.host.Name()
	ls := metrics.With(labels, metrics.L("server", server))
	withReason := func(reason RejectReason) []metrics.Label {
		return metrics.With(ls, metrics.L("reason", string(reason)))
	}
	withKind := func(kind ExhaustionKind) []metrics.Label {
		return metrics.With(ls, metrics.L("kind", string(kind)))
	}
	a.obs = &soaObs{
		tracer:       tr,
		server:       server,
		requests:     reg.Counter("soa_requests_total", ls...),
		grants:       reg.Counter("soa_grants_total", ls...),
		rejPower:     reg.Counter("soa_rejects_total", withReason(RejectPower)...),
		rejLifetime:  reg.Counter("soa_rejects_total", withReason(RejectLifetime)...),
		rejDuplicate: reg.Counter("soa_rejects_total", withReason(RejectDuplicate)...),
		rejInvalid:   reg.Counter("soa_rejects_total", withReason(RejectInvalid)...),
		exhaustedSes: reg.Counter("soa_sessions_exhausted_total", ls...),
		exploreBumps: reg.Counter("soa_explore_bumps_total", ls...),
		warnBackoffs: reg.Counter("soa_warning_backoffs_total", ls...),
		capResets:    reg.Counter("soa_cap_resets_total", ls...),
		exhaustPower: reg.Counter("soa_exhaustion_signals_total", withKind(ExhaustPower)...),
		exhaustOC:    reg.Counter("soa_exhaustion_signals_total", withKind(ExhaustOCBudget)...),
		budgetWatts:  reg.Gauge("soa_budget_watts", ls...),
		extraWatts:   reg.Gauge("soa_extra_watts", ls...),
		grantCores:   reg.Histogram("soa_grant_cores", metrics.CoreBuckets, ls...),
	}
}

// obsRequest counts an admission request.
func (a *SOA) obsRequest() {
	if a.obs != nil {
		a.obs.requests.Inc()
	}
}

// obsGrant counts a granted session.
func (a *SOA) obsGrant(cores int) {
	if a.obs != nil {
		a.obs.grants.Inc()
		a.obs.grantCores.Observe(float64(cores))
	}
}

// obsReject counts and traces a rejection.
func (a *SOA) obsReject(now time.Time, vm string, reason RejectReason) {
	if a.obs == nil {
		return
	}
	switch reason {
	case RejectPower:
		a.obs.rejPower.Inc()
	case RejectLifetime:
		a.obs.rejLifetime.Inc()
	case RejectDuplicate:
		a.obs.rejDuplicate.Inc()
	default:
		a.obs.rejInvalid.Inc()
	}
	a.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.SOA, Kind: "reject",
		Source: a.obs.server, Target: vm, Detail: string(reason),
	})
}

// obsSessionExhausted counts and traces a session stopped for exhausted
// per-core overclock time budgets.
func (a *SOA) obsSessionExhausted(now time.Time, vm string) {
	if a.obs == nil {
		return
	}
	a.obs.exhaustedSes.Inc()
	a.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.SOA, Kind: "session-exhausted",
		Source: a.obs.server, Target: vm,
	})
}

// obsExploreBump counts and traces one conditional budget increment.
func (a *SOA) obsExploreBump(now time.Time) {
	if a.obs == nil {
		return
	}
	a.obs.exploreBumps.Inc()
	a.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.SOA, Kind: "explore-bump",
		Source: a.obs.server, Value: a.extraWatts,
	})
}

// obsExploit traces the transition to exploiting a discovered safe budget.
func (a *SOA) obsExploit(now time.Time) {
	if a.obs == nil {
		return
	}
	a.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.SOA, Kind: "exploit",
		Source: a.obs.server, Value: a.extraWatts,
	})
}

// obsWarnBackoff counts and traces an exploration back-off after a rack
// warning.
func (a *SOA) obsWarnBackoff(now time.Time) {
	if a.obs == nil {
		return
	}
	a.obs.warnBackoffs.Inc()
	a.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.SOA, Kind: "warning-backoff",
		Source: a.obs.server, Value: a.extraWatts,
	})
}

// obsCapReset counts and traces the full budget revert after a cap event.
func (a *SOA) obsCapReset(now time.Time) {
	if a.obs == nil {
		return
	}
	a.obs.capResets.Inc()
	a.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.SOA, Kind: "cap-reset",
		Source: a.obs.server,
	})
}

// obsExhaustionSignal counts and traces a predicted-exhaustion warning to
// the WI layer.
func (a *SOA) obsExhaustionSignal(now time.Time, kind ExhaustionKind, at time.Time) {
	if a.obs == nil {
		return
	}
	switch kind {
	case ExhaustOCBudget:
		a.obs.exhaustOC.Inc()
	default:
		a.obs.exhaustPower.Inc()
	}
	a.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.SOA, Kind: "exhaustion-soon",
		Source: a.obs.server, Detail: string(kind), Value: at.Sub(now).Seconds(),
	})
}

// obsTick refreshes the budget gauges at the end of a control cycle.
func (a *SOA) obsTick(now time.Time) {
	if a.obs == nil {
		return
	}
	a.obs.budgetWatts.Set(a.BudgetAt(now))
	a.obs.extraWatts.Set(a.extraWatts)
}

// goaObs holds the gOA's resolved instruments.
type goaObs struct {
	tracer       *obs.Tracer
	rack         string
	computations *metrics.Counter
	lastSum      *metrics.Gauge
}

// Instrument attaches the gOA to a registry, a tracer and a provenance
// recorder; a nil registry attaches only the recorder.
func (g *GOA) Instrument(reg *metrics.Registry, tr *obs.Tracer, prov *causal.Recorder, labels ...metrics.Label) {
	g.prov = prov
	if reg == nil {
		return
	}
	ls := metrics.With(labels, metrics.L("rack", g.rack))
	g.obs = &goaObs{
		tracer:       tr,
		rack:         g.rack,
		computations: reg.Counter("goa_budget_computations_total", ls...),
		lastSum:      reg.Gauge("goa_last_budget_sum_watts", ls...),
	}
}

// obsBudgets records one three-phase budget computation.
func (g *GOA) obsBudgets(sum float64) {
	if g.obs == nil {
		return
	}
	g.obs.computations.Inc()
	g.obs.lastSum.Set(sum)
}

// TraceBroadcast traces one budget broadcast to a server. Callers (the
// experiment harnesses own the transport, so they own the broadcast) invoke
// it at the push site; it is a no-op when the gOA is uninstrumented.
func (g *GOA) TraceBroadcast(now time.Time, server string, watts float64) {
	if g.obs == nil {
		return
	}
	g.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.GOA, Kind: "budget-broadcast",
		Source: g.obs.rack, Target: server, Value: watts,
	})
}

// wiObs holds the WI agent's resolved instruments.
type wiObs struct {
	tracer      *obs.Tracer
	service     string
	rejections  *metrics.Counter
	scaleOuts   *metrics.Counter
	scaleIns    *metrics.Counter
	engagements *metrics.Counter
	instances   *metrics.Gauge
}

// Instrument attaches the WI agent to a registry and tracer under the given
// service label.
func (w *GlobalWI) Instrument(reg *metrics.Registry, tr *obs.Tracer, service string, labels ...metrics.Label) {
	ls := metrics.With(labels, metrics.L("service", service))
	w.obs = &wiObs{
		tracer:      tr,
		service:     service,
		rejections:  reg.Counter("wi_rejections_total", ls...),
		scaleOuts:   reg.Counter("wi_scale_outs_total", ls...),
		scaleIns:    reg.Counter("wi_scale_ins_total", ls...),
		engagements: reg.Counter("wi_oc_engagements_total", ls...),
		instances:   reg.Gauge("wi_instances", ls...),
	}
}

// obsRejection counts a rejection report from an sOA.
func (w *GlobalWI) obsRejection() {
	if w.obs != nil {
		w.obs.rejections.Inc()
	}
}

// obsScale counts and traces a scaling action. kind is "scale-out" or
// "scale-in"; detail names the trigger (corrective, metric).
func (w *GlobalWI) obsScale(now time.Time, kind, detail string, instances int) {
	if w.obs == nil {
		return
	}
	if kind == "scale-in" {
		w.obs.scaleIns.Inc()
	} else {
		w.obs.scaleOuts.Inc()
	}
	w.obs.tracer.Emit(obs.Event{
		Time: now, Component: obs.WI, Kind: kind,
		Source: w.obs.service, Detail: detail, Value: float64(instances),
	})
}

// obsOCEngage counts an instance turning overclocking on.
func (w *GlobalWI) obsOCEngage() {
	if w.obs != nil {
		w.obs.engagements.Inc()
	}
}

// obsDecide refreshes the instance gauge after a decision pass.
func (w *GlobalWI) obsDecide(instances int) {
	if w.obs != nil {
		w.obs.instances.Set(float64(instances))
	}
}
