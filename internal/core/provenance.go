package core

import (
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/policy"
)

// This file wires the agent hierarchy into the decision-provenance layer
// (internal/causal). Like the obs instruments, the recorder is a nil-able
// field: uninstrumented agents pay one pointer test per decision site and
// emit nothing, preserving the zero-observer-effect contract. Every risk
// decision — admission verdicts, exploration moves, setbacks, session
// stops, budget computations — emits one causal.Record whose Parent span
// names the message or decision that caused it.

// NoteBudget records the application of a gOA budget to this sOA: parent
// is the span of the budget message (or broadcast record) that delivered
// it. Subsequent admission verdicts link to this record, tying every
// grant/deny to the budget it was judged against.
func (a *SOA) NoteBudget(now time.Time, watts float64, parent uint64) {
	if a.prov == nil {
		return
	}
	a.lastBudgetSpan = a.prov.Emit(causal.Record{
		Parent:    causal.SpanID(parent),
		Time:      now,
		Kind:      causal.KindDecision,
		Component: "soa",
		Site:      "soa.budget",
		Subject:   a.host.Name(),
		Verdict:   "apply",
		Inputs:    []causal.Input{causal.In("budget_watts", watts)},
	})
}

// admitLinks returns the budget link-set of an admission verdict.
func (a *SOA) admitLinks() []causal.SpanID {
	if a.lastBudgetSpan == 0 {
		return nil
	}
	return []causal.SpanID{a.lastBudgetSpan}
}

// provReject records a denied admission. in is nil on the pre-power
// rejections (invalid, duplicate, lifetime) and the AdmitOverride path.
func (a *SOA) provReject(now time.Time, req Request, reason RejectReason, in *policy.AdmitInput, pol string) {
	if a.prov == nil {
		return
	}
	rec := causal.Record{
		Parent:    causal.SpanID(req.Span),
		Links:     a.admitLinks(),
		Time:      now,
		Kind:      causal.KindDecision,
		Component: "soa",
		Site:      "soa.admit",
		Subject:   req.VM,
		Policy:    pol,
		Verdict:   "deny",
		Detail:    string(reason),
	}
	if in != nil {
		rec.Inputs = []causal.Input{
			causal.In("predicted_watts", in.PredictedWatts),
			causal.In("active_delta_watts", in.ActiveDeltaWatts),
			causal.In("request_delta_watts", in.RequestDeltaWatts),
			causal.In("budget_watts", in.BudgetWatts),
			causal.In("request_cores", float64(in.RequestCores)),
		}
	}
	a.prov.Emit(rec)
}

// provGrant records a granted admission and returns its span, which the
// session keeps so later consequences (a budget-exhaustion stop) chain
// back to the grant.
func (a *SOA) provGrant(now time.Time, req Request, target int, cores int, in *policy.AdmitInput, pol string) causal.SpanID {
	if a.prov == nil {
		return 0
	}
	rec := causal.Record{
		Parent:    causal.SpanID(req.Span),
		Links:     a.admitLinks(),
		Time:      now,
		Kind:      causal.KindDecision,
		Component: "soa",
		Site:      "soa.admit",
		Subject:   req.VM,
		Policy:    pol,
		Verdict:   "grant",
	}
	rec.Inputs = []causal.Input{
		causal.In("cores", float64(cores)),
		causal.In("target_mhz", float64(target)),
	}
	if in != nil {
		rec.Inputs = append(rec.Inputs,
			causal.In("predicted_watts", in.PredictedWatts),
			causal.In("active_delta_watts", in.ActiveDeltaWatts),
			causal.In("request_delta_watts", in.RequestDeltaWatts),
			causal.In("budget_watts", in.BudgetWatts),
		)
	}
	return a.prov.Emit(rec)
}

// provSessionStop records a session stopped because its per-core overclock
// time budget (or wear envelope) ran out; parent is the grant that started
// it.
func (a *SOA) provSessionStop(now time.Time, vm string, grant causal.SpanID) {
	if a.prov == nil {
		return
	}
	a.prov.Emit(causal.Record{
		Parent:    grant,
		Time:      now,
		Kind:      causal.KindDecision,
		Component: "soa",
		Site:      "soa.session",
		Subject:   vm,
		Verdict:   "stop",
		Detail:    string(RejectLifetime),
	})
}

// provSetback records the exploration setback applied after a rack warning
// or cap event; parent is the rack event's span, closing the
// cap → budget-revert causal edge.
func (a *SOA) provSetback(now time.Time, parent uint64, capped bool) {
	if a.prov == nil {
		return
	}
	verdict, site := "backoff", "soa.backoff"
	if capped {
		verdict, site = "reset", "soa.capreset"
	}
	a.prov.Emit(causal.Record{
		Parent:    causal.SpanID(parent),
		Time:      now,
		Kind:      causal.KindDecision,
		Component: "soa",
		Site:      site,
		Subject:   a.host.Name(),
		Policy:    a.pol.Exploration.Name(),
		Verdict:   verdict,
		Inputs:    []causal.Input{causal.In("kept_extra_watts", a.extraWatts)},
	})
}

// provExplore records an exploration-machine move (bump or exploit).
func (a *SOA) provExplore(now time.Time, verdict string) {
	if a.prov == nil {
		return
	}
	a.prov.Emit(causal.Record{
		Time:      now,
		Kind:      causal.KindDecision,
		Component: "soa",
		Site:      "soa.explore",
		Subject:   a.host.Name(),
		Policy:    a.pol.Exploration.Name(),
		Verdict:   verdict,
		Inputs:    []causal.Input{causal.In("extra_watts", a.extraWatts)},
	})
}

// NoteProfile marks the receipt of an sOA profile message: the next budget
// broadcast records this span as its parent, chaining budget replies back
// to the profile reports that shaped them.
func (g *GOA) NoteProfile(span uint64) {
	if g.prov == nil || span == 0 {
		return
	}
	g.lastProfileSpan = causal.SpanID(span)
}

// ProvenanceBroadcast records one budget push to a server and returns the
// record's span, which the harness stamps onto the outgoing "goa.budget"
// message. Returns 0 (and records nothing) with provenance off, leaving
// the message span-free.
func (g *GOA) ProvenanceBroadcast(now time.Time, server string, watts float64) uint64 {
	if g.prov == nil {
		return 0
	}
	return uint64(g.prov.Emit(causal.Record{
		Parent:    g.lastProfileSpan,
		Time:      now,
		Kind:      causal.KindDecision,
		Component: "goa",
		Site:      "goa.budget",
		Subject:   server,
		Verdict:   "assign",
		Inputs:    []causal.Input{causal.In("budget_watts", watts)},
	}))
}
