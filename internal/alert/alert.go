// Package alert is a declarative rules engine over recorded metric series.
// It turns SmartOClock's paper-level risk guarantees — budget violations
// bounded in duration, underprediction windows at ≈1%, cap events as rare
// emergencies — into threshold/duration rules that are evaluated against a
// metrics.Recording after (or during) a run, producing alert episodes and
// obs trace events on the "alert" component.
//
// Evaluation is pure and deterministic: rules scan sorted recorded series,
// episodes are maximal consecutive-true runs, and output ordering follows
// (rule declaration order, series identity), so alert output for a seed is
// byte-stable like every other artifact in the repo.
package alert

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
)

// Op is a comparison operator in a rule condition.
type Op string

// Comparison operators.
const (
	OpGT Op = ">"
	OpGE Op = ">="
	OpLT Op = "<"
	OpLE Op = "<="
)

func (o Op) holds(a, b float64) bool {
	switch o {
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	default:
		panic(fmt.Sprintf("alert: unknown operator %q", o))
	}
}

// Severity ranks an alert's urgency.
type Severity string

// Severities, in increasing urgency.
const (
	Warn Severity = "warn"
	Page Severity = "page"
)

// Rule is one declarative condition over a recorded metric. In its simplest
// form it compares each interval of Metric against the static Threshold:
//
//	Rule{Metric: "rack_power_watts", Op: OpGT, Threshold: 6000}
//
// Two optional twists cover the paper's guarantees:
//
//   - ThresholdMetric compares against another recorded series instead of a
//     constant (scaled by ThresholdScale, default 1). The two series are
//     matched pairwise by identical label sets, so a per-rack power series
//     is judged against the same rack's limit series.
//   - DivideBy divides Metric by another series first (again matched by
//     label set), turning two counters into a ratio — e.g. over-limit ticks
//     per total ticks for the underprediction rate. Intervals where the
//     divisor is zero evaluate to false.
//
// For is the minimum duration the condition must hold continuously before
// an episode fires; it rounds up to whole recording intervals (minimum 1).
type Rule struct {
	Name     string
	Severity Severity
	Help     string

	Metric string
	// Labels restricts the rule to series whose labels are a superset of
	// this map. Nil matches every series of the metric.
	Labels map[string]string

	Op        Op
	Threshold float64

	ThresholdMetric string
	ThresholdScale  float64

	DivideBy string

	For time.Duration
}

// Alert is one fired episode: a maximal run of intervals where the rule's
// condition held for at least the rule's For duration.
type Alert struct {
	Rule     string
	Severity Severity
	// Series is the canonical identity of the series that fired.
	Series string
	From   time.Time
	To     time.Time // end of the last firing interval
	// Intervals is the episode length in recording intervals.
	Intervals int
	// Peak is the most extreme observed value in the episode (max for
	// OpGT/OpGE rules, min for OpLT/OpLE).
	Peak float64
	// Limit is the threshold in force at the peak interval.
	Limit float64
}

// Duration returns the episode length in simulated time.
func (a *Alert) Duration() time.Duration { return a.To.Sub(a.From) }

// labelsMatch reports whether have is a superset of want.
func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// labelKey renders a label set canonically for pairwise series matching.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// seriesByLabels indexes a metric's series by canonical label set.
func seriesByLabels(rec *metrics.Recording, name string) map[string]*metrics.RecordedSeries {
	out := make(map[string]*metrics.RecordedSeries)
	for i := range rec.Series {
		s := &rec.Series[i]
		if s.Name == name {
			out[labelKey(s.Labels)] = s
		}
	}
	return out
}

// Eval evaluates rules over a recording, returning fired episodes ordered
// by (rule declaration order, series identity, time). When tracer is
// non-nil, each episode emits a "fire" event at its start and a "resolve"
// event at its end on the alert component, with the rule as Source, the
// series as Target, the peak as Value and the violated condition in Detail.
func Eval(rec *metrics.Recording, rules []Rule, tracer *obs.Tracer) []Alert {
	return EvalProv(rec, rules, tracer, nil)
}

// EvalProv is Eval with decision provenance: when prov is non-nil, every
// episode emits a "fire" record and a "resolve" record (parented to the
// fire) carrying the rule name as Policy, the peak value and the threshold
// in force as inputs. A nil prov makes EvalProv identical to Eval.
func EvalProv(rec *metrics.Recording, rules []Rule, tracer *obs.Tracer, prov *causal.Recorder) []Alert {
	if rec == nil || rec.Intervals() == 0 {
		return nil
	}
	var out []Alert
	for i := range rules {
		out = append(out, evalRule(rec, &rules[i])...)
	}
	if tracer != nil {
		emit(rec, out, tracer)
	}
	if prov.Enabled() {
		provEmit(out, prov)
	}
	return out
}

// provEmit records fire/resolve decisions for episodes in the same
// deterministic time order emit uses for trace events.
func provEmit(alerts []Alert, prov *causal.Recorder) {
	idx := make([]int, len(alerts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return alerts[idx[a]].From.Before(alerts[idx[b]].From)
	})
	for _, i := range idx {
		a := &alerts[i]
		fireSpan := prov.Emit(causal.Record{
			Time:      a.From,
			Kind:      causal.KindDecision,
			Component: "alert",
			Site:      "alert.fire",
			Subject:   a.Series,
			Policy:    a.Rule,
			Verdict:   "fire",
			Inputs: []causal.Input{
				causal.In("peak", a.Peak),
				causal.In("limit", a.Limit),
				causal.In("intervals", float64(a.Intervals)),
			},
			Detail: string(a.Severity),
		})
		prov.Emit(causal.Record{
			Time:      a.To,
			Parent:    fireSpan,
			Kind:      causal.KindDecision,
			Component: "alert",
			Site:      "alert.resolve",
			Subject:   a.Series,
			Policy:    a.Rule,
			Verdict:   "resolve",
			Inputs: []causal.Input{
				causal.In("peak", a.Peak),
				causal.In("limit", a.Limit),
			},
			Detail: string(a.Severity),
		})
	}
}

func evalRule(rec *metrics.Recording, r *Rule) []Alert {
	minIntervals := 1
	if r.For > 0 {
		minIntervals = int(math.Ceil(float64(r.For) / float64(rec.Step)))
		if minIntervals < 1 {
			minIntervals = 1
		}
	}
	scale := r.ThresholdScale
	if scale == 0 {
		scale = 1
	}
	var thresholds map[string]*metrics.RecordedSeries
	if r.ThresholdMetric != "" {
		thresholds = seriesByLabels(rec, r.ThresholdMetric)
	}
	var divisors map[string]*metrics.RecordedSeries
	if r.DivideBy != "" {
		divisors = seriesByLabels(rec, r.DivideBy)
	}

	var out []Alert
	for si := range rec.Series {
		s := &rec.Series[si]
		if s.Name != r.Metric || !labelsMatch(s.Labels, r.Labels) {
			continue
		}
		key := labelKey(s.Labels)
		var thr, div *metrics.RecordedSeries
		if thresholds != nil {
			if thr = thresholds[key]; thr == nil {
				continue // no matching limit series to judge against
			}
		}
		if divisors != nil {
			if div = divisors[key]; div == nil {
				continue
			}
		}

		n := len(s.Samples)
		run := 0
		var peak, limitAtPeak float64
		flush := func(end int) {
			if run >= minIntervals {
				from := rec.TimeAt(end - run)
				out = append(out, Alert{
					Rule: r.Name, Severity: r.Severity, Series: s.ID(),
					From: from, To: rec.TimeAt(end),
					Intervals: run, Peak: peak, Limit: limitAtPeak,
				})
			}
			run = 0
		}
		for i := 0; i < n; i++ {
			v := s.Samples[i]
			ok := true
			if div != nil {
				if div.Samples[i] == 0 {
					ok = false
				} else {
					v /= div.Samples[i]
				}
			}
			limit := r.Threshold
			if thr != nil {
				limit = thr.Samples[i] * scale
			}
			if ok {
				ok = r.Op.holds(v, limit)
			}
			if !ok {
				flush(i)
				continue
			}
			extremer := v > peak
			if r.Op == OpLT || r.Op == OpLE {
				extremer = v < peak
			}
			if run == 0 || extremer {
				peak, limitAtPeak = v, limit
			}
			run++
		}
		flush(n)
	}
	return out
}

// emit writes fire/resolve events for episodes in time order, which is how
// a live trace would have recorded them.
func emit(rec *metrics.Recording, alerts []Alert, tracer *obs.Tracer) {
	type edge struct {
		t    time.Time
		kind string
		a    *Alert
	}
	var edges []edge
	for i := range alerts {
		a := &alerts[i]
		edges = append(edges, edge{a.From, "fire", a}, edge{a.To, "resolve", a})
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].t.Before(edges[j].t) })
	for _, e := range edges {
		a := e.a
		tracer.Emit(obs.Event{
			Time: e.t, Component: obs.Alert, Kind: e.kind,
			Source: a.Rule, Target: a.Series, Value: a.Peak,
			Detail: fmt.Sprintf("%s: peak %s vs limit %s over %d intervals",
				a.Severity, trimFloat(a.Peak), trimFloat(a.Limit), a.Intervals),
		})
	}
}

func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }

// DefaultRules mirrors the paper's risk guarantees over the series the
// experiments already record. The thresholds reference:
//
//   - §V-C: rack power must not exceed the provisioned limit; violations
//     are emergencies handled by capping, so sustained overshoot pages.
//   - Fig. 10: prediction underestimates budget in ≈1% of windows; a rack
//     spending more than 1% of ticks over its limit pages.
//   - §III/§IV-B: warnings are the avoid-throttling signal and cap events
//     the last-resort safety net; a burst of either warns, and a
//     persistently near-limit rack warns before it trips.
//   - Invariant violations mean the implementation broke its own safety
//     contract — always page.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "rack-power-over-limit", Severity: Page,
			Help:   "rack draw exceeded its provisioned limit for 2+ intervals",
			Metric: "rack_power_watts", Op: OpGT,
			ThresholdMetric: "rack_limit_watts",
			For:             2 * time.Minute,
		},
		{
			Name: "rack-sustained-pressure", Severity: Warn,
			Help:   "rack draw within 5% of its limit, capping likely imminent",
			Metric: "rack_power_watts", Op: OpGT,
			ThresholdMetric: "rack_limit_watts", ThresholdScale: 0.95,
			For: 4 * time.Minute,
		},
		{
			Name: "rack-underprediction-rate", Severity: Page,
			Help:   "fraction of ticks over the rack limit exceeded the paper's ~1% bound",
			Metric: "rack_over_limit_ticks_total", Op: OpGT, Threshold: 0.01,
			DivideBy: "rack_ticks_total",
		},
		{
			Name: "rack-warning-burst", Severity: Warn,
			Help:   "rack warnings were broadcast in this window — draw near the limit, sOAs asked to back off",
			Metric: "rack_warnings_total", Op: OpGT, Threshold: 0,
		},
		{
			Name: "rack-cap-burst", Severity: Warn,
			Help:   "emergency cap events occurred in this window",
			Metric: "rack_cap_events_total", Op: OpGT, Threshold: 0,
		},
		{
			Name: "invariant-violations", Severity: Page,
			Help:   "runtime invariant checker detected a safety violation",
			Metric: "invariant_violations_total", Op: OpGT, Threshold: 0,
		},
	}
}
