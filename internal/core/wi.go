package core

import (
	"sort"
	"time"
)

// InstanceMetrics is what a Local Workload Intelligence agent collects from
// its VM each interval and ships to the service's global agent (§IV-A).
type InstanceMetrics struct {
	P99MS float64
	AvgMS float64
	Util  float64
}

// MetricPolicy triggers overclocking from application metrics: scale up
// (start overclocking) when the tail approaches the SLO, scale down (stop)
// when it recovers. The scale-up threshold sits before the scale-out
// threshold so overclocking absorbs spikes and scale-out remains the
// fallback (§IV-D).
type MetricPolicy struct {
	// ScaleUpFrac of the SLO at which overclocking starts.
	ScaleUpFrac float64
	// ScaleDownFrac of the SLO at which overclocking stops.
	ScaleDownFrac float64
	// ScaleOutFrac of the SLO at which the deployment scales out even if
	// overclocked.
	ScaleOutFrac float64
}

// DefaultMetricPolicy overclocks at 80% of the SLO, releases at 50%, and
// scales out at 105%. The release threshold sits above the overclocked
// steady state under elevated-but-not-peak load, so sessions run at peak
// duty rather than continuously — conserving the lifetime budget (§IV-A).
func DefaultMetricPolicy() MetricPolicy {
	return MetricPolicy{ScaleUpFrac: 0.8, ScaleDownFrac: 0.5, ScaleOutFrac: 1.05}
}

// UtilPolicy triggers overclocking from resource utilization instead of
// (or in addition to) application latency — §IV-A: "workloads can use
// application metrics (e.g., tail latency, queue length) or resource
// utilization (e.g., CPU, network) to trigger overclocking". WebConf-style
// services provision on deployment-level CPU utilization.
type UtilPolicy struct {
	// ScaleUpUtil is the deployment mean utilization at which overclocking
	// starts.
	ScaleUpUtil float64
	// ScaleDownUtil is the utilization at which it stops.
	ScaleDownUtil float64
}

// ScheduleWindow is a daily overclocking window for schedule-based
// policies (e.g. 9-10 AM local time, §IV-A). StartHour > EndHour means the
// window wraps past midnight: {22, 2} covers 22:00-23:59 and 00:00-01:59.
type ScheduleWindow struct {
	StartHour, EndHour int
	// WeekdaysOnly restricts the window to Monday-Friday. The filter tests
	// the weekday of the queried instant itself, so an overnight window
	// starting Friday evening does not extend into Saturday morning.
	WeekdaysOnly bool
}

// Contains reports whether ts falls inside the window.
func (w ScheduleWindow) Contains(ts time.Time) bool {
	if w.WeekdaysOnly {
		wd := ts.Weekday()
		if wd == time.Saturday || wd == time.Sunday {
			return false
		}
	}
	h := ts.Hour()
	if w.StartHour > w.EndHour {
		// Overnight: the window spans midnight.
		return h >= w.StartHour || h < w.EndHour
	}
	return h >= w.StartHour && h < w.EndHour
}

// SchedulePolicy overclocks during fixed daily windows.
type SchedulePolicy struct {
	Windows []ScheduleWindow
}

// Active reports whether any window contains ts.
func (p SchedulePolicy) Active(ts time.Time) bool {
	for _, w := range p.Windows {
		if w.Contains(ts) {
			return true
		}
	}
	return false
}

// ScaleOutConfig governs the global WI agent's corrective actions when
// overclocking is rejected or about to run out.
type ScaleOutConfig struct {
	// MinInstances and MaxInstances bound the deployment size.
	MinInstances, MaxInstances int
	// StepInstances is how many instances one corrective action adds.
	StepInstances int
	// Cooldown throttles consecutive scale actions.
	Cooldown time.Duration
	// ScaleInFrac of the SLO below which (with no overclocking active)
	// the deployment scales back in.
	ScaleInFrac float64
	// Proactive enables scale-out on exhaustion predictions, before
	// overclocking actually fails (§IV-D; evaluated in §V-A's
	// overclocking-constrained experiment).
	Proactive bool
	// RejectThreshold is the paper's "create x new if y existing VMs
	// cannot be overclocked": corrective scale-out fires only after this
	// many rejections accumulate since the last corrective action, so a
	// one-off rejection (e.g. before a budget reassignment lands) does
	// not add capacity.
	RejectThreshold int
}

// OCGrace is how long after overclocking engages before metric-driven
// scale-out may fire: latency needs a control period or two to reflect the
// new frequency.
const OCGrace = 30 * time.Second

// rejectRetry is how long a rejected instance waits before re-requesting
// overclocking.
const rejectRetry = 15 * time.Second

// rejectMemory is how long the WI treats overclocking as unavailable after
// a rejection or predicted exhaustion, suppressing scale-in (the capacity
// will be needed again next peak — the budget only refills at the next
// epoch) and unblocking direct scale-out.
const rejectMemory = 30 * time.Minute

// ScaleOutSustain is how long the deployment tail must continuously exceed
// the scale-out threshold (with overclocking already engaged) before
// capacity is added: transient single-interval excursions are the
// overclock's job, sustained ones need instances.
const ScaleOutSustain = 10 * time.Second

// OCMinOn is the minimum time an engaged overclock stays on; it prevents
// dithering when the recovered latency sits near the release threshold
// (§IV-A warns that a scale-down estimate too close to scale-up causes
// dithering).
const OCMinOn = 60 * time.Second

// DefaultScaleOutConfig allows growing a single instance up to four.
func DefaultScaleOutConfig() ScaleOutConfig {
	return ScaleOutConfig{
		MinInstances: 1, MaxInstances: 4, StepInstances: 1,
		Cooldown: 2 * time.Minute, ScaleInFrac: 0.3, Proactive: true,
		RejectThreshold: 3,
	}
}

// Directive is the global WI agent's decision for its deployment.
type Directive struct {
	// Overclock lists, per instance name, whether it should be
	// overclocked right now.
	Overclock map[string]bool
	// Instances is the desired deployment size.
	Instances int
}

// GlobalWI is the Global Workload Intelligence agent of one service: it
// aggregates instance metrics, applies the metric and/or schedule policy,
// and takes corrective scale actions when overclocking is unavailable.
type GlobalWI struct {
	SLOms    float64
	Metric   *MetricPolicy
	Util     *UtilPolicy
	Schedule *SchedulePolicy
	Scale    ScaleOutConfig

	instances map[string]InstanceMetrics
	ocActive  map[string]bool
	// rejectHold blocks re-requesting overclock for an instance whose
	// request was denied, until its tail recovers below the scale-down
	// threshold or the hold expires — otherwise the metric policy would
	// re-trigger and be re-rejected every interval. Expiry matters: the
	// sOA's budget may have been raised (gOA reassignment, exploration)
	// since the rejection.
	rejectHold  map[string]time.Time
	desired     int
	lastScaleAt time.Time
	hasScaled   bool
	// lastOCStartAt is when overclocking last engaged; metric-driven
	// scale-out waits OCGrace after it so vertical scaling has a chance
	// to take effect before capacity is added.
	lastOCStartAt time.Time
	hasOCStarted  bool
	// ocStartAt tracks per-instance engagement for the OCMinOn hold.
	ocStartAt map[string]time.Time
	// overSince tracks how long the tail has continuously exceeded the
	// scale-out threshold.
	overSince   time.Time
	hasOverMark bool

	rejectsSinceAction int
	pendingCorrect     bool
	rejectPending      []string // holds to stamp with the next Decide's clock
	lastRejectAt       time.Time
	hasRejected        bool
	markRejectNow      bool // stamp lastRejectAt with the next Decide's clock

	// obs, when non-nil, holds resolved metric handles (see Instrument in
	// obs.go).
	obs *wiObs
}

// NewGlobalWI creates a global WI agent for a service with the given SLO.
func NewGlobalWI(sloMS float64, metric *MetricPolicy, schedule *SchedulePolicy, scale ScaleOutConfig) *GlobalWI {
	if scale.MinInstances < 1 {
		scale.MinInstances = 1
	}
	if scale.MaxInstances < scale.MinInstances {
		scale.MaxInstances = scale.MinInstances
	}
	if scale.StepInstances < 1 {
		scale.StepInstances = 1
	}
	return &GlobalWI{
		SLOms: sloMS, Metric: metric, Schedule: schedule, Scale: scale,
		instances:  make(map[string]InstanceMetrics),
		ocActive:   make(map[string]bool),
		ocStartAt:  make(map[string]time.Time),
		rejectHold: make(map[string]time.Time),
		desired:    scale.MinInstances,
	}
}

// Observe records one instance's metrics (the Local WI agent's report).
func (w *GlobalWI) Observe(instance string, m InstanceMetrics) {
	w.instances[instance] = m
}

// Forget removes a decommissioned instance from every tracking structure.
// The rejectPending sweep matters: a name left there would be re-inserted
// into rejectHold by the next Decide, resurrecting the instance.
func (w *GlobalWI) Forget(instance string) {
	delete(w.instances, instance)
	delete(w.ocActive, instance)
	delete(w.rejectHold, instance)
	delete(w.ocStartAt, instance)
	kept := w.rejectPending[:0]
	for _, name := range w.rejectPending {
		if name != instance {
			kept = append(kept, name)
		}
	}
	w.rejectPending = kept
}

// ReportRejection tells the agent an overclocking request for one of its
// instances was denied; enough rejections trigger corrective scale-out.
// A lifetime rejection means the overclocking budget is gone until the
// next epoch, so the deployment also enters the long "overclocking
// unavailable" regime; power rejections are transient (budget
// reassignment or exploration usually resolves them within minutes).
func (w *GlobalWI) ReportRejection(instance string, reason RejectReason) {
	w.ocActive[instance] = false
	w.rejectHold[instance] = w.lastScaleAt // placeholder; stamped in Decide
	w.rejectPending = append(w.rejectPending, instance)
	w.obsRejection()
	w.rejectsSinceAction++
	threshold := w.Scale.RejectThreshold
	if threshold < 1 {
		threshold = 1
	}
	if w.rejectsSinceAction >= threshold {
		w.pendingCorrect = true
	}
	if reason == RejectLifetime {
		w.hasRejected = true
		w.markRejectNow = true
	}
}

// ReportExhaustion tells the agent overclocking will become unavailable at
// the given time; with a proactive policy this triggers early scale-out.
func (w *GlobalWI) ReportExhaustion(kind ExhaustionKind, at time.Time) {
	if w.Scale.Proactive {
		w.pendingCorrect = true
		// Overclocking becomes unavailable at the predicted instant;
		// capacity added now must be retained past it.
		if !w.hasRejected || at.After(w.lastRejectAt) {
			w.lastRejectAt = at
			w.hasRejected = true
		}
	}
}

// deploymentP99 returns the worst instance tail — the deployment-level
// metric policies act on.
func (w *GlobalWI) deploymentP99() float64 {
	worst := 0.0
	for _, m := range w.instances {
		if m.P99MS > worst {
			worst = m.P99MS
		}
	}
	return worst
}

// deploymentUtil returns the mean instance utilization — the paper's Fig 4
// deployment-level provisioning metric.
func (w *GlobalWI) deploymentUtil() float64 {
	if len(w.instances) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range w.instances {
		sum += m.Util
	}
	return sum / float64(len(w.instances))
}

// sortedInstances returns instance names deterministically.
func (w *GlobalWI) sortedInstances() []string {
	names := make([]string, 0, len(w.instances))
	for name := range w.instances {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Decide produces the deployment directive for now from the policies and
// any pending corrective actions (§IV-A, §IV-D).
func (w *GlobalWI) Decide(now time.Time) Directive {
	p99 := w.deploymentP99()
	scheduleOn := w.Schedule != nil && w.Schedule.Active(now)

	// Track sustained excess over the scale-out threshold.
	if w.Metric != nil && p99 >= w.Metric.ScaleOutFrac*w.SLOms {
		if !w.hasOverMark {
			w.overSince = now
			w.hasOverMark = true
		}
	} else {
		w.hasOverMark = false
	}

	// Stamp freshly reported rejections with this decision's clock. The
	// hold is short: the sOA may already be exploring a higher budget,
	// so the request is retried quickly (§IV-D).
	for _, name := range w.rejectPending {
		w.rejectHold[name] = now.Add(rejectRetry)
	}
	w.rejectPending = nil
	if w.markRejectNow {
		if now.After(w.lastRejectAt) {
			w.lastRejectAt = now
		}
		w.markRejectNow = false
	}
	// While overclocking is known to be unavailable, the deployment acts
	// as if it cannot scale up: extra capacity is retained and the
	// scale-out path does not wait for an (impossible) overclock.
	ocUnavailable := w.hasRejected && now.Sub(w.lastRejectAt) < rejectMemory

	// Per-instance overclock decisions. The deployment-mean utilization is
	// invariant across the loop (Observe/Forget never run mid-decision), so
	// compute it once rather than per instance.
	depUtil := w.deploymentUtil()
	for _, name := range w.sortedInstances() {
		m := w.instances[name]
		if until, held := w.rejectHold[name]; held {
			w.ocActive[name] = false
			recovered := w.Metric == nil || m.P99MS <= w.Metric.ScaleDownFrac*w.SLOms
			if recovered || !now.Before(until) {
				delete(w.rejectHold, name) // eligible again
			}
			continue
		}
		want := w.ocActive[name]
		wasOn := want
		if scheduleOn {
			want = true
		} else if w.Metric != nil || w.Util != nil {
			up := w.Metric != nil && m.P99MS >= w.Metric.ScaleUpFrac*w.SLOms
			down := w.Metric != nil && m.P99MS <= w.Metric.ScaleDownFrac*w.SLOms
			if w.Util != nil {
				// Deployment-level utilization triggers (Fig 4): no VM is
				// overclocked while the deployment as a whole is under its
				// target, even if this instance runs hot.
				up = up || depUtil >= w.Util.ScaleUpUtil
				if w.Metric == nil {
					down = depUtil <= w.Util.ScaleDownUtil
				} else {
					down = down && depUtil <= w.Util.ScaleDownUtil
				}
			}
			switch {
			case up:
				want = true
			case down:
				// Hold the overclock for a minimum period to avoid
				// dithering around the release threshold.
				if started, ok := w.ocStartAt[name]; !ok || now.Sub(started) >= OCMinOn {
					want = false
				}
			}
			// Outside any schedule window with no metric pressure, stop.
		} else if w.Schedule != nil {
			want = false
		}
		w.ocActive[name] = want
		if want && !wasOn {
			w.lastOCStartAt = now
			w.hasOCStarted = true
			w.ocStartAt[name] = now
			w.obsOCEngage()
		}
		if !want {
			delete(w.ocStartAt, name)
		}
	}

	// Deployment sizing: corrective scale-out dominates, then the metric
	// scale-out threshold, then scale-in when comfortably idle.
	canAct := !w.hasScaled || now.Sub(w.lastScaleAt) >= w.Scale.Cooldown
	switch {
	case w.pendingCorrect && canAct && w.desired < w.Scale.MaxInstances:
		w.desired += w.Scale.StepInstances
		if w.desired > w.Scale.MaxInstances {
			w.desired = w.Scale.MaxInstances
		}
		w.obsScale(now, "scale-out", "corrective", w.desired)
		w.lastScaleAt = now
		w.hasScaled = true
		w.pendingCorrect = false
		w.rejectsSinceAction = 0
	// Metric-driven scale-out only fires once overclocking is already
	// engaged: the scale-up threshold sits before the scale-out threshold
	// so vertical scaling absorbs spikes first (§IV-D).
	case w.Metric != nil && p99 >= w.Metric.ScaleOutFrac*w.SLOms &&
		(ocUnavailable || (w.anyOCActive() &&
			w.hasOCStarted && now.Sub(w.lastOCStartAt) >= OCGrace &&
			w.hasOverMark && now.Sub(w.overSince) >= ScaleOutSustain)) &&
		canAct && w.desired < w.Scale.MaxInstances:
		w.desired += w.Scale.StepInstances
		if w.desired > w.Scale.MaxInstances {
			w.desired = w.Scale.MaxInstances
		}
		w.obsScale(now, "scale-out", "metric", w.desired)
		w.lastScaleAt = now
		w.hasScaled = true
	case w.Scale.ScaleInFrac > 0 && p99 > 0 && p99 <= w.Scale.ScaleInFrac*w.SLOms &&
		!w.anyOCActive() && !ocUnavailable && canAct && w.desired > w.Scale.MinInstances:
		w.desired--
		w.obsScale(now, "scale-in", "idle", w.desired)
		w.lastScaleAt = now
		w.hasScaled = true
	default:
		if w.pendingCorrect && w.desired >= w.Scale.MaxInstances {
			// Cannot grow further; drop the pending flag.
			w.pendingCorrect = false
		}
	}

	oc := make(map[string]bool, len(w.ocActive))
	for name, v := range w.ocActive {
		oc[name] = v
	}
	w.obsDecide(w.desired)
	return Directive{Overclock: oc, Instances: w.desired}
}

func (w *GlobalWI) anyOCActive() bool {
	for _, v := range w.ocActive {
		if v {
			return true
		}
	}
	return false
}
