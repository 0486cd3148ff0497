package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
)

// TestDecideMatchesReference runs seeded random programs of Observe, Forget,
// Decide, ReportRejection (before a name's first Observe too, with both
// reasons) and ReportExhaustion through GlobalWI and refGlobalWI, under every
// policy mix. After each Decide both must give every name ever seen the same
// verdict, presence included, the same deployment size and the same WI
// metrics. Utilizations are continuous, so no threshold sits where the
// reference's map-order sum could round across it.
func TestDecideMatchesReference(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var metric *MetricPolicy
		var util *UtilPolicy
		var sched *SchedulePolicy
		if rng.Intn(3) > 0 {
			mp := DefaultMetricPolicy()
			metric = &mp
		}
		if rng.Intn(2) == 0 {
			util = &UtilPolicy{ScaleUpUtil: 0.7, ScaleDownUtil: 0.45}
		}
		if rng.Intn(3) == 0 {
			sched = &SchedulePolicy{Windows: []ScheduleWindow{{StartHour: 9, EndHour: 10}}}
		}
		scale := ScaleOutConfig{
			MinInstances: 1, MaxInstances: 1 + rng.Intn(4), StepInstances: 1,
			Cooldown:    time.Duration(rng.Intn(180)) * time.Second,
			ScaleInFrac: 0.3, Proactive: rng.Intn(2) == 0,
			RejectThreshold: rng.Intn(4),
		}
		got := NewGlobalWI(100, metric, sched, scale)
		want := newRefGlobalWI(100, metric, sched, scale)
		got.Util, want.Util = util, util
		gotReg, wantReg := metrics.NewRegistry(), metrics.NewRegistry()
		got.Instrument(gotReg, nil, "svc")
		want.Instrument(wantReg, nil, "svc")

		now := wiNow
		seen := map[string]bool{}
		for step := 0; step < 400; step++ {
			name := names[rng.Intn(len(names))]
			switch op := rng.Intn(10); {
			case op < 4:
				m := InstanceMetrics{P99MS: 130 * rng.Float64(), AvgMS: 50 * rng.Float64(), Util: rng.Float64()}
				got.Observe(name, m)
				want.Observe(name, m)
				seen[name] = true
			case op == 4:
				got.Forget(name)
				want.Forget(name)
			case op == 5:
				reason := RejectPower
				if rng.Intn(2) == 0 {
					reason = RejectLifetime
				}
				got.ReportRejection(name, reason)
				want.ReportRejection(name, reason)
				seen[name] = true
			case op == 6:
				kind := ExhaustPower
				if rng.Intn(2) == 0 {
					kind = ExhaustOCBudget
				}
				at := now.Add(time.Duration(rng.Intn(3600)-600) * time.Second)
				got.ReportExhaustion(kind, at)
				want.ReportExhaustion(kind, at)
			default:
				now = now.Add(time.Duration(1+rng.Intn(40)) * time.Second)
				if rng.Intn(20) == 0 {
					now = now.Add(time.Duration(rng.Intn(120)) * time.Minute)
				}
				d, ref := got.Decide(now), want.Decide(now)
				if d.Instances != ref.Instances {
					t.Fatalf("seed %d step %d: Instances = %d, reference %d", seed, step, d.Instances, ref.Instances)
				}
				for n := range seen {
					on, known := d.verdict(n)
					refOn, refKnown := ref.Overclock[n]
					if on != refOn || known != refKnown {
						t.Fatalf("seed %d step %d: %s verdict (%v, known %v), reference (%v, known %v)",
							seed, step, n, on, known, refOn, refKnown)
					}
					if on != d.Overclock(n) {
						t.Fatalf("seed %d step %d: %s Overclock disagrees with its verdict", seed, step, n)
					}
				}
				if g, w := gotReg.Snapshot(), wantReg.Snapshot(); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: WI metrics\n%+v\nreference\n%+v", seed, step, g, w)
				}
			}
		}
	}
}

// refGlobalWI is a verbatim copy of the map-based GlobalWI that the
// name-sorted instance table replaced, kept as the reference
// TestDecideMatchesReference holds the table to. Only the names changed, and
// its obs hooks are copies of obs.go's.

// refDirective is the global WI agent's decision for its deployment.
type refDirective struct {
	// Overclock lists, per instance name, whether it should be
	// overclocked right now.
	Overclock map[string]bool
	// Instances is the desired deployment size.
	Instances int
}

// refGlobalWI is the Global Workload Intelligence agent of one service: it
// aggregates instance metrics, applies the metric and/or schedule policy,
// and takes corrective scale actions when overclocking is unavailable.
type refGlobalWI struct {
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

// newRefGlobalWI creates a global WI agent for a service with the given SLO.
func newRefGlobalWI(sloMS float64, metric *MetricPolicy, schedule *SchedulePolicy, scale ScaleOutConfig) *refGlobalWI {
	if scale.MinInstances < 1 {
		scale.MinInstances = 1
	}
	if scale.MaxInstances < scale.MinInstances {
		scale.MaxInstances = scale.MinInstances
	}
	if scale.StepInstances < 1 {
		scale.StepInstances = 1
	}
	return &refGlobalWI{
		SLOms: sloMS, Metric: metric, Schedule: schedule, Scale: scale,
		instances:  make(map[string]InstanceMetrics),
		ocActive:   make(map[string]bool),
		ocStartAt:  make(map[string]time.Time),
		rejectHold: make(map[string]time.Time),
		desired:    scale.MinInstances,
	}
}

// Observe records one instance's metrics (the Local WI agent's report).
func (w *refGlobalWI) Observe(instance string, m InstanceMetrics) {
	w.instances[instance] = m
}

// Forget removes a decommissioned instance from every tracking structure.
// The rejectPending sweep matters: a name left there would be re-inserted
// into rejectHold by the next Decide, resurrecting the instance.
func (w *refGlobalWI) Forget(instance string) {
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
func (w *refGlobalWI) ReportRejection(instance string, reason RejectReason) {
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
func (w *refGlobalWI) ReportExhaustion(kind ExhaustionKind, at time.Time) {
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
func (w *refGlobalWI) deploymentP99() float64 {
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
func (w *refGlobalWI) deploymentUtil() float64 {
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
func (w *refGlobalWI) sortedInstances() []string {
	names := make([]string, 0, len(w.instances))
	for name := range w.instances {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Decide produces the deployment directive for now from the policies and
// any pending corrective actions (§IV-A, §IV-D).
func (w *refGlobalWI) Decide(now time.Time) refDirective {
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
	return refDirective{Overclock: oc, Instances: w.desired}
}

func (w *refGlobalWI) anyOCActive() bool {
	for _, v := range w.ocActive {
		if v {
			return true
		}
	}
	return false
}

func (w *refGlobalWI) Instrument(reg *metrics.Registry, tr *obs.Tracer, service string, labels ...metrics.Label) {
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

func (w *refGlobalWI) obsRejection() {
	if w.obs != nil {
		w.obs.rejections.Inc()
	}
}

func (w *refGlobalWI) obsScale(now time.Time, kind, detail string, instances int) {
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

func (w *refGlobalWI) obsOCEngage() {
	if w.obs != nil {
		w.obs.engagements.Inc()
	}
}

func (w *refGlobalWI) obsDecide(instances int) {
	if w.obs != nil {
		w.obs.instances.Set(float64(instances))
	}
}
