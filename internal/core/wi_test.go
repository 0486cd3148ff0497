package core

import (
	"testing"
	"time"

	"smartoclock/internal/metrics"
)

var wiNow = time.Date(2023, 4, 10, 9, 30, 0, 0, time.UTC) // Monday 9:30

func newMetricWI() *GlobalWI {
	mp := DefaultMetricPolicy()
	return NewGlobalWI(100, &mp, nil, DefaultScaleOutConfig())
}

// wiCount instruments w into a fresh registry and returns a reader of the
// named counter of its service.
func wiCount(w *GlobalWI) func(name string) float64 {
	reg := metrics.NewRegistry()
	w.Instrument(reg, nil, "svc")
	return func(name string) float64 { return reg.Counter(name, metrics.L("service", "svc")).Value() }
}

func TestMetricPolicyStartsAndStopsOC(t *testing.T) {
	w := newMetricWI()
	w.Observe("i0", InstanceMetrics{P99MS: 85}) // ≥ 80% of SLO
	d := w.Decide(wiNow)
	if !d.Overclock["i0"] {
		t.Fatal("overclock not triggered at 85% of SLO")
	}
	// Hysteresis: between the thresholds it stays on.
	w.Observe("i0", InstanceMetrics{P99MS: 60})
	d = w.Decide(wiNow.Add(time.Second))
	if !d.Overclock["i0"] {
		t.Fatal("overclock dropped inside hysteresis band")
	}
	// Below scale-down, but within the minimum on-time: stays on.
	w.Observe("i0", InstanceMetrics{P99MS: 30})
	d = w.Decide(wiNow.Add(2 * time.Second))
	if !d.Overclock["i0"] {
		t.Fatal("overclock released before OCMinOn")
	}
	// After the minimum on-time it releases.
	d = w.Decide(wiNow.Add(OCMinOn + 2*time.Second))
	if d.Overclock["i0"] {
		t.Fatal("overclock not released at 30% of SLO")
	}
}

func TestMetricScaleOutAtThreshold(t *testing.T) {
	w := newMetricWI()
	count := wiCount(w)
	w.Observe("i0", InstanceMetrics{P99MS: 120}) // ≥ 105% of SLO
	d := w.Decide(wiNow)
	// Overclocking engages first; scale-out waits for the grace period.
	if !d.Overclock["i0"] || d.Instances != 1 {
		t.Fatalf("first decision = %+v, want OC on, 1 instance", d)
	}
	w.Observe("i0", InstanceMetrics{P99MS: 120}) // still over after grace
	w.Decide(wiNow.Add(OCGrace + time.Second))   // starts the sustain clock
	d = w.Decide(wiNow.Add(OCGrace + ScaleOutSustain + 2*time.Second))
	if d.Instances != 2 {
		t.Fatalf("instances = %d, want scale-out to 2", d.Instances)
	}
	if n := count("wi_scale_outs_total"); n != 1 {
		t.Fatalf("wi_scale_outs_total = %v", n)
	}
}

func TestScaleOutCooldown(t *testing.T) {
	w := newMetricWI()
	w.Observe("i0", InstanceMetrics{P99MS: 120})
	w.Decide(wiNow)                                                     // OC engages, sustain clock starts
	w.Decide(wiNow.Add(OCGrace + time.Second))                          // sustain continues
	d := w.Decide(wiNow.Add(OCGrace + ScaleOutSustain + 2*time.Second)) // first scale-out
	if d.Instances != 2 {
		t.Fatalf("instances = %d, want first scale-out", d.Instances)
	}
	w.Observe("i0", InstanceMetrics{P99MS: 120})
	d = w.Decide(wiNow.Add(OCGrace + ScaleOutSustain + 3*time.Second)) // within cooldown
	if d.Instances != 2 {
		t.Fatalf("cooldown violated: %d instances", d.Instances)
	}
	d = w.Decide(wiNow.Add(OCGrace + ScaleOutSustain + 2*time.Second + 3*time.Minute)) // past cooldown
	if d.Instances != 3 {
		t.Fatalf("instances = %d, want 3 after cooldown", d.Instances)
	}
}

func TestScaleOutBoundedByMax(t *testing.T) {
	cfg := DefaultScaleOutConfig()
	cfg.MaxInstances = 2
	mp := DefaultMetricPolicy()
	w := NewGlobalWI(100, &mp, nil, cfg)
	now := wiNow
	w.Observe("i0", InstanceMetrics{P99MS: 200})
	w.Decide(now) // engage OC, start sustain clock
	for i := 0; i < 5; i++ {
		w.Observe("i0", InstanceMetrics{P99MS: 200})
		now = now.Add(cfg.Cooldown + OCGrace + ScaleOutSustain + time.Second)
		if d := w.Decide(now); d.Instances > 2 {
			t.Fatalf("exceeded max instances: %d", d.Instances)
		}
	}
}

func TestRejectionTriggersCorrectiveScaleOut(t *testing.T) {
	w := newMetricWI()
	count := wiCount(w)
	w.Scale.RejectThreshold = 1
	w.Observe("i0", InstanceMetrics{P99MS: 85})
	w.Decide(wiNow)
	w.ReportRejection("i0", RejectPower)
	d := w.Decide(wiNow.Add(time.Second))
	if d.Instances != 2 {
		t.Fatalf("rejection did not scale out: %d", d.Instances)
	}
	if d.Overclock["i0"] {
		t.Fatal("rejected instance must not be marked overclocked")
	}
	if n := count("wi_rejections_total"); n != 1 {
		t.Fatalf("wi_rejections_total = %v", n)
	}
}

func TestProactiveExhaustionScaleOut(t *testing.T) {
	w := newMetricWI()
	w.Observe("i0", InstanceMetrics{P99MS: 85})
	w.Decide(wiNow)
	w.ReportExhaustion(ExhaustOCBudget, wiNow.Add(10*time.Minute))
	d := w.Decide(wiNow.Add(time.Second))
	if d.Instances != 2 {
		t.Fatalf("proactive scale-out missing: %d", d.Instances)
	}
}

func TestReactivePolicyIgnoresExhaustion(t *testing.T) {
	cfg := DefaultScaleOutConfig()
	cfg.Proactive = false
	mp := DefaultMetricPolicy()
	w := NewGlobalWI(100, &mp, nil, cfg)
	w.Observe("i0", InstanceMetrics{P99MS: 50})
	w.ReportExhaustion(ExhaustOCBudget, wiNow.Add(10*time.Minute))
	d := w.Decide(wiNow)
	if d.Instances != 1 {
		t.Fatalf("reactive policy scaled out on exhaustion: %d", d.Instances)
	}
}

func TestScaleInWhenIdle(t *testing.T) {
	w := newMetricWI()
	count := wiCount(w)
	// Scale out first (OC engages, then grace+sustain pass while over).
	w.Observe("i0", InstanceMetrics{P99MS: 120})
	w.Decide(wiNow)
	w.Decide(wiNow.Add(OCGrace + time.Second))
	w.Decide(wiNow.Add(OCGrace + ScaleOutSustain + 2*time.Second))
	// Then everything goes quiet (below scale-in threshold, OC released
	// after its minimum on-time).
	w.Observe("i0", InstanceMetrics{P99MS: 10})
	w.Observe("i1", InstanceMetrics{P99MS: 10})
	w.Decide(wiNow.Add(OCMinOn + 2*time.Minute)) // releases OC
	d := w.Decide(wiNow.Add(OCMinOn + 5*time.Minute))
	if d.Instances != 1 {
		t.Fatalf("did not scale in: %d", d.Instances)
	}
	if n := count("wi_scale_ins_total"); n != 1 {
		t.Fatalf("wi_scale_ins_total = %v", n)
	}
}

func TestNoScaleInWhileOCActive(t *testing.T) {
	w := newMetricWI()
	w.Observe("i0", InstanceMetrics{P99MS: 120})
	w.Decide(wiNow)
	w.Decide(wiNow.Add(OCGrace + time.Second))
	w.Decide(wiNow.Add(OCGrace + ScaleOutSustain + 2*time.Second)) // scaled to 2
	// Keep one instance overclocked while the other is quiet: the
	// deployment must not scale in.
	w.Observe("i0", InstanceMetrics{P99MS: 10})
	w.Observe("i1", InstanceMetrics{P99MS: 85})
	d := w.Decide(wiNow.Add(10 * time.Minute))
	if d.Instances < 2 {
		t.Fatal("scaled in while an instance is overclocked")
	}
}

func TestSchedulePolicyWindow(t *testing.T) {
	sp := &SchedulePolicy{Windows: []ScheduleWindow{{StartHour: 9, EndHour: 11, WeekdaysOnly: true}}}
	w := NewGlobalWI(100, nil, sp, DefaultScaleOutConfig())
	w.Observe("i0", InstanceMetrics{P99MS: 10})
	d := w.Decide(wiNow) // Monday 9:30, inside window
	if !d.Overclock["i0"] {
		t.Fatal("schedule window did not trigger overclock")
	}
	d = w.Decide(wiNow.Add(3 * time.Hour)) // 12:30, outside
	if d.Overclock["i0"] {
		t.Fatal("overclock persisted outside window")
	}
	sat := time.Date(2023, 4, 15, 9, 30, 0, 0, time.UTC)
	d = w.Decide(sat)
	if d.Overclock["i0"] {
		t.Fatal("weekday-only window fired on Saturday")
	}
}

func TestCombinedMetricAndSchedule(t *testing.T) {
	mp := DefaultMetricPolicy()
	sp := &SchedulePolicy{Windows: []ScheduleWindow{{StartHour: 9, EndHour: 10}}}
	w := NewGlobalWI(100, &mp, sp, DefaultScaleOutConfig())
	// Outside the window but tail is high: metric side triggers.
	w.Observe("i0", InstanceMetrics{P99MS: 90})
	d := w.Decide(wiNow.Add(5 * time.Hour))
	if !d.Overclock["i0"] {
		t.Fatal("metric trigger must work outside schedule windows")
	}
}

func TestForget(t *testing.T) {
	w := newMetricWI()
	w.Observe("i0", InstanceMetrics{P99MS: 90})
	w.Decide(wiNow)
	w.Forget("i0")
	d := w.Decide(wiNow.Add(time.Second))
	if _, ok := d.Overclock["i0"]; ok {
		t.Fatal("forgotten instance still present")
	}
}

func TestScheduleWindowContains(t *testing.T) {
	at := func(day, hour, min int) time.Time {
		return time.Date(2023, 4, day, hour, min, 0, 0, time.UTC) // Apr 10 2023 = Monday
	}
	tests := []struct {
		name string
		win  ScheduleWindow
		ts   time.Time
		want bool
	}{
		{"same-day inside", ScheduleWindow{StartHour: 22, EndHour: 23}, at(10, 22, 30), true},
		{"same-day end exclusive", ScheduleWindow{StartHour: 22, EndHour: 23}, at(10, 23, 0), false},
		{"same-day before start", ScheduleWindow{StartHour: 22, EndHour: 23}, at(10, 21, 59), false},
		// Overnight window 22:00 → 02:00: both arms must match.
		{"overnight evening arm", ScheduleWindow{StartHour: 22, EndHour: 2}, at(10, 22, 0), true},
		{"overnight late evening", ScheduleWindow{StartHour: 22, EndHour: 2}, at(10, 23, 59), true},
		{"overnight morning arm", ScheduleWindow{StartHour: 22, EndHour: 2}, at(10, 0, 0), true},
		{"overnight morning edge", ScheduleWindow{StartHour: 22, EndHour: 2}, at(10, 1, 59), true},
		{"overnight end exclusive", ScheduleWindow{StartHour: 22, EndHour: 2}, at(10, 2, 0), false},
		{"overnight midday gap", ScheduleWindow{StartHour: 22, EndHour: 2}, at(10, 12, 0), false},
		// Weekday filter applies to the queried instant's own weekday: the
		// Friday-evening arm fires, the Saturday-morning arm does not.
		{"weekday overnight Friday evening", ScheduleWindow{StartHour: 22, EndHour: 2, WeekdaysOnly: true}, at(14, 23, 0), true},
		{"weekday overnight Saturday morning", ScheduleWindow{StartHour: 22, EndHour: 2, WeekdaysOnly: true}, at(15, 1, 0), false},
		{"weekday same-day Saturday", ScheduleWindow{StartHour: 9, EndHour: 17, WeekdaysOnly: true}, at(15, 10, 0), false},
		{"weekday same-day Monday", ScheduleWindow{StartHour: 9, EndHour: 17, WeekdaysOnly: true}, at(10, 10, 0), true},
		// Degenerate equal bounds: empty window.
		{"equal bounds empty", ScheduleWindow{StartHour: 9, EndHour: 9}, at(10, 9, 0), false},
	}
	for _, tc := range tests {
		if got := tc.win.Contains(tc.ts); got != tc.want {
			t.Errorf("%s: Contains(%v) = %v, want %v", tc.name, tc.ts, got, tc.want)
		}
	}
}

func TestForgetPurgesAllState(t *testing.T) {
	w := newMetricWI()
	w.Observe("i0", InstanceMetrics{P99MS: 90})
	w.Observe("i1", InstanceMetrics{P99MS: 90})
	w.Decide(wiNow) // engages OC on both → ocStartAt populated
	if _, ok := w.ocStartAt["i0"]; !ok {
		t.Fatal("test setup: i0 not engaged")
	}
	// A rejection parks i0 in rejectPending until the next Decide.
	w.ReportRejection("i0", RejectPower)
	w.Forget("i0")
	if _, ok := w.ocStartAt["i0"]; ok {
		t.Fatal("Forget leaked ocStartAt entry")
	}
	for _, name := range w.rejectPending {
		if name == "i0" {
			t.Fatal("Forget leaked rejectPending entry")
		}
	}
	w.Decide(wiNow.Add(time.Second))
	if _, ok := w.rejectHold["i0"]; ok {
		t.Fatal("forgotten instance resurrected into rejectHold by Decide")
	}
	if _, ok := w.instances["i0"]; ok {
		t.Fatal("Forget left instance metrics")
	}
	if _, ok := w.ocActive["i0"]; ok {
		t.Fatal("Forget left ocActive entry")
	}
	// The surviving instance's pending rejection must still be stamped.
	w.ReportRejection("i1", RejectPower)
	w.Decide(wiNow.Add(2 * time.Second))
	if _, ok := w.rejectHold["i1"]; !ok {
		t.Fatal("surviving instance lost its reject hold")
	}
}

func TestWIConfigClamps(t *testing.T) {
	w := NewGlobalWI(100, nil, nil, ScaleOutConfig{MinInstances: 0, MaxInstances: -1, StepInstances: 0})
	if w.Scale.MinInstances != 1 || w.Scale.MaxInstances != 1 || w.Scale.StepInstances != 1 {
		t.Fatalf("config not repaired: %+v", w.Scale)
	}
}

func TestUtilPolicyDeploymentLevel(t *testing.T) {
	up := UtilPolicy{ScaleUpUtil: 0.7, ScaleDownUtil: 0.45}
	w := NewGlobalWI(100, nil, nil, DefaultScaleOutConfig())
	w.Util = &up
	// One hot VM (80%) and one cold VM (10%): deployment mean 45% stays
	// under the 70% trigger — the paper's Fig 4 scenario where
	// overclocking the hot VM would be wasted.
	w.Observe("hot", InstanceMetrics{Util: 0.80})
	w.Observe("cold", InstanceMetrics{Util: 0.10})
	d := w.Decide(wiNow)
	if d.Overclock["hot"] || d.Overclock["cold"] {
		t.Fatal("deployment-level policy must not overclock while under target")
	}
	// Deployment-wide pressure triggers it.
	w.Observe("hot", InstanceMetrics{Util: 0.90})
	w.Observe("cold", InstanceMetrics{Util: 0.60})
	d = w.Decide(wiNow.Add(time.Second))
	if !d.Overclock["hot"] || !d.Overclock["cold"] {
		t.Fatal("deployment over target must overclock")
	}
	// And releases once the deployment cools (after the min-on hold).
	w.Observe("hot", InstanceMetrics{Util: 0.40})
	w.Observe("cold", InstanceMetrics{Util: 0.20})
	d = w.Decide(wiNow.Add(OCMinOn + 2*time.Second))
	if d.Overclock["hot"] {
		t.Fatal("deployment under release threshold must stop overclocking")
	}
}

func TestUtilAndMetricCombined(t *testing.T) {
	mp := DefaultMetricPolicy()
	up := UtilPolicy{ScaleUpUtil: 0.7, ScaleDownUtil: 0.45}
	w := NewGlobalWI(100, &mp, nil, DefaultScaleOutConfig())
	w.Util = &up
	// Latency pressure triggers even when utilization is low (an
	// IPC-insensitive proxy would have missed this, §III-Q1).
	w.Observe("i0", InstanceMetrics{P99MS: 90, Util: 0.3})
	d := w.Decide(wiNow)
	if !d.Overclock["i0"] {
		t.Fatal("latency trigger must fire regardless of utilization")
	}
	// Release requires BOTH latency and utilization to have recovered.
	w.Observe("i0", InstanceMetrics{P99MS: 20, Util: 0.75})
	d = w.Decide(wiNow.Add(OCMinOn + time.Second))
	if !d.Overclock["i0"] {
		t.Fatal("high utilization must hold the overclock despite low latency")
	}
	w.Observe("i0", InstanceMetrics{P99MS: 20, Util: 0.30})
	d = w.Decide(wiNow.Add(OCMinOn + 2*time.Second))
	if d.Overclock["i0"] {
		t.Fatal("overclock must release when both signals recover")
	}
}
