package alert

import (
	"slices"
	"testing"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// record builds a recording with one gauge series per name->samples entry,
// on a 1-minute step. Counter-typed names (ending in _total) are synthesized
// as counters whose per-interval rates equal the given samples.
func record(t *testing.T, step time.Duration, series map[string][]float64) *metrics.Recording {
	t.Helper()
	reg := metrics.NewRegistry()
	names := make([]string, 0, len(series))
	n := 0
	for name, samples := range series {
		names = append(names, name)
		if n == 0 {
			n = len(samples)
		} else if len(samples) != n {
			t.Fatalf("uneven sample lengths")
		}
	}
	rec := metrics.NewRecorder(reg, t0, step)
	totals := make(map[string]float64)
	for i := 0; i < n; i++ {
		for _, name := range names {
			v := series[name][i]
			if len(name) > 6 && name[len(name)-6:] == "_total" {
				// Counter: accumulate rate*stepSeconds so the recorded rate
				// equals the requested sample.
				totals[name] += v * step.Seconds()
				c := reg.Counter(name)
				c.Add(totals[name] - c.Value())
			} else {
				reg.Gauge(name).Set(v)
			}
		}
		rec.Tick(t0.Add(time.Duration(i+1) * step))
	}
	return rec.Recording()
}

func TestThresholdRuleEpisodes(t *testing.T) {
	rec := record(t, time.Minute, map[string][]float64{
		"rack_power_watts": {5000, 6500, 6600, 5000, 6700, 5000},
	})
	rules := []Rule{{
		Name: "over", Severity: Page,
		Metric: "rack_power_watts", Op: OpGT, Threshold: 6000,
		For: 2 * time.Minute,
	}}
	alerts := Eval(rec, rules, nil, nil)
	// Intervals 1-2 form a 2-interval episode (meets For); interval 4 alone
	// does not.
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v, want 1 episode", alerts)
	}
	a := alerts[0]
	if a.Intervals != 2 || a.Peak != 6600 || a.Limit != 6000 {
		t.Errorf("episode = %+v", a)
	}
	if !a.From.Equal(t0.Add(time.Minute)) || !a.To.Equal(t0.Add(3*time.Minute)) {
		t.Errorf("episode window = %v..%v", a.From, a.To)
	}
	if a.Duration() != 2*time.Minute {
		t.Errorf("duration = %v", a.Duration())
	}
}

func TestMetricVsMetricRule(t *testing.T) {
	rec := record(t, time.Minute, map[string][]float64{
		"rack_power_watts": {5000, 6500, 6500, 4000},
		"rack_limit_watts": {6000, 6000, 7000, 6000},
	})
	rules := []Rule{{
		Name: "over-limit", Severity: Page,
		Metric: "rack_power_watts", Op: OpGT, ThresholdMetric: "rack_limit_watts",
	}}
	alerts := Eval(rec, rules, nil, nil)
	// Only interval 1 is over its (time-varying) limit: interval 2's limit
	// rose to 7000.
	if len(alerts) != 1 || alerts[0].Intervals != 1 || alerts[0].Limit != 6000 {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestRatioRule(t *testing.T) {
	rec := record(t, time.Minute, map[string][]float64{
		"rack_over_limit_ticks_total": {0, 2, 0},
		"rack_ticks_total":            {100, 100, 0},
	})
	rules := []Rule{{
		Name: "underprediction", Severity: Page,
		Metric: "rack_over_limit_ticks_total", Op: OpGT, Threshold: 0.01,
		DivideBy: "rack_ticks_total",
	}}
	alerts := Eval(rec, rules, nil, nil)
	// Interval 1: 2/100 = 2% > 1%. Interval 2 has a zero divisor → false.
	if len(alerts) != 1 || alerts[0].Peak != 0.02 {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestLabelSubsetAndPairing(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := metrics.NewRecorder(reg, t0, time.Minute)
	for _, rack := range []string{"r0", "r1"} {
		reg.Gauge("rack_power_watts", metrics.L("rack", rack), metrics.L("system", "soc"))
		reg.Gauge("rack_limit_watts", metrics.L("rack", rack), metrics.L("system", "soc"))
	}
	set := func(name, rack string, v float64) {
		reg.Gauge(name, metrics.L("rack", rack), metrics.L("system", "soc")).Set(v)
	}
	set("rack_power_watts", "r0", 7000)
	set("rack_limit_watts", "r0", 6000)
	set("rack_power_watts", "r1", 7000)
	set("rack_limit_watts", "r1", 8000) // r1 is fine
	rec.Tick(t0.Add(time.Minute))
	r := rec.Recording()

	rules := []Rule{{
		Name: "over", Severity: Page,
		Metric: "rack_power_watts", Op: OpGT, ThresholdMetric: "rack_limit_watts",
	}}
	alerts := Eval(r, rules, nil, nil)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v, want only r0", alerts)
	}
	if alerts[0].Series != "rack_power_watts{rack=r0,system=soc}" {
		t.Errorf("fired series = %s", alerts[0].Series)
	}

	// Label filter restricts to r1 → nothing fires.
	rules[0].Labels = map[string]string{"rack": "r1"}
	if got := Eval(r, rules, nil, nil); len(got) != 0 {
		t.Errorf("label-filtered eval = %+v", got)
	}
}

func TestLessThanPeakIsMinimum(t *testing.T) {
	rec := record(t, time.Minute, map[string][]float64{
		"soa_budget_watts": {500, 90, 40, 80, 500},
	})
	rules := []Rule{{
		Name: "starved", Severity: Warn,
		Metric: "soa_budget_watts", Op: OpLT, Threshold: 100,
		For: 3 * time.Minute,
	}}
	alerts := Eval(rec, rules, nil, nil)
	if len(alerts) != 1 || alerts[0].Peak != 40 {
		t.Fatalf("alerts = %+v, want one episode peaking (min) at 40", alerts)
	}
}

func TestEvalEmitsTraceEvents(t *testing.T) {
	rec := record(t, time.Minute, map[string][]float64{
		"rack_power_watts": {7000, 7000, 5000},
	})
	rules := []Rule{{
		Name: "over", Severity: Page,
		Metric: "rack_power_watts", Op: OpGT, Threshold: 6000,
	}}
	tr := obs.New()
	alerts := Eval(rec, rules, tr, nil)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("trace events = %+v, want fire+resolve", evs)
	}
	fire, resolve := evs[0], evs[1]
	if fire.Component != obs.Alert || fire.Kind != "fire" || fire.Source != "over" {
		t.Errorf("fire event = %+v", fire)
	}
	if resolve.Kind != "resolve" || !resolve.Time.Equal(alerts[0].To) {
		t.Errorf("resolve event = %+v", resolve)
	}
}

// TestEvalEmitsProvenance passes Eval a provenance recorder. Two rules fire
// one episode each, the first rule's episode later than the second's; each
// episode must yield an alert.fire decision at its start carrying the peak,
// the limit at the peak and the interval count, then an alert.resolve
// decision at its end parented to that fire, with episodes in time order.
func TestEvalEmitsProvenance(t *testing.T) {
	rec := record(t, time.Minute, map[string][]float64{
		"rack_power_watts": {5000, 5000, 5000, 7000, 7100, 5000},
		"rack_limit_watts": {6000, 6000, 6000, 6000, 6500, 6000},
		"soa_budget_watts": {40, 30, 500, 500, 500, 500},
	})
	rules := []Rule{{
		Name: "over", Severity: Page,
		Metric: "rack_power_watts", Op: OpGT, ThresholdMetric: "rack_limit_watts",
	}, {
		Name: "starved", Severity: Warn,
		Metric: "soa_budget_watts", Op: OpLT, Threshold: 100,
	}}
	prov := causal.NewRecorder(1, 0)
	alerts := Eval(rec, rules, nil, prov)
	if len(alerts) != 2 || alerts[0].Rule != "over" || alerts[1].Rule != "starved" {
		t.Fatalf("alerts = %+v, want over then starved", alerts)
	}
	recs := prov.Records()
	if len(recs) != 4 {
		t.Fatalf("provenance = %+v, want fire+resolve per episode", recs)
	}
	type want struct {
		rule, severity    string
		from, to          time.Time
		peak, limit, runs float64
	}
	for i, w := range []want{
		{"starved", "warn", t0, t0.Add(2 * time.Minute), 30, 100, 2},
		{"over", "page", t0.Add(3 * time.Minute), t0.Add(5 * time.Minute), 7100, 6500, 2},
	} {
		fire, resolve := recs[2*i], recs[2*i+1]
		if fire.Site != "alert.fire" || fire.Verdict != "fire" || fire.Kind != causal.KindDecision ||
			fire.Component != "alert" || fire.Policy != w.rule || fire.Detail != w.severity ||
			fire.Parent != 0 || fire.Span == 0 || !fire.Time.Equal(w.from) {
			t.Errorf("episode %d fire = %+v, want %s at %v", i, fire, w.rule, w.from)
		}
		if resolve.Site != "alert.resolve" || resolve.Verdict != "resolve" || resolve.Policy != w.rule ||
			resolve.Parent != fire.Span || resolve.Subject != fire.Subject || !resolve.Time.Equal(w.to) {
			t.Errorf("episode %d resolve = %+v, want child of %v at %v", i, resolve, fire.Span, w.to)
		}
		wantIn := []causal.Input{causal.In("peak", w.peak), causal.In("limit", w.limit), causal.In("intervals", w.runs)}
		if !slices.Equal(fire.Inputs, wantIn) {
			t.Errorf("episode %d fire inputs = %+v, want %+v", i, fire.Inputs, wantIn)
		}
		if !slices.Equal(resolve.Inputs, wantIn[:2]) {
			t.Errorf("episode %d resolve inputs = %+v, want %+v", i, resolve.Inputs, wantIn[:2])
		}
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Errorf("record %d at %v precedes record %d at %v", i, recs[i].Time, i-1, recs[i-1].Time)
		}
	}
}

// TestDefaultRulesFireOnPaperViolations feeds the default rule set a
// synthetic recording violating each guarantee and checks the expected
// rules (and only those) fire.
func TestDefaultRulesFireOnPaperViolations(t *testing.T) {
	rec := record(t, time.Minute, map[string][]float64{
		// Over limit for 3 intervals (fires over-limit), with a 4th interval
		// still above 95% of the limit (fires sustained-pressure).
		"rack_power_watts": {5000, 6500, 6500, 6500, 5900, 5000},
		"rack_limit_watts": {6000, 6000, 6000, 6000, 6000, 6000},
		// 5% of ticks over limit in interval 3 → underprediction fires.
		"rack_over_limit_ticks_total": {0, 0, 0, 5, 0, 0},
		"rack_ticks_total":            {100, 100, 100, 100, 100, 100},
		// One cap event burst.
		"rack_cap_events_total": {0, 0, 1, 0, 0, 0},
		// No invariant violations.
		"invariant_violations_total": {0, 0, 0, 0, 0, 0},
	})
	alerts := Eval(rec, DefaultRules(), nil, nil)
	fired := make(map[string]int)
	for _, a := range alerts {
		fired[a.Rule]++
	}
	for _, want := range []string{
		"rack-power-over-limit", "rack-sustained-pressure",
		"rack-underprediction-rate", "rack-cap-burst",
	} {
		if fired[want] == 0 {
			t.Errorf("rule %s did not fire: %v", want, fired)
		}
	}
	if fired["invariant-violations"] != 0 {
		t.Errorf("invariant rule fired without violations: %v", fired)
	}
	// Deterministic ordering: rule declaration order.
	if len(alerts) > 0 && alerts[0].Rule != "rack-power-over-limit" {
		t.Errorf("alerts not in rule order: %+v", alerts)
	}
}
