package experiment

import (
	"testing"
	"time"

	"smartoclock/internal/obs"
)

// The chaos experiment keeps two independent sets of books: the harness's
// own counters (ChaosResult fields, fed by the experiment's bookkeeping)
// and the metrics registry (fed by instrument hooks inside the components).
// This integration test cross-checks them: every observability counter must
// agree exactly with the experiment's ground truth, across crash/restart
// cycles, message faults and a gOA outage.
func TestChaosMetricsAgreeWithResult(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	cfg := DefaultChaosConfig()
	cfg.Duration = 45 * time.Minute
	cfg.GOAOutageStart = 10 * time.Minute
	cfg.GOAOutage = 10 * time.Minute
	cfg.SOACrashes = 3
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("invariants violated: %v", res.Err)
	}
	if res.Metrics == nil || res.Trace == nil {
		t.Fatal("chaos run returned no telemetry")
	}
	snap := res.Metrics

	check := func(name string, want float64) {
		t.Helper()
		if got := snap.SumByName(name); got != want {
			t.Errorf("%s = %v, metrics registry disagrees with result %v", name, got, want)
		}
	}

	// Invariant checker books.
	check("invariant_checks_total", float64(res.InvariantChecks))
	check("invariant_violations_total", float64(len(res.Violations)))

	// Transport books: Stats struct vs chaos_* counters.
	check("chaos_messages_sent_total", float64(res.Transport.Sent))
	check("chaos_messages_delivered_total", float64(res.Transport.Delivered))
	faulted := res.Transport.Dropped + res.Transport.Outage + res.Transport.Duplicated + res.Transport.Delayed
	check("chaos_messages_faulted_total", float64(faulted))
	check("chaos_crashes_total", float64(res.Crashes))
	check("chaos_restarts_total", float64(res.Restarts))

	// Rack books.
	check("rack_cap_events_total", float64(res.CapEvents))
	check("rack_warnings_total", float64(res.Warnings))

	// sOA books: the harness counts one request per SOA.Request call and
	// one grant per accepted session; rebooted sOAs re-resolve the same
	// series, so totals must hold across crash/restart cycles.
	check("soa_requests_total", float64(res.Requests))
	check("soa_grants_total", float64(res.Granted))

	// The fault plan injected real faults — the cross-check above would
	// pass vacuously on an idle run.
	if res.Transport.Sent == 0 || res.Crashes == 0 || res.Transport.Dropped == 0 {
		t.Fatalf("chaos run injected no faults: %+v", res.Transport)
	}

	// Trace sanity: every crash/restart is traced; sim-time stamps only.
	chaosEvents := 0
	end := cfg.Start.Add(cfg.Duration)
	for _, ev := range res.Trace.Events() {
		if ev.Time.Before(cfg.Start) || ev.Time.After(end) {
			t.Fatalf("event outside simulated time: %+v", ev)
		}
		if ev.Component == obs.Chaos {
			chaosEvents++
		}
	}
	if chaosEvents != res.Crashes+res.Restarts {
		t.Errorf("chaos trace events = %d, want crashes+restarts = %d",
			chaosEvents, res.Crashes+res.Restarts)
	}
}

// TestClusterObservedSmoke exercises the Observe path of the cluster
// emulation: the SmartOClock system must surface its control-plane series
// and the observation must not perturb the run's scientific results.
func TestClusterObservedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulation")
	}
	cfg := smokeClusterCfg(SysSmartOClock)
	plain, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observe = true
	observed, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Metrics == nil || observed.Trace == nil {
		t.Fatal("observed run returned no telemetry")
	}
	if plain.TotalEnergy != observed.TotalEnergy || plain.MeanInstances != observed.MeanInstances ||
		plain.CapEvents != observed.CapEvents || plain.OCRequests != observed.OCRequests {
		t.Errorf("observation changed results: %+v vs %+v", plain, observed)
	}
	snap := observed.Metrics
	// sOA admission books match the harness's request/rejection totals.
	if got := snap.SumByName("soa_requests_total"); got != float64(plain.OCRequests) {
		t.Errorf("soa_requests_total = %v, want %d", got, plain.OCRequests)
	}
	if got := snap.SumByName("soa_rejects_total"); got != float64(plain.OCRejections) {
		t.Errorf("soa_rejects_total = %v, want %d", got, plain.OCRejections)
	}
	// ClusterResult.CapEvents covers the main rack only, so compare the
	// labeled series rather than the sum across both racks.
	mainCaps := snap.Find("rack_cap_events_total",
		map[string]string{"rack": "rack-main", "system": SysSmartOClock.String()})
	if mainCaps == nil {
		t.Fatal("rack_cap_events_total{rack=rack-main} missing")
	}
	if mainCaps.Value != float64(plain.CapEvents) {
		t.Errorf("rack_cap_events_total = %v, want %d", mainCaps.Value, plain.CapEvents)
	}
	// Every series carries the system label (merge-safety across sweeps).
	for _, s := range snap.Series {
		if s.Labels["system"] != SysSmartOClock.String() {
			t.Fatalf("series %s missing system label: %v", s.Name, s.Labels)
		}
	}
}
