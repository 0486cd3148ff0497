package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/api"
	"smartoclock/internal/autoscale"
	"smartoclock/internal/causal"
	"smartoclock/internal/core"
	"smartoclock/internal/experiment"
	"smartoclock/internal/invariant"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/parallel"
	"smartoclock/internal/sim"
	"smartoclock/internal/stats"
	"smartoclock/internal/store"
	"smartoclock/internal/telemetry"
	"smartoclock/internal/timeseries"
	"smartoclock/internal/trace"
	simload "smartoclock/internal/workload" // "workload" is this package's own type
)

// perLayer is the per-layer ledger: every name is "<layer>.<metric>" with
// the repo's package names as layers. README.md says which end-to-end
// metric each should move, on which workload. None is gated.
var perLayer = []metricDef{
	{Name: "trace.gen_rack_us", Unit: "us", Better: "lower"},
	{Name: "trace.gen_rack_alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "trace.util_at_ns", Unit: "ns", Better: "lower"},
	{Name: "timeseries.week_template_us", Unit: "us", Better: "lower"},
	{Name: "timeseries.week_template_alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "timeseries.slice_ns", Unit: "ns", Better: "lower"},
	{Name: "predict.daily_fit_us", Unit: "us", Better: "lower"},
	{Name: "predict.oc_template_us", Unit: "us", Better: "lower"},
	{Name: "lifetime.advance_ns", Unit: "ns", Better: "lower"},
	{Name: "lifetime.find_cores_ns", Unit: "ns", Better: "lower"},
	{Name: "core.soa_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "core.soa_request_ns", Unit: "ns", Better: "lower"},
	{Name: "core.soa_grant_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.goa_budget_templates_us", Unit: "us", Better: "lower"},
	{Name: "core.goa_budgets_at_us", Unit: "us", Better: "lower"},
	{Name: "core.soa_snapshot_us", Unit: "us", Better: "lower"},
	{Name: "power.rack_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "power.cap_events", Unit: "count", Better: "lower"},
	{Name: "metrics.counter_add_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "metrics.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.recorder_tick_us", Unit: "us", Better: "lower"},
	{Name: "metrics.merge_recordings_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.concat_ms", Unit: "ms", Better: "lower"},
	{Name: "causal.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "causal.records_per_tick", Unit: "count", Better: "lower"},
	{Name: "experiment.observe_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "experiment.observe_alloc_ratio", Unit: "ratio", Better: "lower"},
	{Name: "experiment.harness_coverage", Unit: "ratio", Better: "higher"},
	{Name: "experiment.hold_advance_tick_us", Unit: "us", Better: "lower"},
	{Name: "experiment.inbox_wait_us", Unit: "us", Better: "lower"},
	{Name: "parallel.map_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "parallel.speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "store.encode_us", Unit: "us", Better: "lower"},
	{Name: "store.decode_us", Unit: "us", Better: "lower"},
	{Name: "store.save_ms", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "agent.tcp_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "agent.tcp_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "agent.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "agent.bus_send_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "api.handler_us", Unit: "us", Better: "lower"},
	{Name: "api.http_rtt_us", Unit: "us", Better: "lower"},
	{Name: "api.cmd_p99_us", Unit: "us", Better: "lower"},
	{Name: "api.rejected_share", Unit: "share", Better: "lower"},
	{Name: "telemetry.publish_snapshot_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.scrape_bytes", Unit: "B", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.sample_us", Unit: "us", Better: "lower"},
	{Name: "cluster.server_power_ns", Unit: "ns", Better: "lower"},
	{Name: "autoscale.control_ns", Unit: "ns", Better: "lower"},
	{Name: "invariant.check_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "bench.nproc", Unit: "count", Better: "higher"},
}

// ledger is the result of the traced pass.
type ledger struct {
	metrics           map[string]metricResult
	spans             *spanLog
	attempted, failed int
	errs              []string
	// layerSelf is the harness's self time per layer (span-name prefix),
	// summed over every traced rack.
	layerSelf map[string]time.Duration

	// Effort: micro-measurements run `batches` timed batches (after one
	// warm-up batch) of n/div calls each.
	batches, div int
}

func (l *ledger) correct() bool { return l.failed == 0 && len(l.errs) == 0 && l.attempted > 0 }

// set records one ledger value; n is the number of calls or samples it
// rests on.
func (l *ledger) set(name string, v float64, n int) {
	for _, d := range perLayer {
		if d.Name == name {
			l.metrics[name] = metricResult{Unit: d.Unit, Better: d.Better, summary: summary{N: n, Median: v, Min: v, Q1: v, Q3: v}}
			return
		}
	}
	panic("benchmark: ledger metric " + name + " is not declared in perLayer")
}

func (l *ledger) note(name, note string) {
	m := l.metrics[name]
	m.Note = note
	l.metrics[name] = m
}

// fail records a failed harness check.
func (l *ledger) fail(format string, args ...any) {
	l.failed++
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

// scaled shrinks a call count for the smoke scale.
func (l *ledger) scaled(n int) int { return max(n/l.div, 1) }

// perOp times batches of n calls to fn and returns the median batch's
// nanoseconds and allocated bytes per call, with the calls it rests on.
func (l *ledger) perOp(n int, fn func()) (ns, allocBytes float64, calls int) {
	var times, allocs []float64
	var before, after runtime.MemStats
	for b := 0; b <= l.batches; b++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if b == 0 {
			continue // warm-up batch
		}
		times = append(times, float64(d)/float64(n))
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return stats.Median(times), stats.Median(allocs), n * l.batches
}

// op is perOp for the common case: one metric, n calls per batch at the
// std scale, nanoseconds converted to unit.
func (l *ledger) op(name string, unit time.Duration, n int, fn func()) {
	ns, _, calls := l.perOp(l.scaled(n), fn)
	l.set(name, ns/float64(unit), calls)
}

// runLedger is the traced pass: the span-traced layer harness plus timed
// calls into every other layer's exported functions.
func runLedger(seed int64, sz sizes, scratch string) *ledger {
	l := &ledger{metrics: make(map[string]metricResult, len(perLayer)), spans: newSpanLog(), batches: 5, div: sz.LedgerDiv}
	if l.div > 1 { // a smoke scale: one short batch of everything
		l.batches = 1
	}
	l.set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 1)
	l.set("bench.nproc", float64(runtime.NumCPU()), 1)

	fx := l.fleetHarness(seed, sz)
	l.fleetLayers(seed, sz, fx)
	shards := l.observation(seed, sz)
	l.observers(shards)
	l.livePlane(seed, sz, scratch)
	l.emulationLayers(seed, fx)
	return l
}

// fleetHarness replays harness racks at both fleet shapes, traced and
// untraced, and derives every ledger number that needs a realistic rack
// around the call. It returns the last fleet-stream rack's fixture.
func (l *ledger) fleetHarness(seed int64, sz sizes) *rackFixture {
	stream, table := fleetStreamHarness(seed, sz), table1Harness(seed, sz)
	streamRacks, tableRacks := min(20, sz.FleetRacks), min(2, sz.TableRacksPerClass)

	// Two traced and two untraced passes over the same fleet-stream racks,
	// alternating. All four must simulate the same thing; the wall ratio
	// is what recording spans costs.
	var tracedWall, plainWall time.Duration
	var ref rackOutcome
	var fx *rackFixture
	firstTraced := len(l.spans.spans)
	for pass := 0; pass < 4; pass++ {
		log := l.spans
		if pass%2 == 1 {
			log = nil
		}
		out, wall, f, err := harnessPass(log, stream, streamRacks, pass*1000)
		l.attempted += streamRacks
		if err != nil {
			l.fail("%v", err)
			return nil
		}
		switch {
		case pass == 0:
			ref, fx = out, f
		case out != ref:
			l.fail("harness pass %d simulated %+v, first pass %+v", pass, out, ref)
		}
		if log != nil {
			tracedWall += wall
		} else {
			plainWall += wall
		}
	}
	streamSpans := l.spans.spans[firstTraced:]
	l.set("bench.trace_overhead_ratio", tracedWall.Seconds()/plainWall.Seconds(), 2*streamRacks)
	l.set("core.soa_grant_ratio", float64(ref.granted)/float64(max(ref.granted+ref.rejected, 1)), ref.granted+ref.rejected)

	// The same racks end to end, through the public entry point.
	cfg := experiment.DefaultScaleConfig(streamRacks)
	cfg.Seed = seed
	cfg.ServersPerRack = sz.FleetServers
	cfg.Workers = 1
	start := time.Now()
	_, err := experiment.RunFleetScale(cfg)
	endToEnd := time.Since(start)
	l.attempted += streamRacks
	if err != nil {
		l.fail("fleet scale: %v", err)
	}
	l.set("experiment.harness_coverage", (plainWall.Seconds()/2)/endToEnd.Seconds(), streamRacks)

	// The first honest speedup_vs_1: the same fleet at one worker and at
	// as many as the host can really run, capped at two.
	workers := min(2, runtime.NumCPU())
	cfg.Racks = 3 * streamRacks
	wall := func(w int) float64 {
		cfg.Workers = w
		res, err := experiment.RunFleetScale(cfg)
		l.attempted += cfg.Racks
		if err != nil {
			l.fail("fleet scale workers=%d: %v", w, err)
			return 1
		}
		return res.WallSeconds
	}
	l.set("parallel.speedup_w2", wall(1)/wall(workers), 2*cfg.Racks)
	if workers < 2 {
		l.note("parallel.speedup_w2", "nproc < 2: both sides ran one worker, so this is not a speed-up measurement")
	}

	// Full-density racks with the long training window.
	firstTable := len(l.spans.spans)
	out, _, _, err := harnessPass(l.spans, table, tableRacks, 9000)
	l.attempted += tableRacks
	if err != nil {
		l.fail("%v", err)
		return fx
	}
	tableSpans := l.spans.spans[firstTable:]
	l.set("power.cap_events", float64(ref.capEvents+out.capEvents), streamRacks+tableRacks)

	perCall := func(spans []span, name string, unit time.Duration, metric string) {
		var total time.Duration
		calls := 0
		for _, s := range spans {
			if s.Name == name {
				total += s.End - s.Start
				calls += s.Count
			}
		}
		l.set(metric, float64(total)/float64(max(calls, 1))/float64(unit), calls)
	}
	both := l.spans.spans[firstTraced:]
	perCall(both, "trace.gen_rack", time.Microsecond, "trace.gen_rack_us")
	perCall(both, "trace.util_at", time.Nanosecond, "trace.util_at_ns")
	perCall(both, "timeseries.slice", time.Nanosecond, "timeseries.slice_ns")
	perCall(tableSpans, "predict.daily_fit", time.Microsecond, "predict.daily_fit_us")
	perCall(tableSpans, "predict.oc_template", time.Microsecond, "predict.oc_template_us")
	perCall(tableSpans, "core.goa_budget_templates", time.Microsecond, "core.goa_budget_templates_us")
	perCall(tableSpans, "power.rack_tick", time.Nanosecond, "power.rack_tick_ns")
	perCall(streamSpans, "core.soa_tick", time.Nanosecond, "core.soa_tick_ns")
	perCall(streamSpans, "core.soa_request", time.Nanosecond, "core.soa_request_ns")

	l.layerSelf = make(map[string]time.Duration)
	self, _ := selfByName(both)
	for name, d := range self {
		layer, _, _ := strings.Cut(name, ".")
		l.layerSelf[layer] += d
	}
	return fx
}

// fleetLayers times the fleet-side calls the rack loop does not isolate.
func (l *ledger) fleetLayers(seed int64, sz sizes, fx *rackFixture) {
	table := table1Harness(seed, sz)
	_, allocBytes, calls := l.perOp(3, func() {
		if _, err := trace.GenFleetRack(table.fcfg, 0); err != nil {
			l.fail("gen rack: %v", err)
		}
	})
	l.set("trace.gen_rack_alloc_kb", allocBytes/1024, calls)

	// A week of 5-minute samples, like one server's training window.
	rng := rand.New(rand.NewSource(seed))
	week := timeseries.NewWithCap(harnessStart, 5*time.Minute, 7*288)
	for i := 0; i < 7*288; i++ {
		week.Append(200 + 100*rng.Float64())
	}
	ns, allocBytes, calls := l.perOp(l.scaled(200), func() { timeseries.BuildWeekTemplate(week, timeseries.ReduceMedian) })
	l.set("timeseries.week_template_us", ns/1e3, calls)
	l.set("timeseries.week_template_alloc_kb", allocBytes/1024, calls)

	// Per-tick budget roll-forward over a week, 64 cores, as the sOA does.
	bcfg := lifetime.BudgetConfig{Epoch: 7 * 24 * time.Hour, Fraction: 0.25, CarryOver: true, MaxCarryOver: 1}
	budgets := lifetime.NewCoreBudgets(bcfg, 64, harnessStart)
	tick := 0
	l.op("lifetime.advance_ns", time.Nanosecond, 7*288, func() {
		tick++
		budgets.Advance(harnessStart.Add(time.Duration(tick) * 5 * time.Minute))
	})
	l.op("lifetime.find_cores_ns", time.Nanosecond, 20000, func() {
		budgets.FindCoresFiltered(8, 15*time.Minute, func(int) bool { return true })
	})

	// What the shard fan-out itself costs per shard, with nothing to do.
	const mapShards = 1000
	ns, _, calls = l.perOp(l.scaled(100), func() {
		parallel.Map(mapShards, parallel.Options{Workers: 1}, func(i int) int { return i })
	})
	l.set("parallel.map_overhead_ns", ns/mapShards, calls*mapShards)

	if fx == nil {
		return
	}
	l.op("core.goa_budgets_at_us", time.Microsecond, 2000, func() { fx.goa.BudgetsAt(fx.now) })
	l.op("core.soa_snapshot_us", time.Microsecond, 2000, func() { fx.soas[0].Snapshot() })
}

// shardVolume is how much one observed Table I shard produces.
type shardVolume struct {
	shards, series, events int
}

// observation runs Table I with and without the observability layer and
// reports what observing costs; it returns the per-shard volumes the
// observer micro-measurements are sized from.
func (l *ledger) observation(seed int64, sz sizes) shardVolume {
	cfg := experiment.DefaultFleetSimConfig()
	cfg.Seed = seed
	cfg.RacksPerClass = sz.TableRacksPerClass
	cfg.TrainDays = sz.TableTrainDays
	cfg.EvalDays = sz.TableEvalDays
	cfg.Workers = 1
	vol := shardVolume{shards: 15 * cfg.RacksPerClass}
	l.attempted += 2 * vol.shards

	var plainTbl, obsTbl *experiment.Table
	var obsv *experiment.FleetObservation
	var err error
	plain := measure(func() { plainTbl, _, err = experiment.RunTable1(cfg) })
	if err != nil {
		l.fail("table1: %v", err)
		return vol
	}
	cfg.RecordEvery = time.Hour
	observed := measure(func() { obsTbl, _, obsv, err = experiment.RunTable1Observed(cfg) })
	if err != nil {
		l.fail("table1 observed: %v", err)
		return vol
	}
	if plainTbl.Format() != obsTbl.Format() {
		l.fail("observing changed Table I")
	}
	l.set("experiment.observe_overhead_ratio", observed.Wall.Seconds()/plain.Wall.Seconds(), vol.shards)
	l.set("experiment.observe_alloc_ratio", float64(observed.AllocBytes)/float64(plain.AllocBytes), vol.shards)

	ticks := vol.shards * cfg.EvalDays * int(24*time.Hour/cfg.Step)
	l.set("causal.records_per_tick", float64(obsv.Provenance.Len())/float64(ticks), obsv.Provenance.Len())
	vol.series = len(obsv.Metrics.Series) / vol.shards
	vol.events = obsv.Trace.Len() / vol.shards
	return vol
}

// observers times the observation layers at one observed shard's volume.
func (l *ledger) observers(vol shardVolume) {
	if vol.series == 0 {
		return // the observed run failed and said so
	}
	const mergeShards = 30
	when := harnessStart

	// One registry per shard, shaped like a shard's: counters under
	// shard-unique labels.
	newShardRegistry := func(shard int) (*metrics.Registry, []*metrics.Counter) {
		reg := metrics.NewRegistry()
		cs := make([]*metrics.Counter, vol.series)
		for i := range cs {
			cs[i] = reg.Counter(fmt.Sprintf("bench_series_%d_total", i%16),
				metrics.L("shard", fmt.Sprint(shard)), metrics.L("server", fmt.Sprint(i/16)))
		}
		return reg, cs
	}
	reg, counters := newShardRegistry(0)
	i := 0
	l.op("metrics.counter_add_ns", time.Nanosecond, 2_000_000, func() {
		counters[i%len(counters)].Add(1)
		i++
	})
	l.op("metrics.snapshot_us", time.Microsecond, 200, func() { reg.Snapshot() })
	rec := metrics.NewRecorder(reg, when, time.Hour)
	hour := 0
	l.op("metrics.recorder_tick_us", time.Microsecond, 48, func() {
		hour++
		counters[hour%len(counters)].Add(1)
		rec.Tick(when.Add(time.Duration(hour) * time.Hour))
	})

	snaps := make([]*metrics.Snapshot, mergeShards)
	recs := make([]*metrics.Recording, mergeShards)
	tracers := make([]*obs.Tracer, mergeShards)
	for s := range snaps {
		reg, cs := newShardRegistry(s)
		r := metrics.NewRecorder(reg, when, time.Hour)
		for h := 1; h <= 48; h++ {
			cs[h%len(cs)].Add(1)
			r.Tick(when.Add(time.Duration(h) * time.Hour))
		}
		snaps[s], recs[s] = reg.Snapshot(), r.Recording()
		tracers[s] = obs.New()
		for e := 0; e < vol.events; e++ {
			tracers[s].Emit(obs.Event{Time: when, Component: obs.SOA, Kind: "grant", Source: "srv", Value: float64(e)})
		}
	}
	l.op("metrics.merge_ms", time.Millisecond, 5, func() { metrics.Merge(snaps...) })
	l.op("metrics.merge_recordings_ms", time.Millisecond, 5, func() { metrics.MergeRecordings(recs...) })
	l.op("obs.concat_ms", time.Millisecond, 5, func() { obs.Concat(tracers...) })

	// Emission into unbounded logs; starting a fresh one every 64k events
	// keeps memory flat without bounding (and so changing) the log.
	tr, emitted := obs.New(), 0
	l.op("obs.emit_ns", time.Nanosecond, 500_000, func() {
		if emitted++; emitted%65536 == 0 {
			tr = obs.New()
		}
		tr.Emit(obs.Event{Time: when, Component: obs.SOA, Kind: "grant", Source: "srv", Value: 1})
	})
	prov, recorded := causal.NewRecorder(1, 1), 0
	l.op("causal.emit_ns", time.Nanosecond, 500_000, func() {
		if recorded++; recorded%65536 == 0 {
			prov = causal.NewRecorder(1, 1)
		}
		prov.Emit(causal.Record{Time: when, Kind: causal.KindDecision, Component: "soa", Site: "soa.admit", Subject: "srv/vm", Verdict: "granted"})
	})
}

// stubService answers the two commands the api measurements send; any
// other call would hit the nil embedded interface.
type stubService struct {
	api.Service
	status *api.ClusterStatus
}

func (s stubService) Status(context.Context) (*api.ClusterStatus, error) { return s.status, nil }
func (s stubService) SetBudget(context.Context, api.BudgetSpec) error    { return nil }

// livePlane measures the live control plane's layers: the HTTP adapter
// alone and over loopback, a scripted control session (command tail,
// single-tick Advance, checkpoint codec), agent transport and telemetry.
func (l *ledger) livePlane(seed int64, sz sizes, scratch string) {
	// api: auth + limit + decode + dispatch + encode with a stub port.
	status := &api.ClusterStatus{Now: harnessStart, Hold: true, Rack: api.RackStatus{Name: "rack-live", LimitWatts: 4000}}
	for i := 0; i < sz.LiveServers; i++ {
		status.Servers = append(status.Servers, api.ServerStatus{Name: fmt.Sprintf("lv-%02d", i), PowerWatts: 400, BudgetWatts: 500})
	}
	handler, err := api.Config{Tokens: "bench:" + benchToken + ":read+operate", Rate: 0}.Build(stubService{status: status})
	if err != nil {
		l.fail("api build: %v", err)
		return
	}
	budgetBody := `{"server":"lv-00","watts":450}`
	flip := false
	l.op("api.handler_us", time.Microsecond, 4000, func() {
		var req *http.Request
		if flip = !flip; flip {
			req = httptest.NewRequest(http.MethodGet, "/api/v1/status", nil)
		} else {
			req = httptest.NewRequest(http.MethodPost, "/api/v1/budgets", strings.NewReader(budgetBody))
		}
		req.Header.Set("Authorization", "Bearer "+benchToken)
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			l.fail("api handler: status %d", w.Code)
		}
	})
	ts := httptest.NewServer(handler)
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &api.Client{Base: ts.URL, Token: benchToken, HTTP: &http.Client{Transport: tr}}
	var rtts []time.Duration
	for i := 0; i < max(l.scaled(1000), 20); i++ {
		start := time.Now()
		if _, err := client.Status(context.Background()); err != nil {
			l.fail("api loopback: %v", err)
			break
		}
		rtts = append(rtts, time.Since(start))
	}
	tr.CloseIdleConnections()
	ts.Close()
	httpRTT := stats.Median(micros(rtts))
	l.set("api.http_rtt_us", httpRTT, len(rtts))

	// One scripted session exactly like a live-control repetition (long
	// enough for a p99 with ten samples beyond it), and a shorter one that
	// advances a single tick per round.
	dir := filepath.Join(scratch, "ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		l.fail("%v", err)
		return
	}
	session, err := runControlSession(seed, sz, sz.ControlRounds, advanceTicks, dir)
	l.attempted += session.Attempted
	l.failed += session.Failed
	if err != nil {
		l.fail("control session: %v", err)
		return
	}
	cmds := micros(session.Cmd)
	p, tail := tailPercentile(cmds)
	l.set("api.cmd_p99_us", tail, len(cmds))
	if p != 99 {
		l.note("api.cmd_p99_us", fmt.Sprintf("p%g: the highest percentile with at least ten of %d samples beyond it", p, len(cmds)))
	}
	l.set("api.rejected_share", float64(session.Rejected)/float64(max(session.Attempted, 1)), session.Attempted)
	l.set("experiment.inbox_wait_us", stats.Median(cmds)-httpRTT, len(cmds))
	l.set("telemetry.scrape_bytes", float64(session.ScrapeBytes), len(session.Scrape))

	single, err := runControlSession(seed, sz, sz.ProbeRounds, 1, dir)
	l.attempted += single.Attempted
	l.failed += single.Failed
	if err != nil {
		l.fail("single-tick session: %v", err)
		return
	}
	l.set("experiment.hold_advance_tick_us", stats.Median(micros(single.Advance)), len(single.Advance))

	// store: the checkpoint the session wrote, through the codec and disk.
	var cp store.Checkpoint
	savedAt, err := store.Decode(session.Checkpoint, &cp)
	if err != nil {
		l.fail("decode checkpoint: %v", err)
		return
	}
	l.set("store.checkpoint_bytes", float64(len(session.Checkpoint)), 1)
	l.op("store.decode_us", time.Microsecond, 200, func() {
		var got store.Checkpoint
		if _, err := store.Decode(session.Checkpoint, &got); err != nil {
			l.fail("decode: %v", err)
		}
	})
	l.op("store.encode_us", time.Microsecond, 200, func() {
		if _, err := store.Encode(savedAt, &cp); err != nil {
			l.fail("encode: %v", err)
		}
	})
	path := filepath.Join(dir, "bench.ckpt")
	l.op("store.save_ms", time.Millisecond, 20, func() {
		if err := store.Save(path, savedAt, &cp); err != nil {
			l.fail("save: %v", err)
		}
	})
	os.Remove(path)

	l.agentTransport()
	l.telemetryPublish(seed, sz)
}

// agentTransport measures the control-message transports: one-way
// delivery between two bare TCP nodes on loopback, the wire frame of a
// budget push, and the in-process bus's batched fan-out.
func (l *ledger) agentTransport() {
	msg, err := agent.NewMessage("goa.budget", "goa", "soa/lv-00", map[string]float64{"watts": 431.5})
	if err != nil {
		l.fail("message: %v", err)
		return
	}
	frame, err := agent.EncodeFrame(msg)
	if err != nil {
		l.fail("frame: %v", err)
		return
	}
	l.set("agent.frame_bytes", float64(len(frame)), 1)

	a, err := agent.NewTCPNode("bench-a", "127.0.0.1:0")
	if err != nil {
		l.fail("%v", err)
		return
	}
	defer a.Close()
	b, err := agent.NewTCPNode("bench-b", "127.0.0.1:0")
	if err != nil {
		l.fail("%v", err)
		return
	}
	defer b.Close()
	arrived := make(chan time.Time, 1) // one message in flight at a time
	b.Register("soa/lv-00", func(agent.Message) { arrived <- time.Now() })
	a.AddPeer("soa/lv-00", b.Addr())
	var rtts []time.Duration
	for i := 0; i < max(l.scaled(2000), 40); i++ {
		start := time.Now()
		if err := a.Send(msg); err != nil {
			l.fail("tcp send: %v", err)
			return
		}
		select {
		case at := <-arrived:
			rtts = append(rtts, at.Sub(start))
		case <-time.After(5 * time.Second):
			l.fail("tcp message %d never arrived", i)
			return
		}
	}
	us := micros(rtts)
	l.set("agent.tcp_rtt_p50_us", stats.Median(us), len(us))
	p, tail := tailPercentile(us)
	l.set("agent.tcp_rtt_p99_us", tail, len(us))
	if p != 99 {
		l.note("agent.tcp_rtt_p99_us", fmt.Sprintf("p%g: the highest percentile with at least ten of %d samples beyond it", p, len(us)))
	}

	bus := agent.NewBus()
	defer bus.Close()
	batch := make([]agent.Message, 8)
	for i := range batch {
		name := fmt.Sprintf("soa/lv-%02d", i)
		bus.Register(name, func(agent.Message) {})
		batch[i] = msg
		batch[i].To = name
	}
	l.op("agent.bus_send_batch_ns", time.Nanosecond, 100_000, func() {
		if err := bus.SendBatch(batch); err != nil {
			l.fail("bus: %v", err)
		}
	})
}

// telemetryPublish times what the live loop does after every tick: freeze
// the shared registry and hand the snapshot to the telemetry server. The
// registry is rebuilt series for series from a short live run's snapshot,
// so it has a live plane's size and kinds.
func (l *ledger) telemetryPublish(seed int64, sz sizes) {
	cfg := liveConfig(seed, sz)
	cfg.Duration = 200 * cfg.Tick
	res, err := experiment.RunLive(cfg, nil)
	l.attempted += 200
	if err != nil {
		l.fail("live: %v", err)
		return
	}
	l.failed += res.Violations
	lk := metrics.NewLocked()
	lk.Do(func(reg *metrics.Registry) {
		for _, s := range res.Metrics.Series {
			labels := make([]metrics.Label, 0, len(s.Labels))
			for k, v := range s.Labels {
				labels = append(labels, metrics.L(k, v))
			}
			sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
			switch s.Type {
			case "histogram":
				uppers := make([]float64, len(s.Buckets))
				for i, b := range s.Buckets {
					uppers[i] = b.LE
				}
				reg.Histogram(s.Name, uppers, labels...).Observe(s.Value)
			case "gauge":
				reg.Gauge(s.Name, labels...).Set(s.Value)
			default:
				reg.Counter(s.Name, labels...).Add(s.Value)
			}
		}
	})
	srv := telemetry.NewServer(0)
	l.op("telemetry.publish_snapshot_us", time.Microsecond, 500, func() { srv.PublishSnapshot(lk.Snapshot()) })
}

// emulationLayers times the packages only the cluster emulation uses, plus
// the invariant battery the live loop runs every tick.
func (l *ledger) emulationLayers(seed int64, fx *rackFixture) {
	rng := rand.New(rand.NewSource(seed))
	delays := make([]time.Duration, l.scaled(200_000))
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(time.Hour)))
	}
	ns, _, _ := l.perOp(1, func() { // one call schedules and runs every event
		eng := sim.NewEngine(harnessStart, seed)
		for _, d := range delays {
			eng.After(d, func() {})
		}
		eng.RunAll()
	})
	l.set("sim.event_ns", ns/float64(len(delays)), len(delays)*l.batches)

	svc := simload.SocialNet()[0]
	inst := simload.NewInstance(svc)
	rps := 0.6 * svc.CapacityRPS(3000, 3000)
	l.op("workload.sample_us", time.Microsecond, 200_000, func() { inst.Step(time.Second, rps, 3000, 3000, rng) })

	ctl := autoscale.NewScaleOut(autoscale.DefaultConfig(3000, 3600, 100))
	tick := 0
	l.op("autoscale.control_ns", time.Nanosecond, 500_000, func() {
		tick++
		ctl.Control(harnessStart.Add(time.Duration(tick)*time.Second), 80+float64(tick%50), 100)
	})

	if fx == nil {
		return
	}
	l.op("cluster.server_power_ns", time.Nanosecond, 200_000, func() { fx.hosts[0].Power() })

	// The live loop's battery, registered over the harness rack.
	checker := invariant.NewChecker()
	invariant.RackPowerWithinLimit(checker, fx.rack, 15*time.Second)
	invariant.BudgetConservation(checker, fx.goa, 1e-3)
	for i, h := range fx.hosts {
		a := fx.soas[i]
		invariant.SessionsWithinGrant(checker, fx.rack.Name(), h, func() *core.SOA { return a })
		invariant.CoreBudgetsNeverOverdrawn(checker, fx.rack.Name(), h, fx.bcfg, fx.start, time.Minute)
	}
	now := fx.now
	l.op("invariant.check_us", time.Microsecond, 2000, func() {
		now = now.Add(5 * time.Second)
		checker.Check(now)
	})
}

// printLedger prints every ledger metric by name with its unit and the
// number of calls or samples behind it, then the harness's self time per
// layer.
func printLedger(w io.Writer, l *ledger) {
	fmt.Fprintf(w, "%-36s %-6s %14s %9s\n", "ledger metric", "unit", "value", "n")
	for _, d := range perLayer {
		m, ok := l.metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "%-36s %-6s %14s\n", d.Name, d.Unit, "missing")
			continue
		}
		fmt.Fprintf(w, "%-36s %-6s %14.6g %9d  %s\n", d.Name, m.Unit, m.Median, m.N, m.Note)
	}
	layers := make([]string, 0, len(l.layerSelf))
	var total time.Duration
	for name, d := range l.layerSelf {
		layers = append(layers, name)
		total += d
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "harness self time by layer (traced racks, %v total):\n", total.Round(time.Millisecond))
	for _, name := range layers {
		fmt.Fprintf(w, "  %-12s %10v %5.1f%%\n", name, l.layerSelf[name].Round(time.Microsecond), 100*l.layerSelf[name].Seconds()/total.Seconds())
	}
	for _, e := range l.errs {
		fmt.Fprintf(w, "ERROR %s\n", e)
	}
}

// writeJSONL writes the spans, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
