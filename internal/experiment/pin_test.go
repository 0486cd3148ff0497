package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/api"
	"smartoclock/internal/baselines"
	"smartoclock/internal/cluster"
	"smartoclock/internal/trace"
)

// The pin tests freeze the byte output of the four rack control-plane
// drivers (zoo, recovery, chaos, live). The determinism suites only prove a
// run agrees with *itself* across worker counts; a refactor that reorders
// span draws or message batches would pass them while changing every byte.
// These goldens make such a change a diff. Large artifacts (provenance and
// trace JSONL, metrics exposition, checkpoint files) are pinned by SHA-256.

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestZooSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo matrix")
	}
	cfg := DefaultZooConfig()
	cfg.Duration = 20 * time.Minute
	res, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := res.Observation().Provenance
	var prov bytes.Buffer
	if err := log.WriteJSONL(&prov); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "zoo_smoke.golden",
		res.Format()+fmt.Sprintf("provenance records %d sha256 %s\n", log.Len(), sha256Hex(prov.Bytes())))
}

func TestRecoverySmokeGolden(t *testing.T) {
	res, err := RunRecovery(DefaultRecoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "recovery_smoke.golden", res.Format())
}

// TestChaosSmokeGolden pins both restart flavours of the chaos rig: cold
// reboots and checkpoint-restored warm ones.
func TestChaosSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs")
	}
	var b strings.Builder
	for _, warm := range []bool{false, true} {
		cfg := DefaultChaosConfig()
		cfg.Duration = 45 * time.Minute
		cfg.GOAOutageStart = 10 * time.Minute
		cfg.GOAOutage = 10 * time.Minute
		cfg.SOACrashes = 3
		if warm {
			cfg.WarmRestart = true
			cfg.CheckpointEvery = 2 * time.Minute
		}
		res, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prom, trace bytes.Buffer
		if err := res.Metrics.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "--- warm=%v ---\n%smetrics sha256 %s\ntrace events %d sha256 %s\n",
			warm, res.Format(), sha256Hex(prom.Bytes()), len(res.Trace.Events()), sha256Hex(trace.Bytes()))
	}
	checkGolden(t, "chaos_smoke.golden", b.String())
}

// TestLiveSmokeGolden drives one scripted hold-mode live run — background
// ticks, an injected sOA fault, an API deployment with its own overclock
// session — and pins the final forced checkpoint. Hold mode makes the run a
// pure function of the script: every tick drains exactly what the previous
// one sent.
func TestLiveSmokeGolden(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "state.json")
	h := startLiveHarness(t, func(cfg *LiveConfig) {
		cfg.Seed = 3
		cfg.CheckpointPath = ckptPath
		cfg.CheckpointEvery = time.Minute
	})
	ctx := context.Background()
	admin, op, chaosbot := h.client("tok-admin"), h.client("tok-operate"), h.client("tok-chaos")
	advance := func(n int) {
		t.Helper()
		adv, err := admin.Advance(ctx, api.AdvanceSpec{Ticks: n})
		if err != nil {
			t.Fatal(err)
		}
		if adv.Ticks != n {
			t.Fatalf("advanced %d ticks, want %d", adv.Ticks, n)
		}
	}

	advance(30)
	if _, err := chaosbot.SetChaos(ctx, api.ChaosSpec{Agent: "lv-01", Down: true}); err != nil {
		t.Fatal(err)
	}
	advance(30)
	if _, err := chaosbot.SetChaos(ctx, api.ChaosSpec{Agent: "lv-01", Down: false}); err != nil {
		t.Fatal(err)
	}
	if _, err := op.RegisterDeployment(ctx, api.DeploymentSpec{Name: "pin", Server: "lv-02", Cores: 2, Util: 0.6}); err != nil {
		t.Fatal(err)
	}
	if _, err := op.StartOverclock(ctx, api.OCSpec{Server: "lv-02", VM: "pin"}); err != nil {
		t.Fatal(err)
	}
	advance(60)

	cp, err := admin.ForceCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	st := statusOf(t, h.client("tok-read"))
	res := h.stop(t)
	checkGolden(t, "live_smoke.golden", res.Format()+
		fmt.Sprintf("chaos dropped %d\ncheckpoint bytes %d sha256 %s\n", st.ChaosDropped, len(data), sha256Hex(data)))
}

// TestClusterSmokeGolden pins the cluster emulation at full precision.
// fig12_14_smoke.golden prints three decimals, too coarse to catch a
// reordered floating-point sum, so this golden holds every scalar and map
// field of ClusterResult (%v) for the four Fig 12–14 systems, the two
// power-constrained systems and the six overclocking-constrained cells (run
// directly, since RunOCConstrained prints one decimal), then that table
// itself and the SHA-256 of the merged observations of the observed Fig
// 12–14 and power-constrained sweeps.
func TestClusterSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulations")
	}
	var b strings.Builder
	base := smokeClusterCfg(SysBaseline)
	powerSystems := []ClusterSystem{SysNaiveOClock, SysSmartOClock}

	_, _, _, fig, err := RunFig12To14(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range ClusterSystems() {
		writeClusterResult(&b, "fig12-14", fig[sys])
	}
	_, pc, err := RunPowerConstrained(base, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range powerSystems {
		writeClusterResult(&b, "power x0.80", pc[sys])
	}
	for _, pct := range []float64{0.75, 0.50, 0.25} {
		for _, proactive := range []bool{false, true} {
			cfg := base
			cfg.System = SysSmartOClock
			cfg.OCBudgetScale = 0.6 * pct
			cfg.Proactive = proactive
			res, err := RunCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			writeClusterResult(&b, fmt.Sprintf("oc %.0f%% proactive=%v", pct*100, proactive), res)
		}
	}
	oc, err := RunOCConstrained(base, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(oc.Format())

	observed := base
	observed.Observe = true
	observed.RecordEvery = time.Minute
	_, _, _, fig, err = RunFig12To14(observed)
	if err != nil {
		t.Fatal(err)
	}
	writeClusterObservation(t, &b, "fig12-14 observed", MergeClusterObservations(ClusterSystems(), fig))
	_, pc, err = RunPowerConstrained(observed, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	writeClusterObservation(t, &b, "power x0.80 observed", MergeClusterObservations(powerSystems, pc))
	checkGolden(t, "cluster_smoke.golden", b.String())
}

// writeClusterResult prints every scalar and map field of r at full
// precision; fmt prints map keys in sorted order.
func writeClusterResult(b *strings.Builder, label string, r *ClusterResult) {
	fmt.Fprintf(b, "--- %s %s ---\n", label, r.System)
	fmt.Fprintf(b, "NormP99 %v\nNormAvg %v\nMissedSLO %v\n", r.NormP99, r.NormAvg, r.MissedSLO)
	fmt.Fprintf(b, "MeanInstances %v\nMeanInstancesByLevel %v\n", r.MeanInstances, r.MeanInstancesByLevel)
	fmt.Fprintf(b, "ServerEnergy %v\nTotalEnergy %v\nLCEnergy %v\n", r.ServerEnergy, r.TotalEnergy, r.LCEnergy)
	fmt.Fprintf(b, "MLThroughput %v\nCapEvents %v\nOCRequests %v\nOCRejections %v\nMissedTickFrac %v\n",
		r.MLThroughput, r.CapEvents, r.OCRequests, r.OCRejections, r.MissedTickFrac)
}

// writeClusterObservation prints the SHA-256 of a merged sweep observation:
// Prometheus exposition, trace JSONL and recording JSON.
func writeClusterObservation(t *testing.T, b *strings.Builder, label string, o *FleetObservation) {
	t.Helper()
	var prom, trace, series bytes.Buffer
	if err := o.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if err := o.Series.WriteJSON(&series); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "%s: metrics sha256 %s\ntrace events %d sha256 %s\nseries sha256 %s\n", label,
		sha256Hex(prom.Bytes()), len(o.Trace.Events()), sha256Hex(trace.Bytes()), sha256Hex(series.Bytes()))
}

// TestOversubCellsGolden pins the oversubscription cells at full precision.
// oversub_smoke.golden and contention_smoke.golden print three decimals, too
// coarse to catch a reordered OCCoreHours or MaxUtil sum, so this golden
// holds every field of OversubCellResult (%v) for each smoke cell of both
// sweeps and both canary cells, with violations as a count and the first
// entry and the error as its summary line.
func TestOversubCellsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("oversubscription sweeps")
	}
	cfg := smokeOversubCfg()
	var b strings.Builder
	ov, err := RunOversub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ov.Cells {
		writeOversubCell(&b, "oversub", &ov.Cells[i])
	}
	ct, err := RunContention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ct.Cells {
		writeOversubCell(&b, "contention", &ct.Cells[i])
	}
	noCapping, inverted, err := RunOversubCanary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeOversubCell(&b, "canary no-capping", noCapping)
	writeOversubCell(&b, "canary inverted", inverted)
	checkGolden(t, "oversub_cells.golden", b.String())
}

// writeOversubCell prints every field of c at full precision.
func writeOversubCell(b *strings.Builder, label string, c *OversubCellResult) {
	fmt.Fprintf(b, "--- %s ratio %v ---\n", label, c.Ratio)
	fmt.Fprintf(b, "Offered %v\nAdmitted %v\nRejected %v\nFallback %v\nWarnings %v\nCapEvents %v\n",
		c.Offered, c.Admitted, c.Rejected, c.Fallback, c.Warnings, c.CapEvents)
	fmt.Fprintf(b, "ServerTicks %v\nCappedTicks %v\nMaxUtil %v\nOCCoreHours %v\nInvariantChecks %v\n",
		c.ServerTicks, c.CappedTicks, c.MaxUtil, c.OCCoreHours, c.InvariantChecks)
	fmt.Fprintf(b, "Violations %d\n", len(c.Violations))
	if len(c.Violations) > 0 {
		fmt.Fprintf(b, "FirstViolation %v\n", c.Violations[0])
	}
	errLine := "<nil>"
	if c.Err != nil {
		errLine, _, _ = strings.Cut(c.Err.Error(), "\n")
	}
	fmt.Fprintf(b, "Err %s\n", errLine)
}

// TestFleetKernelGolden pins the fleet's rack kernel at full precision.
// table1_smoke.golden and ablation_smoke.golden print at most three
// decimals, too coarse to catch a reordered penalty or performance sum, so
// this golden holds every shard's rackMetrics (%+v) of the unobserved smoke
// Table I, uninterrupted and checkpointed at tick 100; each ablation
// variant's folded metrics at two racks per class, which cover the
// WarnFraction override, disabled exploration and every template strategy;
// the determinism anchors of a 4-rack, 6-server scale run; and the
// datacenter rebalance table.
func TestFleetKernelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	var b strings.Builder
	for _, ckpt := range []int{0, 100} {
		cfg := smokeFleetCfg()
		cfg.CheckpointTick = ckpt
		var units []rackUnit
		for ci, class := range []trace.ClusterClass{trace.HighPower, trace.MediumPower, trace.LowPower} {
			fcfg := table1FleetConfig(cfg, class, ci)
			nr := fcfg.NumRacks()
			units = append(units, fleetUnits(&fcfg, nr, ci*len(baselines.All())*nr, []FleetSimConfig{cfg}, baselines.All()...)...)
		}
		outs, err := streamRacks(fleetOpts(cfg), units)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			fmt.Fprintf(&b, "table1 checkpoint=%d shard %d %+v\n", ckpt, i, o.m)
		}
	}

	base := smokeFleetCfg()
	base.RacksPerClass = 2
	for _, a := range []*ablation{templateAblation(base), exploreStepAblation(base), warnAblation(base)} {
		pts, err := runHighPower(base, a.variants, a.sys)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range pts {
			fmt.Fprintf(&b, "ablation %s=%s %+v\n", a.knob, a.labels[i], m)
		}
	}

	sc := DefaultScaleConfig(4)
	sc.ServersPerRack = 6
	res, err := RunFleetScale(sc)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "scale racks=4 servers=6 requests %d successes %d caps %d\n", res.Requests, res.Successes, res.CapEvents)

	tbl, err := RunDatacenterRebalance(smokeFleetCfg())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(tbl.Format())
	checkGolden(t, "fleet_kernel.golden", b.String())
}

// TestClusterKernelGolden pins the cluster.Server kernel at full precision:
// floats as math.Float64bits and aging as integer nanoseconds, so a
// reordered power sum or a changed wear rate is a diff. It holds every
// server's energy, overclocked core-seconds and per-core aging after each
// smoke Fig 12–14 system (run as RunFig12To14 runs it), the same for a
// fault-free warm-restart chaos run plus each sOA's final checkpoint, and
// the final checkpoint body of a short held live run.
func TestClusterKernelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulations")
	}
	var b strings.Builder
	for _, sys := range ClusterSystems() {
		cfg := smokeClusterCfg(sys)
		r, err := runCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range r.servers {
			writeServerKernel(&b, "fig12-14 "+sys.String(), s.srv)
		}
	}

	cfg := DefaultChaosConfig()
	cfg.Duration = 45 * time.Minute
	cfg.DropProb, cfg.DupProb, cfg.DelayProb = 0, 0, 0
	cfg.GOAOutage, cfg.SOACrashes = 0, 0
	cfg.WarmRestart, cfg.CheckpointEvery = true, 5*time.Minute
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := newChaosRun(cfg)
	c.eng.Run(cfg.Start.Add(cfg.Duration))
	for _, s := range c.rg.servers {
		writeServerKernel(&b, "chaos", s.srv)
	}
	agents := make([]string, 0, len(c.ckpts))
	for name := range c.ckpts {
		agents = append(agents, name)
	}
	sort.Strings(agents)
	for _, name := range agents {
		fmt.Fprintf(&b, "chaos checkpoint %s\n%s\n", name, c.ckpts[name])
	}

	ckptPath := filepath.Join(t.TempDir(), "state.json")
	h := startLiveHarness(t, func(cfg *LiveConfig) {
		cfg.Seed = 5
		cfg.CheckpointPath = ckptPath
		cfg.CheckpointEvery = time.Minute
	})
	ctx := context.Background()
	admin := h.client("tok-admin")
	if _, err := admin.Advance(ctx, api.AdvanceSpec{Ticks: 40}); err != nil {
		t.Fatal(err)
	}
	cp, err := admin.ForceCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	h.stop(t)
	fmt.Fprintf(&b, "live checkpoint\n%s\n", data)
	checkGolden(t, "cluster_kernel.golden", b.String())
}

// writeServerKernel prints one server's accumulated hardware state bit for
// bit: energy and overclocked core-seconds as float bits, then each core's
// aging in nanoseconds, then on a line of its own the wall-clock time the
// wear counters observed (every core sees the same ticks).
func writeServerKernel(b *strings.Builder, label string, s *cluster.Server) {
	fmt.Fprintf(b, "%s %s energy %016x ocsec %016x aged", label, s.Name(),
		math.Float64bits(s.Energy()), math.Float64bits(s.Machine().TotalOCCoreSeconds()))
	for i := 0; i < s.NumCores(); i++ {
		fmt.Fprintf(b, " %d", int64(s.Machine().Aged(i)))
	}
	fmt.Fprintf(b, "\n%s %s elapsed %d\n", label, s.Name(), int64(s.Machine().Elapsed()))
}
