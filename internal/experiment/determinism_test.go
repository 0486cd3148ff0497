package experiment

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"smartoclock/internal/causal"
)

// These tests pin the central contract of the parallel fleet runner: the
// worker count and the shard dispatch order are pure performance knobs.
// Every experiment entry point must produce byte-identical tables whether
// it runs serially, across 8 workers, or with shards dispatched in a
// shuffled order. Seed derivation (parallel.ChildSeed) plus fixed-index
// reduction make this hold exactly, not just statistically.

// The Table I determinism matrix: for seeds 1, 2 and 3 the observed smoke
// Table I runs at workers 1, at workers 2, at workers 8 under shuffled
// dispatch and at workers 32 under shuffled dispatch, recording series
// every two steps. Each test below checks one property over the same
// matrix, so a run is simulated once per test binary and reduced to a
// table1Run; running one test alone simulates only the cells it reads.
var (
	matrixSeeds    = []int64{1, 2, 3}
	matrixVariants = []table1Variant{{1, 0}, {2, 0}, {8, 31415}, {32, 1000}}
)

type table1Variant struct {
	workers int
	shuffle int64
}

// table1Run is one observed Table I run reduced to what the tests compare:
// the formatted table whole, and the other artifacts as SHA-256 hashes.
type table1Run struct {
	table                        string
	all, telemetry, series, prov string
	soaInTelemetry, soaInSeries  bool
	provBytes, seriesIntervals   int
	path                         causal.Stats
}

type table1Key struct {
	seed    int64
	v       table1Variant
	record  bool
	observe bool
}

var table1Memo = struct {
	sync.Mutex
	runs map[table1Key]table1Run
}{runs: map[table1Key]table1Run{}}

// table1At returns the smoke Table I run for key, simulating it on first
// use. An unobserved run fills only table.
func table1At(t *testing.T, k table1Key) table1Run {
	t.Helper()
	table1Memo.Lock()
	defer table1Memo.Unlock()
	if r, ok := table1Memo.runs[k]; ok {
		return r
	}
	cfg := smokeFleetCfg()
	cfg.Seed = k.seed
	cfg.Workers = k.v.workers
	cfg.ShuffleShards = k.v.shuffle
	if k.record {
		cfg.RecordEvery = 2 * cfg.Step
	}
	var r table1Run
	if !k.observe {
		tbl, _, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.table = tbl.Format()
	} else {
		p := renderObserved(t, cfg)
		telemetry := p.metrics + "--- trace ---\n" + p.trace
		r = table1Run{
			table:          p.table,
			all:            sha256Hex([]byte(p.String())),
			telemetry:      sha256Hex([]byte(telemetry)),
			series:         sha256Hex([]byte(p.series)),
			prov:           sha256Hex([]byte(p.provenance)),
			soaInTelemetry: strings.Contains(telemetry, "soa_requests_total"),
			soaInSeries:    strings.Contains(p.series, "soa_requests_total"),
			provBytes:      len(p.provenance),
			path:           p.observation.CriticalPath,
		}
		if s := p.observation.Series; s != nil {
			r.seriesIntervals = s.Intervals()
		} else {
			r.seriesIntervals = -1
		}
	}
	table1Memo.runs[k] = r
	return r
}

// matrixRun returns one recorded cell of the determinism matrix.
func matrixRun(t *testing.T, seed int64, v table1Variant) table1Run {
	t.Helper()
	return table1At(t, table1Key{seed: seed, v: v, record: true, observe: true})
}

// eachSeed runs check once per matrix seed as subtest "seed=N", handing it
// the workers=1 run and a lookup for the other variants.
func eachSeed(t *testing.T, check func(t *testing.T, seed int64, ref table1Run)) {
	t.Helper()
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	for _, seed := range matrixSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			check(t, seed, matrixRun(t, seed, matrixVariants[0]))
		})
	}
}

// TestTable1EquivalenceAcrossWorkers: the formatted table, which carries
// every reported metric at full float precision, is the same at every
// worker count and dispatch order.
func TestTable1EquivalenceAcrossWorkers(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64, ref table1Run) {
		for _, v := range matrixVariants[1:] {
			if got := matrixRun(t, seed, v); got.table != ref.table {
				t.Errorf("workers=%d shuffle=%d diverges from workers=1:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					v.workers, v.shuffle, ref.table, v.workers, got.table)
			}
		}
	})
}

// TestObservedTelemetryEquivalenceAcrossWorkers extends the worker-count
// contract to the observability layer: the merged metrics snapshot and the
// concatenated trace are byte-identical at every worker count and dispatch
// order. This is what makes -metrics-out/-trace-out artifacts comparable
// across machines.
func TestObservedTelemetryEquivalenceAcrossWorkers(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64, ref table1Run) {
		if !ref.soaInTelemetry {
			t.Fatal("telemetry missing the sOA series")
		}
		for _, v := range matrixVariants[1:] {
			if got := matrixRun(t, seed, v); got.telemetry != ref.telemetry {
				t.Errorf("telemetry at workers=%d shuffle=%d diverges from workers=1", v.workers, v.shuffle)
			}
		}
	})
}

// TestRecordedSeriesEquivalenceAcrossWorkers extends the worker-count
// contract to continuous recording: the merged per-interval series are
// byte-identical at every worker count and dispatch order. This is what
// makes -series-out artifacts comparable across machines.
func TestRecordedSeriesEquivalenceAcrossWorkers(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64, ref table1Run) {
		if !ref.soaInSeries {
			t.Fatal("recording missing the sOA series")
		}
		for _, v := range matrixVariants[1:] {
			if got := matrixRun(t, seed, v); got.series != ref.series {
				t.Errorf("recording at workers=%d shuffle=%d diverges from workers=1", v.workers, v.shuffle)
			}
		}
	})
}

// TestTable1ObservedIdenticalAcrossWorkers is the streamed path's
// determinism claim over every observed artifact at once (renderObserved)
// and, for seed 1, the bytes pinned in table1_observed_seed1.sha256, which
// an eager, materialized fleet path also produced until it was deleted.
func TestTable1ObservedIdenticalAcrossWorkers(t *testing.T) {
	eachSeed(t, func(t *testing.T, seed int64, ref table1Run) {
		if seed == 1 {
			checkGolden(t, "table1_observed_seed1.sha256", ref.all+"\n")
		}
		for _, v := range matrixVariants[1:] {
			if got := matrixRun(t, seed, v); got.all != ref.all {
				t.Errorf("workers=%d shuffle=%d: observed bytes diverge from workers=1", v.workers, v.shuffle)
			}
		}
	})
}

// TestFleetProvenanceDeterministicAcrossWorkers extends the contract to the
// provenance log and its critical-path profile: shard logs concatenate in
// shard-index order, so the merged JSONL and the Stats derived from it
// cannot depend on how many workers ran the shards. Short mode checks
// seed 1 only.
func TestFleetProvenanceDeterministicAcrossWorkers(t *testing.T) {
	seeds := matrixSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		ref := matrixRun(t, seed, matrixVariants[0])
		if ref.provBytes == 0 {
			t.Fatalf("seed=%d: empty fleet provenance log", seed)
		}
		if ref.path.Decisions == 0 {
			t.Fatalf("seed=%d: critical-path profile counted no decisions", seed)
		}
		for _, v := range matrixVariants[1:] {
			got := matrixRun(t, seed, v)
			if got.prov != ref.prov {
				t.Errorf("seed=%d workers=%d shuffle=%d: provenance log diverges from workers=1", seed, v.workers, v.shuffle)
			}
			if got.path != ref.path {
				t.Errorf("seed=%d workers=%d shuffle=%d: critical path %+v, want %+v", seed, v.workers, v.shuffle, got.path, ref.path)
			}
		}
	}
}

// TestTable1RaceStress drives the parallel runner with far more workers
// than shards and a shuffled dispatch order. Its real job is giving the
// race detector (CI runs `go test -race ./...`) maximal scheduling freedom
// over the shard pool, reducers and scratch buffers; it also checks that
// the oversubscribed run's bytes match the serial run's.
func TestTable1RaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	stress := matrixVariants[len(matrixVariants)-1]
	for _, seed := range matrixSeeds {
		if matrixRun(t, seed, stress).all != matrixRun(t, seed, matrixVariants[0]).all {
			t.Errorf("seed=%d: oversubscribed shuffled run diverges", seed)
		}
	}
}

// zeroObserverRuns returns seed 1's serial Table I run plain (unobserved),
// observed without recording, and observed with recording.
func zeroObserverRuns(t *testing.T) (plain, observed, recorded table1Run) {
	t.Helper()
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	serial := matrixVariants[0]
	plain = table1At(t, table1Key{seed: 1, v: serial})
	observed = table1At(t, table1Key{seed: 1, v: serial, observe: true})
	return plain, observed, matrixRun(t, 1, serial)
}

// TestObservedTable1MatchesUnobserved pins the observer effect at zero:
// attaching the metrics registry, tracer and provenance recorder must not
// change a byte of the experiment's scientific output.
func TestObservedTable1MatchesUnobserved(t *testing.T) {
	plain, observed, _ := zeroObserverRuns(t)
	if plain.table != observed.table {
		t.Errorf("observation changed experiment results:\n--- plain ---\n%s\n--- observed ---\n%s",
			plain.table, observed.table)
	}
}

// TestRecordingZeroObserverEffect pins the recorder's observer effect at
// zero twice over: recording must change neither the table nor the
// end-of-run snapshot and trace. Series is nil unless recording is on.
func TestRecordingZeroObserverEffect(t *testing.T) {
	plain, observed, recorded := zeroObserverRuns(t)
	if plain.table != recorded.table {
		t.Errorf("recording changed experiment results:\n--- plain ---\n%s\n--- recorded ---\n%s",
			plain.table, recorded.table)
	}
	if observed.telemetry != recorded.telemetry {
		t.Error("recording changed the end-of-run snapshot or trace")
	}
	if observed.seriesIntervals != -1 {
		t.Error("recording disabled but Series non-nil")
	}
	if recorded.seriesIntervals <= 0 {
		t.Fatal("recording enabled but Series empty")
	}
}

// TestAblationEquivalenceAcrossWorkers runs the three ablation tables at
// three racks per class, so each table's single fan-out has three rack units
// of several variants each to reorder.
func TestAblationEquivalenceAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	run := func(workers int, shuffle int64) string {
		cfg := smokeFleetCfg()
		cfg.RacksPerClass = 3
		cfg.Workers = workers
		cfg.ShuffleShards = shuffle
		var out string
		for _, ablate := range []func(FleetSimConfig) (*Table, error){
			RunAblationTemplates, RunAblationExploreStep, RunAblationWarnThreshold,
		} {
			tbl, err := ablate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out += tbl.Format()
		}
		return out
	}
	ref := run(1, 0)
	if got := run(8, 0); got != ref {
		t.Errorf("ablation tables workers=8 diverge:\n%s\nvs\n%s", ref, got)
	}
	if got := run(8, 777); got != ref {
		t.Errorf("ablation tables shuffled dispatch diverges:\n%s\nvs\n%s", ref, got)
	}
}

// TestFig12To14EquivalenceAcrossWorkers covers all three cluster sweeps,
// since they share one fan-out.
func TestFig12To14EquivalenceAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulations x24")
	}
	run := func(workers int) string {
		cfg := smokeClusterCfg(SysBaseline)
		cfg.Workers = workers
		fig12, fig13, fig14, _, err := RunFig12To14(cfg)
		if err != nil {
			t.Fatal(err)
		}
		power, _, err := RunPowerConstrained(cfg, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := RunOCConstrained(cfg, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		return fig12.Format() + fig13.Format() + fig14.Format() + power.Format() + oc.Format()
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("cluster sweep diverges across worker counts:\n%s\nvs\n%s", a, b)
	}
}
