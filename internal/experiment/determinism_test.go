package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// These tests pin the central contract of the parallel fleet runner: the
// worker count and the shard dispatch order are pure performance knobs.
// Every experiment entry point must produce byte-identical tables whether
// it runs serially, across 8 workers, or with shards dispatched in a
// shuffled order. Seed derivation (parallel.ChildSeed) plus fixed-index
// reduction make this hold exactly, not just statistically.

// table1Formatted runs Table I at smoke scale and returns the formatted
// table, which captures every reported metric at full float precision.
func table1Formatted(t *testing.T, seed int64, workers int, shuffle int64) string {
	t.Helper()
	cfg := smokeFleetCfg()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.ShuffleShards = shuffle
	tbl, _, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Format()
}

func TestTable1EquivalenceAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := table1Formatted(t, seed, 1, 0)
			for _, workers := range []int{2, 8} {
				if got := table1Formatted(t, seed, workers, 0); got != ref {
					t.Errorf("workers=%d diverges from workers=1:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
						workers, ref, workers, got)
				}
			}
			// Shuffled dispatch order must not matter either.
			if got := table1Formatted(t, seed, 8, 12345); got != ref {
				t.Errorf("shuffled dispatch diverges from serial order:\n%s\nvs\n%s", ref, got)
			}
		})
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

func TestFig12To14EquivalenceAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulations x8")
	}
	run := func(workers int) string {
		cfg := smokeClusterCfg(SysBaseline)
		cfg.Workers = workers
		fig12, fig13, fig14, _, err := RunFig12To14(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fig12.Format() + fig13.Format() + fig14.Format()
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("cluster sweep diverges across worker counts:\n%s\nvs\n%s", a, b)
	}
}

// table1Observed runs the observed Table I at smoke scale and renders the
// full telemetry output — Prometheus exposition plus the JSONL trace — so
// the comparison covers every series value, bucket count and event byte.
func table1Observed(t *testing.T, seed int64, workers int, shuffle int64) string {
	t.Helper()
	cfg := smokeFleetCfg()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.ShuffleShards = shuffle
	_, _, observation, err := RunTable1Observed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if observation == nil || observation.Metrics == nil {
		t.Fatal("observed run returned no telemetry")
	}
	var b strings.Builder
	if err := observation.Metrics.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("--- trace ---\n")
	if err := observation.Trace.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestObservedTelemetryEquivalenceAcrossWorkers extends the worker-count
// contract to the observability layer: the merged metrics snapshot and the
// concatenated trace must be byte-identical whether the fleet ran serially,
// across 8 workers, or with shuffled shard dispatch. This is what makes
// -metrics-out/-trace-out artifacts comparable across machines.
func TestObservedTelemetryEquivalenceAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := table1Observed(t, seed, 1, 0)
			if !strings.Contains(ref, "soa_requests_total") {
				t.Fatalf("telemetry missing expected series:\n%.2000s", ref)
			}
			for _, workers := range []int{2, 8} {
				if got := table1Observed(t, seed, workers, 0); got != ref {
					t.Errorf("telemetry at workers=%d diverges from workers=1 (len %d vs %d)",
						workers, len(got), len(ref))
				}
			}
			if got := table1Observed(t, seed, 8, 54321); got != ref {
				t.Error("telemetry with shuffled dispatch diverges from serial order")
			}
		})
	}
}

// TestObservedTable1MatchesUnobserved pins the observer effect at zero:
// attaching the metrics registry and tracer must not change a single byte
// of the experiment's scientific output.
func TestObservedTable1MatchesUnobserved(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	cfg := smokeFleetCfg()
	plain, _, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed, _, _, err := RunTable1Observed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Format() != observed.Format() {
		t.Errorf("observation changed experiment results:\n--- plain ---\n%s\n--- observed ---\n%s",
			plain.Format(), observed.Format())
	}
}

// TestTable1RaceStress drives the parallel runner with far more workers
// than shards and a shuffled dispatch order. Its assertions are mild; its
// real job is giving the race detector (CI runs `go test -race ./...`)
// maximal scheduling freedom over the shard pool, reducers and scratch
// buffers.
func TestTable1RaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	ref := table1Formatted(t, 9, 1, 0)
	for trial := 0; trial < 2; trial++ {
		if got := table1Formatted(t, 9, 32, int64(1000+trial)); got != ref {
			t.Fatalf("trial %d: oversubscribed shuffled run diverges", trial)
		}
	}
}
