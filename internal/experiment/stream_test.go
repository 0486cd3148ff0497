package experiment

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/trace"
)

// The streamed fleet path generates each shard's rack trace inside the
// worker; the fleet is never materialized. Because a rack is a pure function
// of (seed, rack index), output must not depend on which worker generates
// which rack or when — this suite pins that for the Table I rows, the merged
// metrics snapshot, the recorded series, the event trace and the provenance
// log, across worker counts and shuffled dispatch, and pins seed 1's bytes
// with a golden hash recorded when an eager, pre-generated fleet path still
// existed and agreed with the streamed one.

// renderObserved serializes every byte-deterministic artifact of an
// observed Table I run into one comparable string.
func renderObserved(t *testing.T, cfg FleetSimConfig) string {
	t.Helper()
	tbl, rows, observation, err := RunTable1Observed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if observation == nil || observation.Metrics == nil {
		t.Fatal("observed run returned no telemetry")
	}
	var b strings.Builder
	b.WriteString(tbl.Format())
	b.WriteString("--- rows ---\n")
	fmt.Fprintf(&b, "%+v\n", rows)
	b.WriteString("--- metrics ---\n")
	if err := observation.Metrics.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("--- trace ---\n")
	if err := observation.Trace.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("--- provenance ---\n")
	if err := observation.Provenance.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("--- recording ---\n")
	rec, err := json.Marshal(observation.Series)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(rec)
	return b.String()
}

// TestTable1ObservedIdenticalAcrossWorkers is the streamed path's
// determinism claim: identical observed bytes at workers 1/2/8 and under
// shuffled dispatch, for two seeds — and, for seed 1, the bytes pinned in
// table1_observed_seed1.sha256, which an eager, materialized fleet path also
// produced until it was deleted.
func TestTable1ObservedIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations x8")
	}
	type variant struct {
		workers int
		shuffle int64
	}
	variants := []variant{{1, 0}, {2, 0}, {8, 0}, {8, 31415}}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ref string
			for _, v := range variants {
				cfg := smokeFleetCfg()
				cfg.Seed = seed
				cfg.Workers = v.workers
				cfg.ShuffleShards = v.shuffle
				cfg.RecordEvery = 2 * cfg.Step
				got := renderObserved(t, cfg)
				if ref == "" {
					ref = got
					if seed == 1 {
						checkGolden(t, "table1_observed_seed1.sha256", sha256Hex([]byte(got))+"\n")
					}
				} else if got != ref {
					t.Fatalf("workers=%d shuffle=%d diverges from workers=1", v.workers, v.shuffle)
				}
			}
		})
	}
}

// TestTable1TwoRacksPerClassPin pins seed 1's observed bytes with two racks
// per class. At one rack per class every (class, system, rack) index formula
// that keeps class-major order gives the same shard numbering, so only a
// multi-rack fleet can catch a shard landing in the wrong slot — its child
// seed, its provenance stream, or its place in the fold and merge order.
// Seven training days are the fewest that give every server a weekday and a
// weekend template.
func TestTable1TwoRacksPerClassPin(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	cfg := smokeFleetCfg()
	cfg.RacksPerClass = 2
	cfg.TrainDays = 7
	cfg.EvalDays = 1
	cfg.Workers = 2
	cfg.ShuffleShards = 27182
	cfg.RecordEvery = 2 * cfg.Step
	checkGolden(t, "table1_observed_2racks_seed1.sha256", sha256Hex([]byte(renderObserved(t, cfg)))+"\n")
}

// TestGenFleetRackIsPureInIndex pins the generator-level identity the
// streamed path is built on: rack i is a pure function of (config, i) —
// regenerating it, in any order, yields the same identity and the same
// bytes — for a multi-region mixed-class config.
func TestGenFleetRackIsPureInIndex(t *testing.T) {
	fcfg := trace.DefaultFleetConfig(fleetStart, 48*time.Hour)
	fcfg.Seed = 7
	fcfg.RacksPerRegion = 3
	n := fcfg.NumRacks()
	first := make([]*trace.FleetRack, n)
	for i := n - 1; i >= 0; i-- { // descending: order must not matter
		fr, err := trace.GenFleetRack(fcfg, i)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = fr
	}
	for i, want := range first {
		got, err := trace.GenFleetRack(fcfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Region != want.Region || got.Class != want.Class || got.Name != want.Name {
			t.Fatalf("rack %d identity mismatch: %s/%v/%s vs %s/%v/%s",
				i, got.Region, got.Class, got.Name, want.Region, want.Class, want.Name)
		}
		if want.Region != fcfg.Regions[i/fcfg.RacksPerRegion] {
			t.Fatalf("rack %d landed in region %s", i, want.Region)
		}
		gj, _ := json.Marshal(got.RackTrace)
		wj, _ := json.Marshal(want.RackTrace)
		if string(gj) != string(wj) {
			t.Fatalf("rack %d trace differs between two generations", i)
		}
	}
	// Out-of-range indices are errors, not panics.
	if _, err := trace.GenFleetRack(fcfg, n); err == nil {
		t.Error("GenFleetRack accepted an out-of-range index")
	}
	if _, err := trace.GenFleetRack(fcfg, -1); err == nil {
		t.Error("GenFleetRack accepted a negative index")
	}
}
