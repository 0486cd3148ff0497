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
// which rack or when — determinism_test.go pins that for the Table I rows,
// the merged metrics snapshot, the recorded series, the event trace and the
// provenance log, across worker counts and shuffled dispatch, and this file
// pins seed 1's bytes with golden hashes.

// observedParts holds every byte-deterministic artifact of an observed
// Table I run, each serialized on its own.
type observedParts struct {
	table, rows, metrics, trace, provenance, series string
	observation                                     *FleetObservation
}

// String joins the parts into the one comparable string the golden hashes
// pin.
func (p observedParts) String() string {
	return p.table + "--- rows ---\n" + p.rows + "--- metrics ---\n" + p.metrics +
		"--- trace ---\n" + p.trace + "--- provenance ---\n" + p.provenance +
		"--- recording ---\n" + p.series
}

// renderRows prints Table I rows through an explicit field list, each value
// named in the text, so the pins hash the rows' values and not the Go
// layout of Table1Row.
func renderRows(rows []Table1Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "system=%s class=%s cap_events=%d norm_caps=%v success_pct=%v penalty_pct=%v norm_perf=%v requests=%d\n",
			r.System, r.Class, r.CapEvents, r.NormCaps, r.SuccessPct, r.PenaltyPct, r.NormPerf, r.Requests)
	}
	return b.String()
}

// renderObserved runs an observed Table I and serializes its artifacts.
func renderObserved(t *testing.T, cfg FleetSimConfig) observedParts {
	t.Helper()
	tbl, rows, observation, err := RunTable1Observed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if observation == nil || observation.Metrics == nil {
		t.Fatal("observed run returned no telemetry")
	}
	var metrics, events, prov strings.Builder
	if err := observation.Metrics.WriteProm(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := observation.Trace.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	if err := observation.Provenance.WriteJSONL(&prov); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(observation.Series)
	if err != nil {
		t.Fatal(err)
	}
	return observedParts{
		table:       tbl.Format(),
		rows:        renderRows(rows),
		metrics:     metrics.String(),
		trace:       events.String(),
		provenance:  prov.String(),
		series:      string(rec),
		observation: observation,
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
	got := renderObserved(t, cfg).String()
	checkGolden(t, "table1_observed_2racks_seed1.sha256", sha256Hex([]byte(got))+"\n")
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
