package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// TestFleetCheckpointRoundtrip is the tentpole acceptance test for the
// durable-state layer: a fleet simulation whose entire control plane is
// checkpointed mid-run — serialized through the store envelope, torn down,
// and restored from the decoded bytes — must produce a byte-identical
// Table I to an uninterrupted run, at every worker count and checkpoint
// tick. The rows are compared at full precision as well as formatted, so
// any state the snapshot misses, any field the restore mangles, any float
// that drifts through JSON shows up as a divergence.
func TestFleetCheckpointRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	run := func(t *testing.T, workers, checkpointTick int) (tbl, rows string) {
		t.Helper()
		cfg := smokeFleetCfg()
		cfg.Workers = workers
		cfg.CheckpointTick = checkpointTick
		table, rs, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return table.Format(), fmt.Sprintf("%+v", rs)
	}
	refTbl, refRows := run(t, 0, 0)

	// One eval day at a 5-minute step is 288 ticks: checkpoint mid-run at
	// every worker count, then at the first and last restorable ticks and
	// late in the run — staleness must not matter either.
	for _, c := range []struct {
		name          string
		workers, tick int
	}{
		{"workers=1", 1, 100}, {"workers=2", 2, 100}, {"workers=8", 8, 100},
		{"tick=1", 0, 1}, {"tick=250", 0, 250}, {"tick=287", 0, 287},
	} {
		t.Run(c.name, func(t *testing.T) {
			tbl, rows := run(t, c.workers, c.tick)
			if tbl != refTbl {
				t.Errorf("checkpointed run diverges from uninterrupted run:\n--- uninterrupted ---\n%s\n--- checkpointed ---\n%s", refTbl, tbl)
			}
			if rows != refRows {
				t.Errorf("checkpointed rows diverge at full precision:\n--- uninterrupted ---\n%s\n--- checkpointed ---\n%s", refRows, rows)
			}
		})
	}
}

// TestFleetCheckpointObserved: with the observability layer on, a rebuilt
// agent resolves the same series identities, so the merged snapshot of a
// checkpointed run matches the uninterrupted one exactly.
func TestFleetCheckpointObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	run := func(checkpointTick int) string {
		cfg := smokeFleetCfg()
		cfg.CheckpointTick = checkpointTick
		_, _, ob, err := RunTable1Observed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := ob.Metrics.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	ref := run(0)
	if got := run(100); got != ref {
		t.Error("observed metrics diverge between checkpointed and uninterrupted runs")
	}
}
