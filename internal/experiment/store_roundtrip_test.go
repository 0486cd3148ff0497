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
// Table I to an uninterrupted run at every checkpoint tick. The rows are
// compared at full precision as well as formatted, so any state the
// snapshot misses, any field the restore mangles, any float that drifts
// through JSON shows up as a divergence. The worker count is not an axis:
// the checkpoint is taken inside each rack shard, TestFleetKernelGolden pins
// a mid-run checkpoint at tick 100, and the determinism matrix pins worker
// invariance.
func TestFleetCheckpointRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	run := func(t *testing.T, checkpointTick int) (tbl, rows string) {
		t.Helper()
		cfg := smokeFleetCfg()
		cfg.CheckpointTick = checkpointTick
		table, rs, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return table.Format(), fmt.Sprintf("%+v", rs)
	}
	refTbl, refRows := run(t, 0)

	// One eval day at a 5-minute step is 288 ticks: checkpoint at the first
	// and last restorable ticks and late in the run — staleness must not
	// matter.
	for _, tick := range []int{1, 250, 287} {
		t.Run(fmt.Sprintf("tick=%d", tick), func(t *testing.T) {
			tbl, rows := run(t, tick)
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
