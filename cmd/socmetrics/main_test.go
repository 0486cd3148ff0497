package main

import (
	"testing"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/metrics"
)

// buildRecorder records a tiny deterministic provenance log: one message
// spawning a chain of two decisions on tick 1, plus a lone decision on
// tick 2.
func buildRecorder(t *testing.T) *causal.Recorder {
	t.Helper()
	rec := causal.NewRecorder(42, 0)
	t0 := time.Unix(0, 0).UTC()
	msg := rec.Emit(causal.Record{Time: t0, Kind: causal.KindMessage, Component: "rack", Site: "msg.rack.event"})
	admit := rec.Emit(causal.Record{Time: t0, Kind: causal.KindDecision, Component: "soa", Site: "soa.admit", Parent: msg})
	rec.Emit(causal.Record{Time: t0, Kind: causal.KindDecision, Component: "soa", Site: "soa.session", Parent: admit})
	rec.Emit(causal.Record{Time: t0.Add(time.Second), Kind: causal.KindDecision, Component: "goa", Site: "goa.budget"})
	return rec
}

func TestCriticalPathBlockGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	buildRecorder(t).Register(reg, metrics.Label{Key: "shard", Value: "0"})

	got := criticalPathBlock(reg.Snapshot())
	want := "# critical path (causal provenance)\n" +
		"#   decisions    3\n" +
		"#   messages     1\n" +
		"#   chain depth  mean 1.75  max <= 3\n" +
		"#   tick records mean 2.00  max <= 4\n"
	if got != want {
		t.Errorf("criticalPathBlock mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestCriticalPathBlockSumsShards(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := buildRecorder(t)
	rec.Register(reg, metrics.Label{Key: "shard", Value: "0"})
	rec.Register(reg, metrics.Label{Key: "shard", Value: "1"})

	got := criticalPathBlock(reg.Snapshot())
	want := "# critical path (causal provenance)\n" +
		"#   decisions    6\n" +
		"#   messages     2\n" +
		"#   chain depth  mean 1.75  max <= 3\n" +
		"#   tick records mean 2.00  max <= 4\n"
	if got != want {
		t.Errorf("criticalPathBlock mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestCriticalPathBlockAbsent(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("unrelated_total").Inc()
	if got := criticalPathBlock(reg.Snapshot()); got != "" {
		t.Errorf("expected empty block for snapshot without causal series, got:\n%s", got)
	}
}
