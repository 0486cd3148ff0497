package causal

import (
	"testing"
	"time"

	"smartoclock/internal/metrics"
)

func TestRegisterMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	buildChainRecorder().Register(reg)
	snap := reg.Snapshot()
	if got := snap.SumByName(MetricDecisions); got != 3 {
		t.Fatalf("%s = %v", MetricDecisions, got)
	}
	if got := snap.SumByName(MetricMessages); got != 1 {
		t.Fatalf("%s = %v", MetricMessages, got)
	}
	depth := snap.Find(MetricChainDepth, nil)
	if depth == nil || depth.Count != 4 {
		t.Fatalf("chain depth series = %+v", depth)
	}
	// Depths are 1 (request), 2 (grant), 3 (stop), 1 (cap): sum 7.
	if depth.Value != 7 {
		t.Fatalf("chain depth sum = %v", depth.Value)
	}
	ticks := snap.Find(MetricTickRecords, nil)
	if ticks == nil || ticks.Count != 2 || ticks.Value != 4 {
		t.Fatalf("tick records series = %+v", ticks)
	}
}

func TestRegisterMetricsMergesAcrossShards(t *testing.T) {
	r1, r2 := metrics.NewRegistry(), metrics.NewRegistry()
	buildChainRecorder().Register(r1)
	buildChainRecorder().Register(r2)
	merged := metrics.Merge(r1.Snapshot(), r2.Snapshot())
	if got := merged.SumByName(MetricDecisions); got != 6 {
		t.Fatalf("merged decisions = %v", got)
	}
	if depth := merged.Find(MetricChainDepth, nil); depth == nil || depth.Count != 8 {
		t.Fatalf("merged depth = %+v", depth)
	}
}

func TestRegisterNilAndEmpty(t *testing.T) {
	var r *Recorder
	r.Register(metrics.NewRegistry())
	reg := metrics.NewRegistry()
	NewRecorder(1, 1).Register(reg)
	snap := reg.Snapshot()
	if got := snap.SumByName(MetricDecisions); got != 0 {
		t.Fatalf("empty log decisions = %v", got)
	}
	if len(snap.Series) != 4 {
		t.Fatalf("empty log registered %d series, want 4", len(snap.Series))
	}
}

// TestRegisterReadsEveryChunk registers a recorder whose records span many
// chunks of its ring: the profile must count every record and match the
// depths the joined log's Stats walk finds.
func TestRegisterReadsEveryChunk(t *testing.T) {
	r := NewRecorder(3, 1)
	var parent SpanID
	for i := 0; i < 5000; i++ {
		if i%7 == 0 {
			parent = 0
		}
		kind := KindDecision
		if i%3 == 0 {
			kind = KindMessage
		}
		parent = r.Emit(Record{Time: t0.Add(time.Duration(i/10) * time.Minute), Parent: parent, Kind: kind})
	}
	reg := metrics.NewRegistry()
	r.Register(reg)
	snap := reg.Snapshot()
	st := (&Log{Records: r.Records()}).Stats()
	if d, m := snap.SumByName(MetricDecisions), snap.SumByName(MetricMessages); int(d) != st.Decisions || int(m) != st.Messages || st.Decisions+st.Messages != 5000 {
		t.Fatalf("registered %v decisions and %v messages, Stats %+v", d, m, st)
	}
	depth := snap.Find(MetricChainDepth, nil)
	// Chains run 1..7 deep: 714 full chains and a tail of two records.
	if depth == nil || depth.Count != 5000 || depth.Value != 714*28+1+2 || st.MaxDepth != 7 {
		t.Fatalf("chain depth series = %+v", depth)
	}
	if ticks := snap.Find(MetricTickRecords, nil); ticks == nil || int(ticks.Count) != st.Ticks || ticks.Value != 5000 {
		t.Fatalf("tick records series = %+v, Stats %+v", ticks, st)
	}
}
