package causal

import "smartoclock/internal/metrics"

// Bucket layouts of the critical-path histograms. Depth is small (chains
// run request → decision → consequence), per-tick record counts scale with
// fleet size.
var (
	// ChainDepthBuckets spans causal-chain depths.
	ChainDepthBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16}
	// TickRecordBuckets spans provenance records per simulation tick.
	TickRecordBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// Metric names of the critical-path profile. Counters and histograms sum
// across shard registries under metrics.Merge, so the merged snapshot
// carries the fleet-wide profile without any gauge last-wins hazard.
const (
	MetricDecisions   = "causal_decisions_total"
	MetricMessages    = "causal_messages_total"
	MetricChainDepth  = "causal_chain_depth"
	MetricTickRecords = "causal_tick_records"
)

// Register folds the critical-path profile of the recorder's records into
// reg: decision and message totals, one chain-depth observation per record,
// and one records-per-tick observation per distinct record timestamp. Call
// it once per shard after the run, on the shard's own registry; the merged
// snapshot then answers "how deep do causal chains run" and "how much
// decision work lands on a tick" fleet-wide. It reads the records where
// the recorder holds them, copying none.
func (r *Recorder) Register(reg *metrics.Registry, labels ...metrics.Label) {
	if r == nil || reg == nil {
		return
	}
	decisions := reg.Counter(MetricDecisions, labels...)
	messages := reg.Counter(MetricMessages, labels...)
	depthH := reg.Histogram(MetricChainDepth, ChainDepthBuckets, labels...)
	tickH := reg.Histogram(MetricTickRecords, TickRecordBuckets, labels...)
	depth, perTick := walk(r.records.Len(), r.records.Segments)
	i := 0
	r.records.Segments(func(seg []Record) {
		for k := range seg {
			if seg[k].Kind == KindMessage {
				messages.Inc()
			} else {
				decisions.Inc()
			}
			depthH.Observe(float64(depth[i]))
			i++
		}
	})
	for _, n := range perTick {
		tickH.Observe(float64(n))
	}
}
