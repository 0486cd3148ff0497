package experiment

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
)

// observer is the one observation seam of every driver — a Table I shard, a
// cluster emulation, a chaos run, a zoo cell, the live plane: a metrics
// registry, an event tracer, a decision-provenance recorder, a series
// recorder that samples the registry, and the labels the run's series
// carry. A driver builds it from its knobs with newObserver, freezes it into
// a FleetObservation when it ends, and a fan-out folds those with
// mergeObservations. Any part may be nil, and the zero observer observes
// nothing: every Emit, Note* and Trace* site is a no-op on a nil part, so
// observed and unobserved runs share one code path and draw provenance
// spans in one fixed order.
type observer struct {
	reg      *metrics.Registry
	tracer   *obs.Tracer
	prov     *causal.Recorder
	recorder *metrics.Recorder
	labels   []metrics.Label
}

// observeKnobs are the run knobs an observer is built from. The zero value
// observes nothing.
type observeKnobs struct {
	// observe makes a registry and a tracer of the only components (of
	// every component when empty). reg, when set, is observed into instead
	// of a fresh registry: the live plane's locked one.
	observe bool
	reg     *metrics.Registry
	only    []obs.Component
	// recordEvery, when positive, samples the registry into series from
	// start on.
	recordEvery time.Duration
	start       time.Time
	// provenance makes a recorder on the span stream (seed, stream).
	provenance bool
	seed       int64
	stream     uint64
	// bound keeps only the newest bound events and records; 0 keeps all.
	bound  int
	labels []metrics.Label
}

// newObserver builds the observer k describes.
func newObserver(k observeKnobs) observer {
	o := observer{labels: k.labels}
	if k.observe {
		o.reg = k.reg
		if o.reg == nil {
			o.reg = metrics.NewRegistry()
		}
		o.tracer = obs.NewTracer(k.bound, k.only...)
		if k.recordEvery > 0 {
			o.recorder = metrics.NewRecorder(o.reg, k.start, k.recordEvery)
		}
	}
	if k.provenance {
		o.prov = causal.NewBounded(k.seed, k.stream, k.bound)
	}
	return o
}

// freeze returns what the observer saw: the registry's snapshot, the trace,
// the recorded series and the provenance log, each nil when not observed.
// Take it once, after the run.
func (o *observer) freeze() FleetObservation {
	out := o.part()
	if out.prov != nil {
		out.Provenance, out.prov = &causal.Log{Records: out.prov.Records()}, nil
	}
	return out
}

// part is freeze for a fan-out shard, whose observation only
// mergeObservations reads: the provenance stays in the recorder, and the
// merge copies each record from there straight into the merged log.
func (o *observer) part() FleetObservation {
	out := FleetObservation{Trace: o.tracer, prov: o.prov}
	if o.reg != nil {
		out.Metrics = o.reg.Snapshot()
	}
	if o.recorder != nil {
		out.Series = o.recorder.Recording()
	}
	return out
}

// mergeObservations folds observations into one in argument order:
// snapshots and recordings merge, traces and provenance logs concatenate.
// metrics.Merge and MergeRecordings sum floats, so the order is part of the
// result; fan-outs pass their runs in shard or system order, never
// completion order. Nil observations and nil parts are skipped, and a part
// no observation carries stays nil.
func mergeObservations(parts ...*FleetObservation) *FleetObservation {
	snaps := make([]*metrics.Snapshot, 0, len(parts))
	tracers := make([]*obs.Tracer, 0, len(parts))
	recs := make([]*metrics.Recording, 0, len(parts))
	var provs []*FleetObservation
	records := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Metrics != nil {
			snaps = append(snaps, p.Metrics)
		}
		if p.Trace != nil {
			tracers = append(tracers, p.Trace)
		}
		recs = append(recs, p.Series)
		if p.Provenance != nil || p.prov != nil {
			provs = append(provs, p)
			records += p.Provenance.Len() + p.prov.Len()
		}
	}
	out := &FleetObservation{Series: metrics.MergeRecordings(recs...)}
	if len(snaps) > 0 {
		out.Metrics = metrics.Merge(snaps...)
	}
	if len(tracers) > 0 {
		out.Trace = obs.Concat(tracers...)
	}
	if len(provs) > 0 {
		merged := make([]causal.Record, 0, records)
		for _, p := range provs {
			if p.prov != nil {
				merged = p.prov.AppendSince(merged, 0)
			} else {
				merged = append(merged, p.Provenance.Records...)
			}
		}
		out.Provenance = &causal.Log{Records: merged}
	}
	return out
}

// FleetObservation is what a run observed: the metrics snapshot, the event
// trace, the recorded per-interval series and the causal decision log, each
// nil when the run did not observe it. A fan-out's observation merges its
// runs' in shard or system order, so it is byte-deterministic for a given
// seed regardless of worker count. The results of the chaos, cluster, live
// and zoo-cell drivers embed one.
type FleetObservation struct {
	Metrics *metrics.Snapshot
	Trace   *obs.Tracer
	// Series holds the recorded time series; nil unless RecordEvery was set.
	Series *metrics.Recording
	// Provenance is the causal decision log; a merged one concatenates the
	// runs' logs in shard order.
	Provenance *causal.Log

	// prov is a fan-out shard's provenance recorder (see observer.part),
	// standing in for Provenance, which it leaves nil, until the merge.
	prov *causal.Recorder
}

// WriteFiles writes what a run observed to the paths that are set: the
// metrics snapshot as Prometheus text exposition and the recorded series as
// CSV (each JSON when its path ends in .json), the event trace and the
// causal decision-provenance log as JSON Lines. Empty paths and nil parts
// are skipped; a nil observation writes nothing.
func (o *FleetObservation) WriteFiles(metricsPath, tracePath, seriesPath, provPath string) error {
	if o == nil {
		return nil
	}
	var err error
	if o.Metrics != nil {
		err = writeFile(metricsPath, jsonIf(metricsPath, o.Metrics.WriteJSON, o.Metrics.WriteProm))
	}
	if o.Trace != nil && err == nil {
		err = writeFile(tracePath, o.Trace.WriteJSONL)
	}
	if o.Series != nil && err == nil {
		err = writeFile(seriesPath, jsonIf(seriesPath, o.Series.WriteJSON, o.Series.WriteCSV))
	}
	if o.Provenance != nil && err == nil {
		err = writeFile(provPath, o.Provenance.WriteJSONL)
	}
	return err
}

// writeFile creates path and fills it with write. An empty path writes
// nothing.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// jsonIf returns asJSON when path ends in .json and text otherwise.
func jsonIf(path string, asJSON, text func(io.Writer) error) func(io.Writer) error {
	if strings.HasSuffix(path, ".json") {
		return asJSON
	}
	return text
}
