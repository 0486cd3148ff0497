package experiment

import (
	"context"
	"reflect"
	"testing"
	"time"

	"smartoclock/internal/api"
	"smartoclock/internal/causal"
	"smartoclock/internal/obs"
)

// publishLog is a LiveSink that keeps every event and provenance record it
// is handed. The run reuses the slices it publishes, so it copies them.
type publishLog struct {
	captureSink
	events  []obs.Event
	records []causal.Record
}

func (p *publishLog) PublishEvents(evs []obs.Event) {
	p.captureSink.PublishEvents(evs)
	p.events = append(p.events, evs...)
}

func (p *publishLog) PublishProvenance(recs []causal.Record) { p.records = append(p.records, recs...) }

// droppedCount reads one of the live registry's drop counters from the
// run's final snapshot.
func droppedCount(t *testing.T, res *LiveResult, name string) int {
	t.Helper()
	s := res.Metrics.Find(name, nil)
	if s == nil {
		t.Fatalf("final snapshot has no %s", name)
	}
	return int(s.Value)
}

// TestLivePublishesEveryRecordOnce runs flat out long enough to wrap both
// rings many times over. The sink must have received every event and every
// provenance record exactly once, in order: as many as were ever emitted
// (held + dropped), ending with exactly what the rings still hold.
func TestLivePublishesEveryRecordOnce(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Pace = 0
	cfg.Servers = 16
	cfg.Duration = 3 * time.Hour
	sink := &publishLog{}
	res, err := RunLive(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations", res.Violations)
	}

	held := res.Provenance.Records
	dropped := droppedCount(t, res, "causal_dropped_total")
	if len(held) != liveRing || dropped == 0 {
		t.Fatalf("provenance ring holds %d and dropped %d: the run never wrapped it", len(held), dropped)
	}
	if got, want := len(sink.records), len(held)+dropped; got != want {
		t.Fatalf("sink received %d records, the run emitted %d", got, want)
	}
	if tail := sink.records[len(sink.records)-len(held):]; !reflect.DeepEqual(tail, held) {
		t.Fatal("the last records the sink received differ from the ones the run holds")
	}
	spans := make(map[causal.SpanID]bool, len(sink.records))
	for i, r := range sink.records {
		if spans[r.Span] {
			t.Fatalf("record %d: span %v published twice", i, r.Span)
		}
		spans[r.Span] = true
	}

	evs := res.Trace.Events()
	if res.Trace.Dropped() == 0 {
		t.Fatalf("trace ring holds %d events and dropped none: the run never wrapped it", len(evs))
	}
	if got, want := uint64(len(sink.events)), res.Trace.Total(); got != want {
		t.Fatalf("sink received %d events, the run emitted %d", got, want)
	}
	if tail := sink.events[len(sink.events)-len(evs):]; !reflect.DeepEqual(tail, evs) {
		t.Fatal("the last events the sink received differ from the ones the run holds")
	}
	if got := droppedCount(t, res, "trace_dropped_total"); got != int(res.Trace.Dropped()) {
		t.Fatalf("trace_dropped_total = %d, tracer dropped %d", got, res.Trace.Dropped())
	}
}

// runHeld plays one held live run of the given number of ticks through the
// controller, publishing into a fresh publishLog.
func runHeld(t *testing.T, cfg LiveConfig, ticks int) (*LiveResult, *publishLog) {
	t.Helper()
	ctrl := NewLiveController()
	cfg.Control, cfg.Hold = ctrl, true
	sink := &publishLog{}
	type outcome struct {
		res *LiveResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunLive(cfg, sink)
		done <- outcome{res, err}
	}()
	ctx := context.Background()
	adv, err := ctrl.Advance(ctx, api.AdvanceSpec{Ticks: ticks})
	if err == nil && adv.Ticks != ticks {
		t.Errorf("advanced %d ticks, want %d", adv.Ticks, ticks)
	}
	if serr := ctrl.Shutdown(ctx); err == nil {
		err = serr
	}
	out := <-done
	if err != nil || out.err != nil {
		t.Fatalf("advance/shutdown: %v, run: %v", err, out.err)
	}
	return out.res, sink
}

// TestLiveTraceRingBounded holds the live event trace to liveRing events
// however long the run: held runs of N and 4N ticks (N already wraps the
// ring) hold the same number of events, and the dropped counts differ by
// exactly the extra events the longer run emitted. Hold mode makes the
// shorter run's published events a prefix of the longer run's.
func TestLiveTraceRingBounded(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Pace = 0
	cfg.Servers = 16
	const n = 1500
	cfg.Duration = 5 * n * cfg.Tick
	short, shortSink := runHeld(t, cfg, n)
	long, longSink := runHeld(t, cfg, 4*n)

	for _, run := range []struct {
		name string
		res  *LiveResult
		sink *publishLog
	}{{"N", short, shortSink}, {"4N", long, longSink}} {
		tr := run.res.Trace
		if tr.Len() != liveRing || tr.Dropped() == 0 {
			t.Fatalf("%s ticks: trace holds %d events and dropped %d, want a full %d-event ring",
				run.name, tr.Len(), tr.Dropped(), liveRing)
		}
		if got := droppedCount(t, run.res, "trace_dropped_total"); got != int(tr.Dropped()) {
			t.Fatalf("%s ticks: trace_dropped_total = %d, tracer dropped %d", run.name, got, tr.Dropped())
		}
		if got := uint64(len(run.sink.events)); got != tr.Total() {
			t.Fatalf("%s ticks: sink received %d events, tracer emitted %d", run.name, got, tr.Total())
		}
	}
	extra := len(longSink.events) - len(shortSink.events)
	if got := int(long.Trace.Dropped() - short.Trace.Dropped()); extra <= 0 || got != extra {
		t.Fatalf("the 4N-tick run emitted %d more events but dropped %d more", extra, got)
	}
	if !reflect.DeepEqual(longSink.events[:len(shortSink.events)], shortSink.events) {
		t.Fatal("the N-tick run's events are not a prefix of the 4N-tick run's")
	}
}
