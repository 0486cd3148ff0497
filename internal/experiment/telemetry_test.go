package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/store"
)

// TestClusterRecordedSeries exercises the recording path of the cluster
// emulation: series appear, byte-stable across repeat runs, without
// perturbing the run's scientific results.
func TestClusterRecordedSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulation")
	}
	cfg := smokeClusterCfg(SysSmartOClock)
	plain, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observe = true
	cfg.RecordEvery = time.Minute
	run := func() (*ClusterResult, string) {
		res, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Series == nil || res.Series.Intervals() == 0 {
			t.Fatal("cluster run recorded no series")
		}
		var b strings.Builder
		if err := res.Series.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return res, b.String()
	}
	res1, csv1 := run()
	_, csv2 := run()
	if csv1 != csv2 {
		t.Error("recorded series differ across identical runs")
	}
	if plain.TotalEnergy != res1.TotalEnergy || plain.CapEvents != res1.CapEvents ||
		plain.OCRequests != res1.OCRequests {
		t.Errorf("recording changed results: %+v vs %+v", plain, res1)
	}
	if !strings.Contains(csv1, "rack_power_watts") {
		t.Errorf("recording missing rack power series:\n%.1000s", csv1)
	}
}

// TestChaosAlertsGolden pins the alert output of a shortened chaos run:
// the default rule set must fire deterministically (the run's rack limit
// makes warning bursts part of normal operation), and both the summarized
// table and the alert events on the trace are golden-checked byte for
// byte. Regenerate with -update.
func TestChaosAlertsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	cfg := DefaultChaosConfig()
	cfg.Duration = 45 * time.Minute
	cfg.GOAOutageStart = 10 * time.Minute
	cfg.GOAOutage = 10 * time.Minute
	cfg.SOACrashes = 3
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alerts) == 0 {
		t.Fatal("default rules fired no alerts on the chaos run")
	}
	var b strings.Builder
	b.WriteString(FormatAlerts(res.Alerts).Format())
	b.WriteString("--- events ---\n")
	var alertEvents []obs.Event
	for _, ev := range res.Trace.Events() {
		if ev.Component == obs.Alert {
			alertEvents = append(alertEvents, ev)
		}
	}
	if len(alertEvents) == 0 {
		t.Fatal("no alert events on the trace")
	}
	if err := obs.WriteEventsJSONL(&b, alertEvents); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chaos_alerts.golden", b.String())
}

// captureSink counts publications and keeps the latest snapshot.
type captureSink struct {
	snaps  int
	events int
	last   *metrics.Snapshot
}

func (c *captureSink) PublishSnapshot(s *metrics.Snapshot) { c.snaps++; c.last = s }
func (c *captureSink) PublishEvents(evs []obs.Event)       { c.events += len(evs) }

// stateSink additionally records durable-state publications, exercising the
// optional PublishState interface RunLive probes for.
type stateSink struct {
	captureSink
	states []store.StateInfo
}

func (c *stateSink) PublishState(info store.StateInfo) { c.states = append(c.states, info) }

// TestRunLiveSmoke boots the live networked mode flat out on loopback: the
// control plane must actually cross the TCP links (transport series appear
// on both nodes) and the sink must receive one snapshot per tick.
func TestRunLiveSmoke(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Duration = 10 * time.Minute
	cfg.Pace = 0
	cfg.Servers = 2
	sink := &captureSink{}
	res, err := RunLive(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	wantTicks := int(cfg.Duration / cfg.Tick)
	if res.Ticks != wantTicks || sink.snaps != wantTicks {
		t.Fatalf("ticks/snapshots = %d/%d, want %d", res.Ticks, sink.snaps, wantTicks)
	}
	if res.Requests == 0 {
		t.Fatal("live run made no overclock requests")
	}
	for _, node := range []string{"goa", "soa"} {
		s := sink.last.Find("transport_sends_total",
			map[string]string{"transport": "tcp", "node": node})
		if s == nil || s.Value == 0 {
			t.Fatalf("no TCP sends recorded on node %s", node)
		}
	}
	if sink.events == 0 {
		t.Fatal("no trace events published")
	}
}

// TestRunLiveCheckpointRestore runs live mode with periodic checkpointing,
// verifies the checkpoint file on disk is a valid envelope with the full
// control plane in it, then warm-starts a second run from it.
func TestRunLiveCheckpointRestore(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Duration = 10 * time.Minute
	cfg.Pace = 0
	cfg.Servers = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "state.json")
	cfg.CheckpointEvery = 2 * time.Minute

	sink := &stateSink{}
	res, err := RunLive(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	wantCkpts := int(cfg.Duration / cfg.CheckpointEvery)
	if res.Checkpoints != wantCkpts {
		t.Fatalf("checkpoints = %d, want %d", res.Checkpoints, wantCkpts)
	}
	if res.Restored {
		t.Fatal("first run claims to be restored")
	}

	// The sink saw the initial publication plus one per checkpoint, and the
	// final state matches the run's bookkeeping.
	if len(sink.states) != wantCkpts+1 {
		t.Fatalf("state publications = %d, want %d", len(sink.states), wantCkpts+1)
	}
	last := sink.states[len(sink.states)-1]
	if last.Writes != wantCkpts || last.CheckpointPath != cfg.CheckpointPath {
		t.Fatalf("final state info = %+v", last)
	}
	if last.LastBytes <= 0 || last.LastSavedAt.IsZero() {
		t.Fatalf("final state info missing save details: %+v", last)
	}

	// The checkpoint metrics made it into the published snapshot.
	writes := sink.last.Find("checkpoint_writes_total", nil)
	if writes == nil || writes.Value != float64(wantCkpts) {
		t.Fatalf("checkpoint_writes_total = %+v, want %d", writes, wantCkpts)
	}

	// The file on disk is a valid envelope holding the whole control plane.
	var cp store.Checkpoint
	savedAt, err := store.Load(cfg.CheckpointPath, &cp)
	if err != nil {
		t.Fatal(err)
	}
	if !savedAt.Equal(last.LastSavedAt) {
		t.Fatalf("file saved at %v, state info says %v", savedAt, last.LastSavedAt)
	}
	if cp.GOA == nil || len(cp.SOAs) != cfg.Servers || len(cp.Servers) != cfg.Servers {
		t.Fatalf("checkpoint incomplete: goa=%v soas=%d servers=%d",
			cp.GOA != nil, len(cp.SOAs), len(cp.Servers))
	}

	// Warm-start a second run from the checkpoint.
	cfg2 := cfg
	cfg2.CheckpointPath = ""
	cfg2.CheckpointEvery = 0
	cfg2.RestorePath = cfg.CheckpointPath
	sink2 := &stateSink{}
	res2, err := RunLive(cfg2, sink2)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Restored {
		t.Fatal("second run did not report a warm start")
	}
	if res2.Ticks != int(cfg2.Duration/cfg2.Tick) {
		t.Fatalf("restored run ticks = %d", res2.Ticks)
	}
	if len(sink2.states) == 0 {
		t.Fatal("restored run published no state info")
	}
	first := sink2.states[0]
	if first.RestoredFrom != cfg2.RestorePath || !first.RestoredAt.Equal(savedAt) {
		t.Fatalf("restored state info = %+v", first)
	}

	// A corrupt checkpoint must fail the run, not silently cold-start.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg3 := cfg2
	cfg3.RestorePath = bad
	if _, err := RunLive(cfg3, &stateSink{}); err == nil {
		t.Fatal("restore from corrupt file succeeded")
	}
}
