package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/timeseries"
)

var t0 = time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)

// buildCheckpoint assembles a representative checkpoint: a profiled gOA,
// one exercised sOA with sessions and ledger, and one server with wear.
func buildCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	g := core.NewGOA("rack-0", 6000)
	g.SetProfile("s0", core.ServerProfile{Power: timeseries.FlatWeek(250, time.Hour), OCCoreCost: 3.2})
	g.SetProfile("s1", core.ServerProfile{Power: timeseries.FlatWeek(310, time.Hour), OCCoreCost: 3.2})

	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	srv := cluster.NewServer("s0", mcfg, 0)
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), mcfg.Cores, t0)
	soa := core.NewSOA(core.DefaultSOAConfig(), srv, budgets, 400, t0)
	for i := 0; i < mcfg.Cores; i++ {
		srv.SetCoreUtil(i, 0.6)
	}
	if d := soa.Request(t0, core.Request{VM: "vm1", Cores: 2, TargetMHz: 4000, Priority: core.PriorityMetric}); !d.Granted {
		t.Fatalf("setup grant failed: %+v", d)
	}
	for i := 0; i < 20; i++ {
		now := t0.Add(time.Duration(i) * time.Minute)
		soa.Tick(now)
		srv.Advance(time.Minute)
	}
	return &Checkpoint{
		GOA:     g.Snapshot(),
		SOAs:    map[string]*core.SOAState{"s0": soa.Snapshot()},
		Servers: map[string]*cluster.ServerState{"s0": srv.Snapshot()},
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	cp := buildCheckpoint(t)
	data, err := Encode(t0.Add(20*time.Minute), cp)
	if err != nil {
		t.Fatal(err)
	}

	var got Checkpoint
	at, err := Decode(data, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !at.Equal(t0.Add(20 * time.Minute)) {
		t.Fatalf("SavedAt = %v", at)
	}

	// Re-encoding the decoded checkpoint must be byte-identical: the wire
	// form is deterministic and lossless.
	data2, err := Encode(t0.Add(20*time.Minute), &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("roundtrip not byte-identical:\n%s\nvs\n%s", data, data2)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	cp := buildCheckpoint(t)
	a, err := Encode(t0, cp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(t0, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same state encoded to different bytes")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(t0, &Checkpoint{GOA: core.NewGOA("r", 100).Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the checksum must catch it. Find a digit in
	// the payload (mutating structural JSON would fail the envelope parse
	// instead, which is a different guard).
	idx := bytes.Index(data, []byte(`"limit":100`))
	if idx < 0 {
		t.Fatalf("payload layout changed: %s", data)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[idx+len(`"limit":`)] = '9'
	var cp Checkpoint
	if _, err := Decode(corrupt, &cp); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestDecodeRejectsBadMagicAndVersion(t *testing.T) {
	data, err := Encode(t0, &Checkpoint{})
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}

	env.Magic = "NOTSTATE"
	bad, _ := json.Marshal(env)
	var cp Checkpoint
	if _, err := Decode(bad, &cp); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not detected: %v", err)
	}

	env.Magic = Magic
	for _, v := range []int{Version - 1, Version + 1} {
		env.Version = v
		bad, _ = json.Marshal(env)
		if _, err := Decode(bad, &cp); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d mismatch not detected: %v", v, err)
		}
	}

	if _, err := Decode([]byte("not json"), &cp); err == nil {
		t.Fatal("garbage not detected")
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	cp := buildCheckpoint(t)
	if err := Save(path, t0, cp); err != nil {
		t.Fatal(err)
	}

	var got Checkpoint
	at, err := Load(path, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !at.Equal(t0) {
		t.Fatalf("SavedAt = %v", at)
	}
	want, _ := Encode(t0, cp)
	have, _ := Encode(t0, &got)
	if !bytes.Equal(want, have) {
		t.Fatal("loaded checkpoint differs from saved")
	}

	// Overwrite is atomic: a second Save replaces the file, and no temp
	// files are left behind.
	if err := Save(path, t0.Add(time.Hour), cp); err != nil {
		t.Fatal(err)
	}
	if at, err := Load(path, &got); err != nil || !at.Equal(t0.Add(time.Hour)) {
		t.Fatalf("overwrite: at=%v err=%v", at, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1 (no temp litter)", len(entries))
	}
}

func TestLoadMissingFile(t *testing.T) {
	var cp Checkpoint
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json"), &cp); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestRestoredAgentsFromCheckpoint exercises the full path: snapshot a rig
// into a checkpoint, encode, decode, restore fresh agents, and verify the
// restored rig re-snapshots byte-identically.
func TestRestoredAgentsFromCheckpoint(t *testing.T) {
	cp := buildCheckpoint(t)
	data, err := Encode(t0, cp)
	if err != nil {
		t.Fatal(err)
	}
	var got Checkpoint
	if _, err := Decode(data, &got); err != nil {
		t.Fatal(err)
	}

	g := core.NewGOA("fresh", 1)
	g.Restore(got.GOA)

	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	srv := cluster.NewServer("s0", mcfg, 0)
	if err := srv.Restore(got.Servers["s0"]); err != nil {
		t.Fatal(err)
	}
	budgets := lifetime.NewCoreBudgets(lifetime.DefaultBudgetConfig(), mcfg.Cores, t0)
	soa := core.NewSOA(core.DefaultSOAConfig(), srv, budgets, 400, t0)
	if err := soa.Restore(got.SOAs["s0"]); err != nil {
		t.Fatal(err)
	}

	re := &Checkpoint{
		GOA:     g.Snapshot(),
		SOAs:    map[string]*core.SOAState{"s0": soa.Snapshot()},
		Servers: map[string]*cluster.ServerState{"s0": srv.Snapshot()},
	}
	redata, err := Encode(t0, re)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, redata) {
		t.Fatalf("restored rig re-snapshot differs:\n%s\nvs\n%s", data, redata)
	}
}
