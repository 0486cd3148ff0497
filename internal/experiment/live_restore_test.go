package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smartoclock/internal/api"
	"smartoclock/internal/store"
)

// forceCheckpoint advances a held run by ticks (none when zero), forces a
// checkpoint and returns the file's bytes.
func forceCheckpoint(t *testing.T, h *liveHarness, ticks int) []byte {
	t.Helper()
	ctx := context.Background()
	admin := h.client("tok-admin")
	if ticks > 0 {
		if _, err := admin.Advance(ctx, api.AdvanceSpec{Ticks: ticks}); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := admin.ForceCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// payloadOf returns a checkpoint envelope's payload bytes.
func payloadOf(t *testing.T, data []byte) []byte {
	t.Helper()
	var env store.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return env.Payload
}

// TestLiveWarmStartResumesTimeline: a warm-started live run continues the
// checkpointed run's timeline rather than replaying it from Start. Its first
// tick is one Tick after the saved instant, so the restored sOAs' clocks move
// forward, and the one-minute profile slot that was due when the checkpoint
// was taken closes a minute into the restored run.
func TestLiveWarmStartResumesTimeline(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultLiveConfig()
	cfg.Duration = 10 * time.Minute
	cfg.Pace = 0
	cfg.Servers = 2
	cfg.CheckpointPath = filepath.Join(dir, "first.json")
	cfg.CheckpointEvery = cfg.Duration
	if _, err := RunLive(cfg, nil); err != nil {
		t.Fatal(err)
	}
	var saved store.Checkpoint
	savedAt, err := store.Load(cfg.CheckpointPath, &saved)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Start.Add(cfg.Duration); !savedAt.Equal(want) {
		t.Fatalf("checkpoint saved at %v, want the last tick %v", savedAt, want)
	}

	h := startLiveHarness(t, func(c *LiveConfig) {
		c.Servers = cfg.Servers
		c.RestorePath = cfg.CheckpointPath
		c.CheckpointPath = filepath.Join(dir, "second.json")
	})
	const ticks = 12 // one profile step
	adv, err := h.client("tok-admin").Advance(context.Background(), api.AdvanceSpec{Ticks: ticks})
	if err != nil {
		t.Fatal(err)
	}
	if want := savedAt.Add((ticks + 1) * cfg.Tick); !adv.Now.Equal(want) {
		t.Fatalf("after %d restored ticks the clock is at %v, want %v", ticks, adv.Now, want)
	}
	var got store.Checkpoint
	if _, err := store.Decode(forceCheckpoint(t, h, 0), &got); err != nil {
		t.Fatal(err)
	}
	lastTick := savedAt.Add(ticks * cfg.Tick)
	for name, before := range saved.SOAs {
		after := got.SOAs[name]
		if after == nil {
			t.Fatalf("restored run lost sOA %s", name)
		}
		if !after.LastTick.Equal(lastTick) {
			t.Errorf("%s: last tick %v, want %v", name, after.LastTick, lastTick)
		}
		if !after.NextSlotAt.After(before.NextSlotAt) {
			t.Errorf("%s: profile slot due at %v never closed (next slot %v at %v)",
				name, before.NextSlotAt, after.NextSlotAt, lastTick)
		}
	}
}

// TestLiveWarmStartIsLossless: restoring a live checkpoint and checkpointing
// again before any tick yields the payload it restored from, byte for byte —
// gOA, sOAs with their ledgers, and the servers' cap and wear state. A
// checkpoint without a gOA still warm-starts the sOAs and servers, and the
// gOA starts cold.
func TestLiveWarmStartIsLossless(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	h := startLiveHarness(t, func(c *LiveConfig) { c.CheckpointPath = first })
	// Past the first profile reports (tick 24) and the first budget push
	// they fund (tick 36), so every part of the plane holds state.
	data := forceCheckpoint(t, h, 40)
	h.stop(t)
	want := payloadOf(t, data)

	t.Run("full", func(t *testing.T) {
		h := startLiveHarness(t, func(c *LiveConfig) {
			c.RestorePath = first
			c.CheckpointPath = filepath.Join(t.TempDir(), "again.json")
		})
		if got := payloadOf(t, forceCheckpoint(t, h, 0)); !bytes.Equal(got, want) {
			t.Fatalf("warm start is lossy:\n--- restored from ---\n%s\n--- checkpointed again ---\n%s", want, got)
		}
	})

	t.Run("no gOA", func(t *testing.T) {
		var cp store.Checkpoint
		savedAt, err := store.Decode(data, &cp)
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.GOA.Profiles) == 0 {
			t.Fatal("source checkpoint's gOA holds no profiles; the cold start would show nothing")
		}
		cp.GOA = nil
		noGOA := filepath.Join(t.TempDir(), "no-goa.json")
		if err := store.Save(noGOA, savedAt, &cp); err != nil {
			t.Fatal(err)
		}
		h := startLiveHarness(t, func(c *LiveConfig) {
			c.RestorePath = noGOA
			c.CheckpointPath = filepath.Join(t.TempDir(), "again.json")
		})
		var got store.Checkpoint
		if _, err := store.Decode(forceCheckpoint(t, h, 0), &got); err != nil {
			t.Fatal(err)
		}
		if got.GOA == nil || len(got.GOA.Profiles) != 0 || got.GOA.Rack != "rack-live" {
			t.Fatalf("gOA = %+v, want a cold rack-live gOA", got.GOA)
		}
		for _, part := range []struct {
			name      string
			got, want any
		}{{"sOAs", got.SOAs, cp.SOAs}, {"servers", got.Servers, cp.Servers}} {
			if g, w := mustJSON(t, part.got), mustJSON(t, part.want); !bytes.Equal(g, w) {
				t.Errorf("%s not warm-started:\n--- checkpoint ---\n%s\n--- restored ---\n%s", part.name, w, g)
			}
		}
	})
}

// TestLiveForcedCheckpointStampsLastTick: a checkpoint forced between ticks
// is stamped with the last tick run, not the next one due, so a warm start
// from it resumes exactly one Tick later. After 40 held ticks the stamp is
// the sOAs' last tick, and the restored run's first tick sees a one-Tick dt.
func TestLiveForcedCheckpointStampsLastTick(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	h := startLiveHarness(t, func(c *LiveConfig) { c.CheckpointPath = first })
	var saved store.Checkpoint
	savedAt, err := store.Decode(forceCheckpoint(t, h, 40), &saved)
	if err != nil {
		t.Fatal(err)
	}
	h.stop(t)
	tick := DefaultLiveConfig().Tick
	if want := DefaultLiveConfig().Start.Add(40 * tick); !savedAt.Equal(want) {
		t.Fatalf("checkpoint forced after 40 ticks stamped %v, want the 40th tick %v", savedAt, want)
	}

	h = startLiveHarness(t, func(c *LiveConfig) {
		c.RestorePath = first
		c.CheckpointPath = filepath.Join(dir, "second.json")
	})
	var got store.Checkpoint
	if _, err := store.Decode(forceCheckpoint(t, h, 1), &got); err != nil {
		t.Fatal(err)
	}
	for name, before := range saved.SOAs {
		if !before.LastTick.Equal(savedAt) {
			t.Errorf("%s: checkpointed sOA last ticked at %v, stamp %v", name, before.LastTick, savedAt)
		}
		if dt := got.SOAs[name].LastTick.Sub(before.LastTick); dt != tick {
			t.Errorf("%s: first restored tick saw dt %v, want one Tick %v", name, dt, tick)
		}
	}
}
