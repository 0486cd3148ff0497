package cluster

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/machine"
)

// wornServer returns a 4-core server that ran a minute with core 0
// overclocked at full load and was then capped one level.
func wornServer(name string) *Server {
	hw := machine.DefaultConfig()
	hw.Cores = 4
	s := NewServer(name, hw, 0)
	s.SetCoreUtil(0, 1)
	s.SetCoreUtil(1, 0.3)
	s.SetDesiredFreq(0, hw.MaxOCMHz)
	s.Advance(time.Minute)
	s.ForceCap(1)
	return s
}

// TestSnapshotRestoreRoundtrip restores a worn server's snapshot into a
// fresh one: the wear counters, capping and desired frequencies come back,
// and the fresh server's snapshot marshals to the same bytes.
func TestSnapshotRestoreRoundtrip(t *testing.T) {
	src := wornServer("s0")
	dst := NewServer("s0", src.Machine().Config(), 0)
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(src.Snapshot())
	got, _ := json.Marshal(dst.Snapshot())
	if string(got) != string(want) {
		t.Fatalf("restored snapshot %s, want %s", got, want)
	}
	if !strings.Contains(string(want), `"wear":[{"aged":`) || dst.Machine().Elapsed() != time.Minute {
		t.Fatalf("snapshot %s lost the per-core wear counters", want)
	}
}

// TestRestoreRejectsDisagreeingElapsed feeds Restore a snapshot whose cores
// disagree on elapsed time. A machine's cores observe one clock, so the
// snapshot cannot come from a server; Restore must fail and leave every
// piece of the server's state as it was.
func TestRestoreRejectsDisagreeingElapsed(t *testing.T) {
	s := wornServer("s0")
	before, _ := json.Marshal(s.Snapshot())
	st := wornServer("s0").Snapshot()
	st.CapLevel = 3
	st.Desired[1] = s.MaxOCMHz()
	st.Wear[0].Aged = 0
	st.Wear[2].Elapsed += time.Second
	if err := s.Restore(st); err == nil {
		t.Fatal("Restore accepted cores that disagree on elapsed time")
	}
	if after, _ := json.Marshal(s.Snapshot()); string(after) != string(before) {
		t.Fatalf("failed Restore changed state:\nbefore %s\nafter  %s", before, after)
	}
	if s.EffectiveFreq(1) != s.TurboMHz() {
		t.Fatalf("failed Restore applied core 1 at %d MHz", s.EffectiveFreq(1))
	}
}
