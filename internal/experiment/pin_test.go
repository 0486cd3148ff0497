package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/api"
)

// The pin tests freeze the byte output of the four rack control-plane
// drivers (zoo, recovery, chaos, live). The determinism suites only prove a
// run agrees with *itself* across worker counts; a refactor that reorders
// span draws or message batches would pass them while changing every byte.
// These goldens make such a change a diff. Large artifacts (provenance and
// trace JSONL, metrics exposition, checkpoint files) are pinned by SHA-256.

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestZooSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo matrix")
	}
	cfg := DefaultZooConfig()
	cfg.Duration = 20 * time.Minute
	res, err := RunZoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prov bytes.Buffer
	if err := res.ProvenanceLog().WriteJSONL(&prov); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "zoo_smoke.golden",
		res.Format()+fmt.Sprintf("provenance records %d sha256 %s\n", res.ProvenanceLog().Len(), sha256Hex(prov.Bytes())))
}

func TestRecoverySmokeGolden(t *testing.T) {
	res, err := RunRecovery(DefaultRecoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "recovery_smoke.golden", res.Format())
}

// TestChaosSmokeGolden pins both restart flavours of the chaos rig: cold
// reboots and checkpoint-restored warm ones.
func TestChaosSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs")
	}
	var b strings.Builder
	for _, warm := range []bool{false, true} {
		cfg := DefaultChaosConfig()
		cfg.Duration = 45 * time.Minute
		cfg.GOAOutageStart = 10 * time.Minute
		cfg.GOAOutage = 10 * time.Minute
		cfg.SOACrashes = 3
		if warm {
			cfg.WarmRestart = true
			cfg.CheckpointEvery = 2 * time.Minute
		}
		res, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prom, trace bytes.Buffer
		if err := res.Metrics.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "--- warm=%v ---\n%smetrics sha256 %s\ntrace events %d sha256 %s\n",
			warm, res.Format(), sha256Hex(prom.Bytes()), len(res.Trace.Events()), sha256Hex(trace.Bytes()))
	}
	checkGolden(t, "chaos_smoke.golden", b.String())
}

// TestLiveSmokeGolden drives one scripted hold-mode live run — background
// ticks, an injected sOA fault, an API deployment with its own overclock
// session — and pins the final forced checkpoint. Hold mode makes the run a
// pure function of the script: every tick drains exactly what the previous
// one sent.
func TestLiveSmokeGolden(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "state.json")
	h := startLiveHarness(t, func(cfg *LiveConfig) {
		cfg.Seed = 3
		cfg.CheckpointPath = ckptPath
		cfg.CheckpointEvery = time.Minute
	})
	ctx := context.Background()
	admin, op, chaosbot := h.client("tok-admin"), h.client("tok-operate"), h.client("tok-chaos")
	advance := func(n int) {
		t.Helper()
		adv, err := admin.Advance(ctx, api.AdvanceSpec{Ticks: n})
		if err != nil {
			t.Fatal(err)
		}
		if adv.Ticks != n {
			t.Fatalf("advanced %d ticks, want %d", adv.Ticks, n)
		}
	}

	advance(30)
	if _, err := chaosbot.SetChaos(ctx, api.ChaosSpec{Agent: "lv-01", Down: true}); err != nil {
		t.Fatal(err)
	}
	advance(30)
	if _, err := chaosbot.SetChaos(ctx, api.ChaosSpec{Agent: "lv-01", Down: false}); err != nil {
		t.Fatal(err)
	}
	if _, err := op.RegisterDeployment(ctx, api.DeploymentSpec{Name: "pin", Server: "lv-02", Cores: 2, Util: 0.6}); err != nil {
		t.Fatal(err)
	}
	if _, err := op.StartOverclock(ctx, api.OCSpec{Server: "lv-02", VM: "pin"}); err != nil {
		t.Fatal(err)
	}
	advance(60)

	cp, err := admin.ForceCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	st := statusOf(t, h.client("tok-read"))
	res := h.stop(t)
	checkGolden(t, "live_smoke.golden", res.Format()+
		fmt.Sprintf("chaos dropped %d\ncheckpoint bytes %d sha256 %s\n", st.ChaosDropped, len(data), sha256Hex(data)))
}
