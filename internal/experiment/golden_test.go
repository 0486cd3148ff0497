package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests snapshot the formatted experiment tables at smoke scale.
// Any change to trace generation, seed derivation, agent behavior or table
// formatting shows up as a readable diff against testdata/. Regenerate
// intentionally with:
//
//	go test ./internal/experiment -run Golden -update

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting the file
// when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update if the change is intended):\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	tbl, _, err := RunTable1(smokeFleetCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1_smoke.golden", tbl.Format())
}

// TestAblationGolden pins the three design-choice ablation tables at two
// racks per class, so every sweep runs more than one rack unit.
func TestAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	cfg := smokeFleetCfg()
	cfg.RacksPerClass = 2
	var got string
	for _, run := range []func(FleetSimConfig) (*Table, error){
		RunAblationTemplates, RunAblationExploreStep, RunAblationWarnThreshold,
	} {
		tbl, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got += tbl.Format()
	}
	checkGolden(t, "ablation_smoke.golden", got)
}

func TestFig12To14Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster emulation x4")
	}
	fig12, fig13, fig14, _, err := RunFig12To14(smokeClusterCfg(SysBaseline))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig12_14_smoke.golden", fig12.Format()+fig13.Format()+fig14.Format())
}
