package experiment

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"smartoclock/internal/baselines"
	"smartoclock/internal/trace"
)

// rackPrepFingerprint serializes everything a rackPrep shares across the
// systems run over it: the rack trace, every power and overclock template
// slot, every demand value and every budget template.
func rackPrepFingerprint(t *testing.T, p *rackPrep) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Rack     *trace.RackTrace
		Ticks    int
		Demands  [][]int
		Profiles any
		Budgets  any
	}{p.rt, p.ticks, p.demands, p.profiles, p.budgetTpls})
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(b)
}

// renderShard serializes one run's metrics and, when observed, its metrics
// exposition, event trace, provenance log and recorded series.
func renderShard(t *testing.T, o shardOut) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", o.m)
	if o.snap == nil {
		return b.String()
	}
	if err := o.snap.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if err := o.tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if err := o.prov.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(o.rec)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(rec)
	return b.String()
}

// TestRackPrepSharedAcrossSystems guards the Table I unit: one rackPrep
// serves all five systems, so no system may write to it and no system's
// result may depend on which others ran over it first. For one rack per
// class, observed and not, every system's output over the shared prep —
// systems run forwards, then backwards over the same prep — must equal the
// output of that system alone on a freshly generated and prepared rack, and
// the prep must be unchanged at the end.
func TestRackPrepSharedAcrossSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulations")
	}
	systems := baselines.All()
	for _, observe := range []bool{false, true} {
		t.Run(fmt.Sprintf("observe=%v", observe), func(t *testing.T) {
			t.Parallel()
			cfg := smokeFleetCfg()
			cfg.Observe = observe
			cfg.RecordEvery = 2 * cfg.Step
			for ci, class := range []trace.ClusterClass{trace.HighPower, trace.MediumPower, trace.LowPower} {
				fcfg := table1FleetConfig(cfg, class, ci)
				// A third of Table I's rack keeps every mechanism in play
				// and the test affordable under the race detector.
				fcfg.RackTemplate.Servers = 10
				gen := func() *trace.RackTrace {
					fr, err := trace.GenFleetRack(fcfg, 0)
					if err != nil {
						t.Fatal(err)
					}
					return fr.RackTrace
				}
				// The flattened (class, system, rack) index at one rack per
				// class, as runTable1 assigns it.
				shard := func(si int) int { return ci*len(systems) + si }
				alone := make([]string, len(systems))
				for si, sys := range systems {
					alone[si] = renderShard(t, runSystem(prepareRack(gen(), cfg), sys, cfg, class.String(), shard(si)))
				}
				prep := prepareRack(gen(), cfg)
				before := rackPrepFingerprint(t, prep)
				for _, reversed := range []bool{false, true} {
					for k := range systems {
						si := k
						if reversed {
							si = len(systems) - 1 - k
						}
						got := renderShard(t, runSystem(prep, systems[si], cfg, class.String(), shard(si)))
						if got != alone[si] {
							t.Errorf("%s %s (reversed=%v): shared-prep output differs from a fresh prep", class, systems[si], reversed)
						}
					}
				}
				if after := rackPrepFingerprint(t, prep); after != before {
					t.Errorf("%s: running the systems modified the shared rack prep", class)
				}
			}
		})
	}
}
