package experiment

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

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
	if o.ob.Metrics == nil {
		return b.String()
	}
	if err := o.ob.Metrics.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if err := o.ob.Trace.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if err := o.ob.Provenance.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(o.ob.Series)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(rec)
	return b.String()
}

// prepCase is one unit's runs over one generated rack and the number of
// distinct preps they need.
type prepCase struct {
	name  string
	fcfg  trace.FleetConfig
	runs  []unitRun
	preps int
}

// TestRackPrepSharedAcrossSystems guards the streamed unit: one rackPrep
// serves every run whose config has its prepKey, so no run may write to it
// and no run's result may depend on which others ran over it first. The
// cases are Table I's unit for one rack per class (five systems over the
// base config) and one unit holding every ablation variant (the explore-step
// and warn variants share the base prep; each template strategy has its
// own), observed and not. Every run over its shared prep — runs forwards,
// then backwards — must equal that run alone on a freshly generated and
// prepared rack, and every prep must be unchanged at the end.
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
			var cases []prepCase
			for ci, class := range []trace.ClusterClass{trace.HighPower, trace.MediumPower, trace.LowPower} {
				// The flattened (class, system, rack) index at one rack per
				// class, as runTable1 assigns it.
				c := prepCase{name: class.String(), fcfg: table1FleetConfig(cfg, class, ci), preps: 1}
				for si, sys := range systems {
					c.runs = append(c.runs, unitRun{cfg: &cfg, sys: sys, shard: ci*len(systems) + si})
				}
				cases = append(cases, c)
			}
			abl := prepCase{name: "ablations", fcfg: highPowerFleetConfig(cfg), preps: 6}
			for _, a := range []*ablation{templateAblation(cfg), exploreStepAblation(cfg), warnAblation(cfg)} {
				for v := range a.variants {
					abl.runs = append(abl.runs, unitRun{cfg: &a.variants[v], sys: a.sys, shard: len(abl.runs)})
				}
			}
			cases = append(cases, abl)
			for _, c := range cases {
				// A third of Table I's rack keeps every mechanism in play
				// and the test affordable under the race detector.
				c.fcfg.RackTemplate.Servers = 10
				gen := func() *trace.FleetRack {
					fr, err := trace.GenFleetRack(c.fcfg, 0)
					if err != nil {
						t.Fatal(err)
					}
					return fr
				}
				alone := make([]string, len(c.runs))
				for k, run := range c.runs {
					fr := gen()
					prep := prepareRack(fr.RackTrace, run.cfg.prepKey())
					alone[k] = renderShard(t, runSystem(prep, run.sys, *run.cfg, fr.Class.String(), run.shard))
				}
				fr := gen()
				preps := map[prepKey]*rackPrep{}
				before := map[prepKey]string{}
				for _, run := range c.runs {
					if key := run.cfg.prepKey(); preps[key] == nil {
						preps[key] = prepareRack(fr.RackTrace, key)
						before[key] = rackPrepFingerprint(t, preps[key])
					}
				}
				if len(preps) != c.preps {
					t.Errorf("%s: %d distinct preps, want %d", c.name, len(preps), c.preps)
				}
				for _, reversed := range []bool{false, true} {
					for i := range c.runs {
						k := i
						if reversed {
							k = len(c.runs) - 1 - i
						}
						run := c.runs[k]
						got := renderShard(t, runSystem(preps[run.cfg.prepKey()], run.sys, *run.cfg, fr.Class.String(), run.shard))
						if got != alone[k] {
							t.Errorf("%s run %d (%s, reversed=%v): shared-prep output differs from a fresh prep", c.name, k, run.sys, reversed)
						}
					}
				}
				for key, p := range preps {
					if rackPrepFingerprint(t, p) != before[key] {
						t.Errorf("%s: running over the shared prep for %+v modified it", c.name, key)
					}
				}
			}
		})
	}
}

// TestFillDemandNoAllocs holds per-tick demand at zero allocations: each
// tick is decomposed once into a trace.Clock that every VM reads.
func TestFillDemandNoAllocs(t *testing.T) {
	cfg := smokeFleetCfg()
	rcfg := trace.DefaultRackGenConfig("r", fleetStart, 24*time.Hour)
	rcfg.Servers = 2
	rt, err := trace.GenRack(rcfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, 24*int(time.Hour/cfg.Step))
	key := cfg.prepKey()
	if n := testing.AllocsPerRun(20, func() { fillDemand(out, rt.Servers[0], key, fleetStart) }); n != 0 {
		t.Fatalf("fillDemand allocates %.1f objects per call", n)
	}
}
