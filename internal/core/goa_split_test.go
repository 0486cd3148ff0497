package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

// randomTemplate builds a WeekTemplate with independent random hourly
// slots in [lo, hi).
func randomTemplate(rng *rand.Rand, lo, hi float64) *timeseries.WeekTemplate {
	day := func(kind timeseries.DayKind) *timeseries.DayTemplate {
		slots := make([]float64, 24)
		for i := range slots {
			slots[i] = lo + (hi-lo)*rng.Float64()
		}
		return &timeseries.DayTemplate{Step: time.Hour, Kind: kind, Slots: slots}
	}
	return &timeseries.WeekTemplate{Weekday: day(timeseries.Weekdays), Weekend: day(timeseries.Weekends)}
}

// splitRack is a random rack for the budget-split tests: its profiles and
// the rack limit, and whether no server has overclock need.
type splitRack struct {
	profiles map[string]ServerProfile
	limit    float64
	noNeed   bool
}

// randomSplitRack draws the rack of seed. Limits straddle the rack's
// regular draw, so slots land on both sides of the no-headroom line;
// seed%5 == 0 leaves no limit at all and seed%4 == 0 no overclock need.
// Some servers lack a power or an overclock template.
func randomSplitRack(seed int64) splitRack {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(8)
	r := splitRack{profiles: make(map[string]ServerProfile, n), noNeed: seed%4 == 0}
	var maxRegular float64
	for i := 0; i < n; i++ {
		p := ServerProfile{OCCoreCost: 5 + 10*rng.Float64()}
		if rng.Intn(6) > 0 {
			p.Power = randomTemplate(rng, 50, 400)
			maxRegular += 400
		}
		switch {
		case r.noNeed:
			p.OC = &predict.OCTemplate{Requested: flatTemplate(0), Granted: flatTemplate(0)}
		case rng.Intn(6) > 0:
			p.OC = &predict.OCTemplate{Requested: randomTemplate(rng, 0, 8), Granted: randomTemplate(rng, 0, 4)}
		}
		r.profiles[fmt.Sprintf("s%02d", n-i)] = p
	}
	r.limit = maxRegular * rng.Float64()
	if seed%5 == 0 {
		r.limit = 0
	}
	return r
}

// instrumented returns a gOA over the rack, instrumented on a fresh
// registry.
func (r splitRack) instrumented() (*GOA, *metrics.Registry) {
	g := NewGOA("r", r.limit)
	for name, p := range r.profiles {
		g.SetProfile(name, p)
	}
	reg := metrics.NewRegistry()
	g.Instrument(reg, obs.New(), nil)
	return g, reg
}

// branchAt names the branch the split takes at ts.
func (r splitRack) branchAt(ts time.Time) string {
	names := make([]string, 0, len(r.profiles))
	for name := range r.profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	var sumRegular float64
	for _, name := range names {
		p := r.profiles[name]
		draw := 0.0
		if p.Power != nil {
			draw = p.Power.At(ts)
		}
		sumRegular += math.Max(0, draw-p.OC.GrantedAt(ts)*p.OCCoreCost)
	}
	switch {
	case sumRegular >= r.limit && sumRegular == 0:
		return "no headroom, no regular power"
	case sumRegular >= r.limit:
		return "no headroom"
	case r.noNeed:
		return "zero need"
	default:
		return "headroom"
	}
}

// splitBranches are the four branches branchAt names.
var splitBranches = []string{"headroom", "no headroom", "no headroom, no regular power", "zero need"}

// TestBudgetTemplatesMatchBudgetsAt checks that the templates, which sort
// the names once and reuse one working set, hold exactly — bit for bit —
// what BudgetsAt returns at each slot's instant, and that the observed
// budget-computation series end in the same state as that sequence of
// BudgetsAt calls. Random racks cover the headroom split, the no-headroom
// scale-down (including zero regular power), the zero-need even split and
// servers without power or overclock templates.
func TestBudgetTemplatesMatchBudgetsAt(t *testing.T) {
	const step = 20 * time.Minute
	monday := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	saturday := time.Date(2023, 4, 15, 0, 0, 0, 0, time.UTC)
	branches := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rack := randomSplitRack(seed)
		g, reg := rack.instrumented()
		ref, refReg := rack.instrumented()
		tpls := g.BudgetTemplates(step)
		for i := 0; i < int(24*time.Hour/step); i++ {
			for _, day := range []time.Time{monday, saturday} {
				ts := day.Add(time.Duration(i) * step)
				want := ref.BudgetsAt(ts)
				branches[rack.branchAt(ts)] = true
				for name, w := range want {
					if got := tpls[name].At(ts); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("seed %d %s %s: template %v, BudgetsAt %v", seed, ts, name, got, w)
					}
				}
			}
		}
		var got, want strings.Builder
		if err := reg.Snapshot().WriteProm(&got); err != nil {
			t.Fatal(err)
		}
		if err := refReg.Snapshot().WriteProm(&want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("seed %d: observed series differ:\n%s\nwant\n%s", seed, got.String(), want.String())
		}
	}
	for _, b := range splitBranches {
		if !branches[b] {
			t.Errorf("no slot exercised the %s branch", b)
		}
	}
}

// TestReplayBudgetTemplatesMatchesSplit checks the replay an observed fleet
// run uses in place of the split: a gOA that replays from another gOA's
// BudgetTemplates must leave its registry exactly as computing the split
// itself would, in Prometheus and JSON bytes. The recorded budget sum is
// the last computation's, so the racks' last slots cover every branch of
// the split; an uninstrumented replay records nothing.
func TestReplayBudgetTemplatesMatchesSplit(t *testing.T) {
	const step = 20 * time.Minute
	saturday := time.Date(2023, 4, 15, 0, 0, 0, 0, time.UTC)
	last := saturday.Add(24*time.Hour - step)
	branches := map[string]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		rack := randomSplitRack(seed)
		branches[rack.branchAt(last)] = true
		computed, want := rack.instrumented()
		computed.BudgetTemplates(step)
		src := NewGOA("r", rack.limit)
		for name, p := range rack.profiles {
			src.SetProfile(name, p)
		}
		src.BudgetTemplates(step)
		replayed, got := rack.instrumented()
		replayed.ReplayBudgetTemplates(src, step)
		for _, write := range []func(*metrics.Snapshot, *strings.Builder) error{
			func(s *metrics.Snapshot, b *strings.Builder) error { return s.WriteProm(b) },
			func(s *metrics.Snapshot, b *strings.Builder) error { return s.WriteJSON(b) },
		} {
			var g, w strings.Builder
			if err := write(got.Snapshot(), &g); err != nil {
				t.Fatal(err)
			}
			if err := write(want.Snapshot(), &w); err != nil {
				t.Fatal(err)
			}
			if g.String() != w.String() {
				t.Fatalf("seed %d: replayed registry\n%s\nwant\n%s", seed, g.String(), w.String())
			}
		}
	}
	for _, b := range splitBranches {
		if !branches[b] {
			t.Errorf("no rack's last slot exercised the %s branch", b)
		}
	}
	plain := NewGOA("r", 100)
	plain.SetProfile("s", ServerProfile{Power: flatTemplate(50)})
	plain.BudgetTemplates(step)
	NewGOA("r", 100).ReplayBudgetTemplates(plain, step) // no instruments: must not panic
}

// TestBudgetsAtAllocs guards the per-call cost of BudgetsAt: the sorted
// names are cached, so beyond the returned map a computation allocates
// nothing, and BudgetSplit, the slice view the per-tick budget check
// reads, allocates nothing at all.
func TestBudgetsAtAllocs(t *testing.T) {
	g := NewGOA("r", 3000)
	for i := 0; i < 8; i++ {
		g.SetProfile(fmt.Sprintf("s%d", i), ServerProfile{Power: flatTemplate(200), OC: flatOC(2, 1), OCCoreCost: 10})
	}
	g.BudgetsAt(monday9) // size the scratch working set
	if a := testing.AllocsPerRun(100, func() { g.BudgetsAt(monday9) }); a > 2 {
		t.Fatalf("BudgetsAt allocates %.1f objects per call, want <= 2 (the returned map)", a)
	}
	if a := testing.AllocsPerRun(100, func() { g.BudgetSplit(monday9) }); a != 0 {
		t.Fatalf("BudgetSplit allocates %.1f objects per call, want 0", a)
	}
	g.SetProfile("s9", ServerProfile{Power: flatTemplate(100), OC: flatOC(0, 0), OCCoreCost: 10})
	if got, want := len(g.BudgetSplit(monday9)), 9; got != want {
		t.Fatalf("split over %d servers after adding one, want %d", got, want)
	}
}
