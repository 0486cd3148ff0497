package core

import (
	"fmt"
	"math"
	"math/rand"
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
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		profiles := make(map[string]ServerProfile, n)
		var maxRegular float64
		noNeed := seed%4 == 0
		for i := 0; i < n; i++ {
			p := ServerProfile{OCCoreCost: 5 + 10*rng.Float64()}
			if rng.Intn(6) > 0 {
				p.Power = randomTemplate(rng, 50, 400)
				maxRegular += 400
			}
			switch {
			case noNeed:
				p.OC = &predict.OCTemplate{Requested: flatTemplate(0), Granted: flatTemplate(0)}
			case rng.Intn(6) > 0:
				p.OC = &predict.OCTemplate{Requested: randomTemplate(rng, 0, 8), Granted: randomTemplate(rng, 0, 4)}
			}
			profiles[fmt.Sprintf("s%02d", n-i)] = p
		}
		// Limits straddle the rack's regular draw so slots land on both
		// sides of the no-headroom line; seed%5 == 0 leaves no limit at all.
		limit := maxRegular * rng.Float64()
		if seed%5 == 0 {
			limit = 0
		}
		mk := func() (*GOA, *metrics.Registry) {
			g := NewGOA("r", limit)
			for name, p := range profiles {
				g.SetProfile(name, p)
			}
			reg := metrics.NewRegistry()
			g.Instrument(reg, obs.New())
			return g, reg
		}
		g, reg := mk()
		ref, refReg := mk()
		tpls := g.BudgetTemplates(step)
		for i := 0; i < int(24*time.Hour/step); i++ {
			for _, day := range []time.Time{monday, saturday} {
				ts := day.Add(time.Duration(i) * step)
				want := ref.BudgetsAt(ts)
				var sumRegular float64
				for _, name := range ref.Servers() {
					p := profiles[name]
					draw := 0.0
					if p.Power != nil {
						draw = p.Power.At(ts)
					}
					sumRegular += math.Max(0, draw-p.OC.GrantedAt(ts)*p.OCCoreCost)
				}
				switch {
				case sumRegular >= limit && sumRegular == 0:
					branches["no headroom, no regular power"] = true
				case sumRegular >= limit:
					branches["no headroom"] = true
				case noNeed:
					branches["zero need"] = true
				default:
					branches["headroom"] = true
				}
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
	for _, b := range []string{"headroom", "no headroom", "no headroom, no regular power", "zero need"} {
		if !branches[b] {
			t.Errorf("no slot exercised the %s branch", b)
		}
	}
}

// TestBudgetsAtAllocs guards the live plane's per-tick budget check
// (invariant.BudgetConservation calls BudgetsAt every tick): beyond the
// sorted names and the returned map, a computation allocates nothing.
func TestBudgetsAtAllocs(t *testing.T) {
	g := NewGOA("r", 3000)
	for i := 0; i < 8; i++ {
		g.SetProfile(fmt.Sprintf("s%d", i), ServerProfile{Power: flatTemplate(200), OC: flatOC(2, 1), OCCoreCost: 10})
	}
	g.BudgetsAt(monday9) // size the scratch working set
	if a := testing.AllocsPerRun(100, func() { g.BudgetsAt(monday9) }); a > 3 {
		t.Fatalf("BudgetsAt allocates %.1f objects per call, want <= 3 (the names and the returned map)", a)
	}
}
