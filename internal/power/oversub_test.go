package power

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"smartoclock/internal/timeseries"
)

// DefaultOversubConfig returns the policy defaults: budget equal to the
// provisioned limit, 0.98-quantile peaks, two-week template freshness.
func DefaultOversubConfig() OversubConfig {
	return OversubConfig{
		Ratio:          1.0,
		Quantile:       0.98,
		MaxTemplateAge: 14 * 24 * time.Hour,
	}
}

// sevFake is a fakeServer with a severity class.
type sevFake struct {
	fakeServer
	sev Severity
}

func (f *sevFake) Severity() Severity { return f.sev }

func newSevFake(name string, watts float64, sev Severity) *sevFake {
	return &sevFake{
		fakeServer: fakeServer{name: name, baseWatts: watts, stepWatts: 20, maxCap: 18},
		sev:        sev,
	}
}

// checkSeverityOrder asserts the capping discipline's core property on the
// current rack state: no server of class k capped while a server of a more
// sheddable class (>k) is uncapped.
func checkSeverityOrder(t *testing.T, r *Rack, ctx string) {
	t.Helper()
	var capped, uncapped [NumSeverities]string
	for _, s := range r.Servers() {
		k := SeverityOf(s)
		if s.CapLevel() > 0 {
			capped[k] = s.Name()
		} else {
			uncapped[k] = s.Name()
		}
	}
	for k := Severity(0); k < NumSeverities; k++ {
		if capped[k] == "" {
			continue
		}
		for j := k + 1; j < NumSeverities; j++ {
			if uncapped[j] != "" {
				t.Fatalf("%s: %s (severity %v) capped while %s (severity %v) uncapped",
					ctx, capped[k], k, uncapped[j], j)
			}
		}
	}
}

// TestSeverityCappingProperty drives randomized fleets through overload and
// recovery and asserts, after every control cycle, that (a) severity order
// holds and (b) capping made the rack safe whenever enough sheddable power
// existed: post-cap draw at or under the limit, or every server at its cap
// floor.
func TestSeverityCappingProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(10)
			fleet := make([]*sevFake, n)
			total := 0.0
			for i := range fleet {
				fleet[i] = newSevFake(fmt.Sprintf("s%d", i),
					100+rng.Float64()*400, Severity(rng.Intn(int(NumSeverities))))
				fleet[i].stepWatts = 5 + rng.Float64()*20
				fleet[i].maxCap = 4 + rng.Intn(15)
				total += fleet[i].baseWatts
			}
			// The limit sits well below the fleet's draw, so the first tick
			// is an overload and capping must engage.
			cfg := DefaultRackConfig("r", total*(0.4+rng.Float64()*0.5))
			cfg.Mode = CapSeverity
			rack := NewRack(cfg)
			for _, f := range fleet {
				rack.AddServer(f)
			}

			now := tick0
			for tickN := 0; tickN < 12; tickN++ {
				// Wander the load so ticks exercise escalation, steady
				// state and the restore path in one run.
				for _, f := range fleet {
					f.baseWatts *= 0.7 + rng.Float64()*0.6
				}
				rack.Tick(now)
				ctx := fmt.Sprintf("tick %d", tickN)
				checkSeverityOrder(t, rack, ctx)
				if p := rack.Power(); p > cfg.LimitWatts {
					for _, f := range fleet {
						if f.CapLevel() < f.MaxCapLevel() {
							t.Fatalf("%s: draw %.1f over limit %.1f with %s not at cap floor (%d/%d)",
								ctx, p, cfg.LimitWatts, f.Name(), f.CapLevel(), f.MaxCapLevel())
						}
					}
				}
				now = now.Add(15 * time.Second)
			}

			// Collapse the load: repeated ticks below the restore threshold
			// must walk every cap back to zero without ever breaking the
			// order on the way down.
			for _, f := range fleet {
				f.baseWatts = 1
			}
			for tickN := 0; rack.IsCapped(); tickN++ {
				if tickN > 500 {
					t.Fatal("caps never fully restored")
				}
				rack.Tick(now)
				checkSeverityOrder(t, rack, fmt.Sprintf("restore tick %d", tickN))
				now = now.Add(15 * time.Second)
			}
		})
	}
}

// TestSeverityCappingShedsMostSheddableFirst pins the direction: with one
// server per class and a modest overshoot, only the highest (most
// sheddable) class is touched.
func TestSeverityCappingShedsMostSheddableFirst(t *testing.T) {
	crit := newSevFake("crit", 300, SeverityCritical)
	low := newSevFake("low", 300, SeverityLow)
	cfg := DefaultRackConfig("r", 590)
	cfg.TargetFraction = 0.95
	cfg.Mode = CapSeverity
	rack := NewRack(cfg, crit, low)
	rack.Tick(tick0)
	if crit.CapLevel() != 0 {
		t.Fatalf("critical server capped to %d; harvest had %d spare levels",
			crit.CapLevel(), low.MaxCapLevel()-low.CapLevel())
	}
	if low.CapLevel() == 0 {
		t.Fatal("overload but the sheddable server was not capped")
	}
}

// TestSeverityRestoreCriticalFirst pins the restore direction: the most
// critical capped class recovers fully before more sheddable classes start.
func TestSeverityRestoreCriticalFirst(t *testing.T) {
	med := newSevFake("med", 350, SeverityMedium)
	low := newSevFake("low", 300, SeverityLow)
	cfg := DefaultRackConfig("r", 400)
	cfg.Mode = CapSeverity
	rack := NewRack(cfg, med, low)
	rack.Tick(tick0) // overload: low exhausted, med capped too
	if med.CapLevel() == 0 || low.CapLevel() == 0 {
		t.Fatalf("setup: expected both capped, got med=%d low=%d", med.CapLevel(), low.CapLevel())
	}
	med.baseWatts, low.baseWatts = 10, 10
	now := tick0
	for i := 0; med.CapLevel() > 0; i++ {
		if i > 100 {
			t.Fatal("medium server never restored")
		}
		now = now.Add(15 * time.Second)
		rack.Tick(now)
		if med.CapLevel() > 0 && low.CapLevel() < low.capBefore(t) {
			t.Fatal("sheddable class relaxed before critical class finished")
		}
	}
	if low.CapLevel() == 0 {
		t.Fatal("low fully restored in lockstep with med; expected critical-first")
	}
}

// capBefore returns the server's max cap level for comparison (the low
// server is exhausted by the overload tick and must stay there while the
// medium class recovers).
func (f *sevFake) capBefore(t *testing.T) int {
	t.Helper()
	return f.maxCap
}

// TestAddServerDuringSeverityCapping covers the late-joiner rule: a more
// sheddable newcomer joining a rack whose more critical class is capped
// arrives at its cap floor; an equally or more critical newcomer arrives
// uncapped.
func TestAddServerDuringSeverityCapping(t *testing.T) {
	crit := newSevFake("crit", 600, SeverityCritical)
	cfg := DefaultRackConfig("r", 300)
	cfg.Mode = CapSeverity
	rack := NewRack(cfg, crit)
	rack.Tick(tick0)
	if crit.CapLevel() == 0 {
		t.Fatal("setup: critical server not capped by overload")
	}

	low := newSevFake("low", 100, SeverityLow)
	rack.AddServer(low)
	if low.CapLevel() != low.MaxCapLevel() {
		t.Fatalf("late harvest joiner capped to %d, want floor %d", low.CapLevel(), low.MaxCapLevel())
	}
	checkSeverityOrder(t, rack, "after harvest join")

	crit2 := newSevFake("crit2", 100, SeverityCritical)
	rack.AddServer(crit2)
	if crit2.CapLevel() != 0 {
		t.Fatalf("late critical joiner capped to %d, want uncapped", crit2.CapLevel())
	}
}

// TestAddServerInterleavedModeUntouched pins that the legacy discipline
// does not pre-cap late joiners (existing behavior, existing goldens).
func TestAddServerInterleavedModeUntouched(t *testing.T) {
	a := newFake("a", 600, 0)
	rack := NewRack(DefaultRackConfig("r", 300), a)
	rack.Tick(tick0)
	b := newFake("b", 100, 1)
	rack.AddServer(b)
	if b.CapLevel() != 0 {
		t.Fatalf("interleaved mode pre-capped a joiner to %d", b.CapLevel())
	}
}

// --- Admission ------------------------------------------------------------

func admTemplate(watts float64) *timeseries.WeekTemplate {
	return timeseries.FlatWeek(watts, 30*time.Minute)
}

func TestOversubConfigValidate(t *testing.T) {
	if err := DefaultOversubConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []OversubConfig{
		{Ratio: 0, Quantile: 0.98, MaxTemplateAge: time.Hour},
		{Ratio: 1, Quantile: 0, MaxTemplateAge: time.Hour},
		{Ratio: 1, Quantile: 1.2, MaxTemplateAge: time.Hour},
		{Ratio: 1, Quantile: 0.98, MaxTemplateAge: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if _, err := NewAdmission(OversubConfig{Ratio: 1, Quantile: 0.5, MaxTemplateAge: time.Hour}, 0); err == nil {
		t.Error("zero rack limit accepted")
	}
}

// TestAdmissionEdgeCases is the table-driven admission battery: boundary
// arithmetic and every conservative-fallback path.
func TestAdmissionEdgeCases(t *testing.T) {
	now := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	fresh := now.Add(-24 * time.Hour)
	cfg := func(ratio float64) OversubConfig {
		c := DefaultOversubConfig()
		c.Ratio = ratio
		return c
	}
	cases := []struct {
		name         string
		cfg          OversubConfig
		limit        float64
		reserve      float64
		cand         Candidate
		granted      bool
		conservative bool
	}{
		{
			name:  "empty rack admits first candidate",
			cfg:   cfg(1.0),
			limit: 1000,
			cand:  Candidate{Name: "a", NameplateWatts: 900, Template: admTemplate(400), FittedAt: fresh},
			// Predicted peak 400 <= 1000: in.
			granted: true,
		},
		{
			name:    "zero headroom rejects",
			cfg:     cfg(1.0),
			limit:   1000,
			reserve: 1000,
			cand:    Candidate{Name: "a", NameplateWatts: 100, Template: admTemplate(50), FittedAt: fresh},
			granted: false,
		},
		{
			name:    "exact ratio boundary admits",
			cfg:     cfg(1.2),
			limit:   1000,
			reserve: 800,
			cand:    Candidate{Name: "a", NameplateWatts: 500, Template: admTemplate(400), FittedAt: fresh},
			// 800 + 400 == 1.2 × 1000 exactly: <= admits.
			granted: true,
		},
		{
			name:    "one watt past the boundary rejects",
			cfg:     cfg(1.2),
			limit:   1000,
			reserve: 801,
			cand:    Candidate{Name: "a", NameplateWatts: 500, Template: admTemplate(400), FittedAt: fresh},
			granted: false,
		},
		{
			name:  "nameplate alone exceeds budget but template fits",
			cfg:   cfg(1.0),
			limit: 1000,
			cand:  Candidate{Name: "a", NameplateWatts: 1500, Template: admTemplate(600), FittedAt: fresh},
			// Oversubscription's whole bet: predicted 600 in, nameplate out.
			granted: true,
		},
		{
			name:         "absent template falls back to nameplate",
			cfg:          cfg(1.0),
			limit:        1000,
			cand:         Candidate{Name: "a", NameplateWatts: 1500},
			granted:      false,
			conservative: true,
		},
		{
			name:  "stale template falls back to nameplate",
			cfg:   cfg(1.0),
			limit: 1000,
			cand: Candidate{Name: "a", NameplateWatts: 1500, Template: admTemplate(600),
				FittedAt: now.Add(-15 * 24 * time.Hour)},
			granted:      false,
			conservative: true,
		},
		{
			name:  "unfitted template falls back to nameplate",
			cfg:   cfg(1.0),
			limit: 1000,
			cand: Candidate{Name: "a", NameplateWatts: 700,
				Template: timeseries.BuildWeekTemplate(timeseries.New(fresh, time.Minute), timeseries.ReduceMedian),
				FittedAt: fresh},
			granted:      true, // nameplate 700 still fits
			conservative: true,
		},
		{
			name:  "quantile clamped to nameplate",
			cfg:   cfg(1.0),
			limit: 1000,
			cand: Candidate{Name: "a", NameplateWatts: 300, Template: admTemplate(900),
				FittedAt: fresh},
			// A template predicting more than the hardware can draw is
			// noise; the clamp admits at 300, not 900.
			granted: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			adm, err := NewAdmission(tc.cfg, tc.limit)
			if err != nil {
				t.Fatal(err)
			}
			adm.Reserve(tc.reserve)
			d := adm.Admit(now, tc.cand)
			if d.Granted != tc.granted {
				t.Fatalf("Granted = %v (%s), want %v", d.Granted, d.Reason, tc.granted)
			}
			if d.Conservative != tc.conservative {
				t.Fatalf("Conservative = %v (%s), want %v", d.Conservative, d.Reason, tc.conservative)
			}
			if d.Granted && adm.peak != tc.reserve+d.PeakWatts {
				t.Fatalf("grant charged the rack peak %v, want %v + %v", adm.peak, tc.reserve, d.PeakWatts)
			}
			if !d.Granted && adm.peak != tc.reserve {
				t.Fatalf("rejected candidate charged the rack peak: %v", adm.peak)
			}
		})
	}
}

func TestAdmissionChargesGrants(t *testing.T) {
	now := time.Unix(0, 0)
	adm, err := NewAdmission(OversubConfig{Ratio: 1, Quantile: 0.98, MaxTemplateAge: time.Hour}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d := adm.Admit(now, Candidate{Name: fmt.Sprintf("c%d", i), NameplateWatts: 300})
		if !d.Granted {
			t.Fatalf("candidate %d rejected with headroom %v", i, adm.BudgetWatts()-adm.peak)
		}
	}
	if d := adm.Admit(now, Candidate{Name: "c3", NameplateWatts: 300}); d.Granted {
		t.Fatal("fourth 300 W candidate admitted past a 1000 W budget")
	}
	if got := adm.peak; got != 900 {
		t.Fatalf("PredictedRackPeak = %v, want 900", got)
	}
}

func TestAdmissionRejectsNonPositiveNameplate(t *testing.T) {
	adm, err := NewAdmission(DefaultOversubConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d := adm.Admit(time.Unix(0, 0), Candidate{Name: "bad"}); d.Granted {
		t.Fatal("candidate with zero nameplate admitted")
	}
}

func TestAdmissionAdmitAllUnsafe(t *testing.T) {
	cfg := DefaultOversubConfig()
	cfg.AdmitAllUnsafe = true
	adm, err := NewAdmission(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	d := adm.Admit(time.Unix(0, 0), Candidate{Name: "huge", NameplateWatts: 10000})
	if !d.Granted {
		t.Fatal("canary mode rejected a candidate")
	}
}

func TestSeverityStrings(t *testing.T) {
	if SeverityCritical.String() != "critical" || SeverityLow.String() != "low" {
		t.Fatalf("severity names: %v %v", SeverityCritical, SeverityLow)
	}
	if CapSeverity.String() == "" || CapInvertedUnsafe.String() == "" {
		t.Fatal("cap mode names empty")
	}
	if got := SeverityOf(newFake("plain", 100, 0)); got != SeverityMedium {
		t.Fatalf("unclassed server severity = %v, want medium", got)
	}
}
