package lifetime

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var epoch0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// NewBudget returns one budget whose first epoch starts at start, built and
// validated exactly as NewCoreBudgets builds each core's.
func NewBudget(cfg BudgetConfig, start time.Time) *Budget {
	return NewCoreBudgets(cfg, 1, start).Core(0)
}

// ocVoltRatio is the voltage ratio at the default machine's max overclock
// (3.3 → 4.0 GHz with VoltSlope 1.3): 1 + 1.3·(700/3300).
const ocVoltRatio = 1.2757575757575756

func TestAccelNominalIsOne(t *testing.T) {
	m := DefaultAgingModel()
	if got := m.Accel(1); got != 1 {
		t.Fatalf("Accel(1) = %v", got)
	}
	if got := m.Accel(0.9); got != 1 {
		t.Fatalf("Accel(<1) = %v, undervolt must clamp to 1", got)
	}
}

func TestAccelExponential(t *testing.T) {
	m := DefaultAgingModel()
	a1 := m.Accel(1.1)
	a2 := m.Accel(1.2)
	// Exponential: Accel(1.2) = Accel(1.1)^2 relative to exponent.
	if math.Abs(a2-a1*a1) > 1e-9 {
		t.Fatalf("not exponential: %v vs %v", a2, a1*a1)
	}
}

func TestAccelAtMaxOCCalibration(t *testing.T) {
	// DESIGN.md anchor: ≈5.5× acceleration at max overclock voltage.
	m := DefaultAgingModel()
	a := m.Accel(ocVoltRatio)
	if a < 4.5 || a > 6.5 {
		t.Fatalf("Accel at max OC = %v, want ≈5.5", a)
	}
}

func TestRateClampsUtil(t *testing.T) {
	m := DefaultAgingModel()
	if m.Rate(-1, 1) != m.UtilFloor {
		t.Fatalf("rate at negative util = %v", m.Rate(-1, 1))
	}
	if m.Rate(5, 1) != 1 {
		t.Fatalf("rate at util>1 = %v", m.Rate(5, 1))
	}
}

func TestReferenceRateIsOne(t *testing.T) {
	m := DefaultAgingModel()
	if got := m.Rate(1, 1); got != 1 {
		t.Fatalf("reference rate = %v", got)
	}
}

func TestConservativeFleetAnchor(t *testing.T) {
	// §III-Q2: conservative fleet usage ages 2.5 years over 5 years —
	// i.e. rate 0.5 at ~50% utilization and nominal voltage.
	m := DefaultAgingModel()
	if got := m.Rate(0.5, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("fleet rate = %v, want 0.5", got)
	}
}

func TestNaiveOCAnchor(t *testing.T) {
	// §III-Q2: overclocking 50% of the time at high utilization ages the
	// part several years per year of use: average rate well above 2.5.
	m := DefaultAgingModel()
	avg := 0.5*m.Rate(1, ocVoltRatio) + 0.5*m.Rate(0.5, 1)
	if avg < 2.5 {
		t.Fatalf("naive 50%% OC rate = %v, want >= 2.5", avg)
	}
}

// aging returns the aging dt of operation at util and voltRatio accrues: the
// expression machine.Machine.Advance accumulates per core and Fig 7 per
// policy.
func aging(m AgingModel, dt time.Duration, util, voltRatio float64) time.Duration {
	return time.Duration(float64(dt) * m.Rate(util, voltRatio))
}

func TestWearAccumulation(t *testing.T) {
	// Reference usage (full utilization, nominal voltage) ages exactly one
	// unit per unit time: it tracks the envelope to the nanosecond.
	if got := aging(DefaultAgingModel(), 10*time.Hour, 1, 1); got != 10*time.Hour {
		t.Fatalf("aged %v over 10h of reference operation", got)
	}
}

func TestWearCreditsAccrueUnderLowUtil(t *testing.T) {
	if credits := 10*time.Hour - aging(DefaultAgingModel(), 10*time.Hour, 0.3, 1); credits <= 0 {
		t.Fatalf("Credits = %v, want positive", credits)
	}
}

func TestWearEnvelopeExceededByAlwaysOC(t *testing.T) {
	if aged := aging(DefaultAgingModel(), 10*time.Hour, 0.5, ocVoltRatio); aged <= 10*time.Hour {
		t.Fatalf("always-OC at 50%% util must exceed envelope (aged %v over 10h)", aged)
	}
}

// TestFig7Anchors reproduces the three policies of the paper's Fig 7 on a
// synthetic 5-day diurnal utilization trace (midday peaks above 50%, night
// valleys below 20%).
func TestFig7Anchors(t *testing.T) {
	m := DefaultAgingModel()
	diurnalUtil := func(hour int) float64 {
		return 0.38 - 0.28*math.Cos(2*math.Pi*float64(hour)/24)
	}
	simulate := func(ocHours func(hour int) bool) time.Duration {
		var aged time.Duration
		for day := 0; day < 5; day++ {
			for hour := 0; hour < 24; hour++ {
				vr := 1.0
				if ocHours(hour) {
					vr = ocVoltRatio
				}
				aged += aging(m, time.Hour, diurnalUtil(hour), vr)
			}
		}
		return aged
	}
	day := 24 * time.Hour
	baseline := simulate(func(int) bool { return false })
	alwaysOC := simulate(func(int) bool { return true })
	// Overclock-aware: 25% of the time, at the daily peak (hours 10-16).
	aware := simulate(func(h int) bool { return h >= 10 && h < 16 })

	if baseline >= 2*day {
		t.Fatalf("non-overclocked aged %v, want < 2 days", baseline)
	}
	if alwaysOC <= 10*day {
		t.Fatalf("always-overclock aged %v, want > 10 days", alwaysOC)
	}
	if aware > 5*day+day/2 {
		t.Fatalf("overclock-aware aged %v, want ≈ expected 5 days", aware)
	}
	if aware <= baseline {
		t.Fatal("overclock-aware must consume credits (age more than baseline)")
	}
}

func TestBudgetConfigValidate(t *testing.T) {
	if err := DefaultBudgetConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []BudgetConfig{
		{Epoch: 0, Fraction: 0.1},
		{Epoch: time.Hour, Fraction: -0.1},
		{Epoch: time.Hour, Fraction: 1.5},
		{Epoch: time.Hour, Fraction: 0.1, MaxCarryOver: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAllowance(t *testing.T) {
	cfg := DefaultBudgetConfig()
	want := time.Duration(float64(7*24*time.Hour) * 0.10)
	if got := cfg.Allowance(); got != want {
		t.Fatalf("Allowance = %v, want %v", got, want)
	}
}

func TestBudgetConsume(t *testing.T) {
	cfg := BudgetConfig{Epoch: 10 * time.Hour, Fraction: 0.1}
	b := NewBudget(cfg, epoch0)
	if b.Remaining() != time.Hour {
		t.Fatalf("initial = %v", b.Remaining())
	}
	if !b.Consume(30*time.Minute, false) {
		t.Fatal("consume failed")
	}
	if b.Remaining() != 30*time.Minute {
		t.Fatalf("after consume = %v", b.Remaining())
	}
	if b.Consume(time.Hour, false) {
		t.Fatal("over-consume succeeded")
	}
	if b.Remaining() != 30*time.Minute {
		t.Fatal("failed consume must not change budget")
	}
	if b.Consume(-time.Minute, false) {
		t.Fatal("negative consume must fail")
	}
}

func TestBudgetReservations(t *testing.T) {
	cfg := BudgetConfig{Epoch: 10 * time.Hour, Fraction: 0.1}
	b := NewBudget(cfg, epoch0)
	if !b.Reserve(40 * time.Minute) {
		t.Fatal("reserve failed")
	}
	if b.Remaining() != 20*time.Minute || b.Reserved() != 40*time.Minute {
		t.Fatalf("remaining=%v reserved=%v", b.Remaining(), b.Reserved())
	}
	if b.Reserve(30 * time.Minute) {
		t.Fatal("over-reserve succeeded")
	}
	// Scheduled consumption draws from the reservation.
	if !b.Consume(10*time.Minute, true) {
		t.Fatal("reserved consume failed")
	}
	if b.Reserved() != 30*time.Minute || b.Total() != 50*time.Minute {
		t.Fatalf("reserved=%v total=%v", b.Reserved(), b.Total())
	}
	b.ReleaseReservation(time.Hour) // release more than held: clamps
	if b.Reserved() != 0 {
		t.Fatalf("reserved after release = %v", b.Reserved())
	}
	if b.Remaining() != 50*time.Minute {
		t.Fatalf("remaining after release = %v", b.Remaining())
	}
}

func TestBudgetEpochRollWithCarryOver(t *testing.T) {
	cfg := BudgetConfig{Epoch: 10 * time.Hour, Fraction: 0.1, CarryOver: true, MaxCarryOver: 1}
	b := NewBudget(cfg, epoch0)
	b.Consume(30*time.Minute, false)
	b.Advance(epoch0.Add(10 * time.Hour))
	// 1h fresh + 30m carry.
	if b.Remaining() != 90*time.Minute {
		t.Fatalf("after roll = %v", b.Remaining())
	}
	if !b.Snapshot().EpochStart.Equal(epoch0.Add(10 * time.Hour)) {
		t.Fatalf("epoch start = %v", b.Snapshot().EpochStart)
	}
}

func TestBudgetCarryOverCap(t *testing.T) {
	cfg := BudgetConfig{Epoch: 10 * time.Hour, Fraction: 0.1, CarryOver: true, MaxCarryOver: 0.5}
	b := NewBudget(cfg, epoch0)
	// Nothing consumed; carry would be 1h but cap is 30m.
	b.Advance(epoch0.Add(10 * time.Hour))
	if b.Remaining() != 90*time.Minute {
		t.Fatalf("capped carry = %v, want 90m", b.Remaining())
	}
}

func TestBudgetNoCarryOver(t *testing.T) {
	cfg := BudgetConfig{Epoch: 10 * time.Hour, Fraction: 0.1}
	b := NewBudget(cfg, epoch0)
	b.Advance(epoch0.Add(25 * time.Hour)) // two epoch boundaries
	if b.Remaining() != time.Hour {
		t.Fatalf("no-carry remaining = %v", b.Remaining())
	}
	if !b.Snapshot().EpochStart.Equal(epoch0.Add(20 * time.Hour)) {
		t.Fatalf("epoch start = %v", b.Snapshot().EpochStart)
	}
}

func TestBudgetReservationsExpireAtEpoch(t *testing.T) {
	cfg := BudgetConfig{Epoch: 10 * time.Hour, Fraction: 0.1, CarryOver: true, MaxCarryOver: 1}
	b := NewBudget(cfg, epoch0)
	b.Reserve(time.Hour)
	b.Advance(epoch0.Add(10 * time.Hour))
	if b.Reserved() != 0 {
		t.Fatalf("reservation survived epoch: %v", b.Reserved())
	}
}

func TestNewBudgetPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBudget(BudgetConfig{}, epoch0)
}

// TestNewCoreBudgetsAllocs holds a server's ledger to two objects, the set
// and one backing array of budgets, however many cores it has.
func TestNewCoreBudgetsAllocs(t *testing.T) {
	cfg := DefaultBudgetConfig()
	allocs := testing.AllocsPerRun(50, func() {
		NewCoreBudgets(cfg, 64, epoch0)
	})
	if allocs > 2 {
		t.Fatalf("NewCoreBudgets(64 cores) allocates %.0f objects, want at most 2", allocs)
	}
}

func TestCoreBudgets(t *testing.T) {
	cfg := BudgetConfig{Epoch: 10 * time.Hour, Fraction: 0.1}
	cb := NewCoreBudgets(cfg, 4, epoch0)
	if cb.Len() != 4 {
		t.Fatalf("Len = %d", cb.Len())
	}
	total := func() (sum time.Duration) {
		for i := 0; i < cb.Len(); i++ {
			sum += cb.Core(i).Remaining()
		}
		return sum
	}
	if total() != 4*time.Hour {
		t.Fatalf("total remaining = %v", total())
	}
	cb.Core(0).Consume(time.Hour, false)
	cb.Core(1).Consume(30*time.Minute, false)
	cores := cb.FindCoresFiltered(2, 45*time.Minute, nil)
	if len(cores) != 2 {
		t.Fatalf("FindCores = %v", cores)
	}
	// Cores 2 and 3 have the most budget; 0 and 1 are depleted below need.
	for _, c := range cores {
		if c == 0 {
			t.Fatalf("depleted core selected: %v", cores)
		}
	}
	if got := cb.FindCoresFiltered(4, 45*time.Minute, nil); got != nil {
		t.Fatalf("FindCores must fail when not enough qualify, got %v", got)
	}
	cb.Advance(epoch0.Add(10 * time.Hour))
	if total() != 4*time.Hour {
		t.Fatalf("after advance = %v", total())
	}
}

// Property: consume never makes Remaining negative and fails atomically.
func TestBudgetConsumeProperty(t *testing.T) {
	cfg := BudgetConfig{Epoch: 100 * time.Hour, Fraction: 0.5}
	f := func(spends []int16) bool {
		b := NewBudget(cfg, epoch0)
		for _, s := range spends {
			d := time.Duration(s) * time.Minute
			before := b.Remaining()
			ok := b.Consume(d, false)
			after := b.Remaining()
			if after < 0 {
				return false
			}
			if ok && before-after != d {
				return false
			}
			if !ok && before != after {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: aging rate is monotone in both utilization and voltage.
func TestRateMonotoneProperty(t *testing.T) {
	m := DefaultAgingModel()
	f := func(u1, u2, v1, v2 float64) bool {
		norm := func(x float64, lo, hi float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return lo
			}
			return lo + math.Abs(math.Mod(x, 1))*(hi-lo)
		}
		ua, ub := norm(u1, 0, 1), norm(u2, 0, 1)
		va, vb := norm(v1, 1, 1.3), norm(v2, 1, 1.3)
		if ua > ub {
			ua, ub = ub, ua
		}
		if va > vb {
			va, vb = vb, va
		}
		return m.Rate(ua, va) <= m.Rate(ub, vb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineWearGateAllowsWithinEnvelope(t *testing.T) {
	g := OnlineWearGate{Margin: 0.05, MinObservation: time.Hour}
	// Under-utilized: well inside the envelope.
	if aged := aging(DefaultAgingModel(), 2*time.Hour, 0.4, 1); !g.Allow(aged, 2*time.Hour) {
		t.Fatal("gate closed inside the envelope")
	}
}

func TestOnlineWearGateClosesWhenOverAged(t *testing.T) {
	g := OnlineWearGate{Margin: 0.05, MinObservation: time.Hour}
	// Sustained max overclock at full load.
	if aged := aging(DefaultAgingModel(), 2*time.Hour, 1, ocVoltRatio); g.Allow(aged, 2*time.Hour) {
		t.Fatalf("gate open at %v aged over 2h elapsed", aged)
	}
}

func TestOnlineWearGateNeedsObservation(t *testing.T) {
	g := OnlineWearGate{Margin: 0.05, MinObservation: time.Hour}
	// Aged fast but observed briefly.
	if aged := aging(DefaultAgingModel(), 10*time.Minute, 1, ocVoltRatio); !g.Allow(aged, 10*time.Minute) {
		t.Fatal("gate must stay open before MinObservation")
	}
}

func TestOnlineWearGateMarginBoundary(t *testing.T) {
	g := OnlineWearGate{Margin: 0.10, MinObservation: 0}
	// Reference-rate operation ages exactly 1:1; a 10% margin keeps the
	// gate open, and so does aging exactly at the margin.
	if aged := aging(DefaultAgingModel(), 3*time.Hour, 1, 1); !g.Allow(aged, 3*time.Hour) {
		t.Fatal("gate closed at exactly on-schedule aging")
	}
	limit := time.Duration(float64(3*time.Hour) * 1.10)
	if !g.Allow(limit, 3*time.Hour) || g.Allow(limit+1, 3*time.Hour) {
		t.Fatal("gate must open up to the margin and close one nanosecond past it")
	}
}
