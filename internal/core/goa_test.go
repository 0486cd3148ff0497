package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

// monday9 is a weekday 9:00 instant.
var monday9 = time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)

// flatTemplate builds a WeekTemplate with a constant value.
func flatTemplate(v float64) *timeseries.WeekTemplate {
	day := func(kind timeseries.DayKind) *timeseries.DayTemplate {
		slots := make([]float64, 24)
		for i := range slots {
			slots[i] = v
		}
		return &timeseries.DayTemplate{Step: time.Hour, Kind: kind, Slots: slots}
	}
	return &timeseries.WeekTemplate{Weekday: day(timeseries.Weekdays), Weekend: day(timeseries.Weekends)}
}

// flatOC builds an OCTemplate with constant requested/granted core counts.
func flatOC(requested, granted float64) *predict.OCTemplate {
	return &predict.OCTemplate{
		Requested: flatTemplate(requested),
		Granted:   flatTemplate(granted),
	}
}

// TestPaperWorkedExample reproduces §IV-C's example: a 1.3 kW rack with
// Server-X at 400 W regular + 5 cores needing overclock and Server-Y at
// 300 W + 10 cores, 10 W per core, must get 600 W and 700 W.
func TestPaperWorkedExample(t *testing.T) {
	g := NewGOA("rack", 1300)
	g.SetProfile("X", ServerProfile{Power: flatTemplate(400), OC: flatOC(5, 0), OCCoreCost: 10})
	g.SetProfile("Y", ServerProfile{Power: flatTemplate(300), OC: flatOC(10, 0), OCCoreCost: 10})
	budgets := g.BudgetsAt(monday9)
	if math.Abs(budgets["X"]-600) > 1e-9 {
		t.Fatalf("Server-X budget = %v, want 600", budgets["X"])
	}
	if math.Abs(budgets["Y"]-700) > 1e-9 {
		t.Fatalf("Server-Y budget = %v, want 700", budgets["Y"])
	}
}

func TestBudgetsSumToLimitWithDemand(t *testing.T) {
	g := NewGOA("rack", 2000)
	g.SetProfile("a", ServerProfile{Power: flatTemplate(500), OC: flatOC(3, 0), OCCoreCost: 8})
	g.SetProfile("b", ServerProfile{Power: flatTemplate(700), OC: flatOC(6, 0), OCCoreCost: 8})
	budgets := g.BudgetsAt(monday9)
	sum := budgets["a"] + budgets["b"]
	if math.Abs(sum-2000) > 1e-9 {
		t.Fatalf("budgets sum = %v, want full limit", sum)
	}
	if budgets["b"] <= budgets["a"] {
		t.Fatal("server with more demand must get a larger budget")
	}
}

func TestOCPortionSeparatedFromRegular(t *testing.T) {
	// Server a reported 500 W total while running 10 granted OC cores at
	// 10 W each — its regular power is 400 W.
	g := NewGOA("rack", 1000)
	g.SetProfile("a", ServerProfile{Power: flatTemplate(500), OC: flatOC(0, 10), OCCoreCost: 10})
	g.SetProfile("b", ServerProfile{Power: flatTemplate(400), OC: flatOC(0, 0), OCCoreCost: 10})
	budgets := g.BudgetsAt(monday9)
	// No requested cores → even split of 1000-800 = 200 headroom.
	if math.Abs(budgets["a"]-500) > 1e-9 || math.Abs(budgets["b"]-500) > 1e-9 {
		t.Fatalf("budgets = %v", budgets)
	}
}

func TestEvenSplitWithoutDemand(t *testing.T) {
	g := NewGOA("rack", 1200)
	g.SetProfile("a", ServerProfile{Power: flatTemplate(300), OC: flatOC(0, 0), OCCoreCost: 10})
	g.SetProfile("b", ServerProfile{Power: flatTemplate(500), OC: flatOC(0, 0), OCCoreCost: 10})
	budgets := g.BudgetsAt(monday9)
	if math.Abs(budgets["a"]-500) > 1e-9 { // 300 + 400/2
		t.Fatalf("a = %v", budgets["a"])
	}
	if math.Abs(budgets["b"]-700) > 1e-9 {
		t.Fatalf("b = %v", budgets["b"])
	}
}

func TestOverloadedRackScalesProportionally(t *testing.T) {
	g := NewGOA("rack", 600)
	g.SetProfile("a", ServerProfile{Power: flatTemplate(400), OC: flatOC(5, 0), OCCoreCost: 10})
	g.SetProfile("b", ServerProfile{Power: flatTemplate(400), OC: flatOC(5, 0), OCCoreCost: 10})
	budgets := g.BudgetsAt(monday9)
	if math.Abs(budgets["a"]-300) > 1e-9 || math.Abs(budgets["b"]-300) > 1e-9 {
		t.Fatalf("overloaded budgets = %v", budgets)
	}
}

func TestBudgetsAtEmptyGOA(t *testing.T) {
	g := NewGOA("rack", 1000)
	if got := g.BudgetsAt(monday9); got != nil {
		t.Fatalf("empty gOA budgets = %v", got)
	}
}

func TestMissingPowerTemplateTreatedAsZero(t *testing.T) {
	g := NewGOA("rack", 1000)
	g.SetProfile("a", ServerProfile{OC: flatOC(2, 0), OCCoreCost: 10})
	budgets := g.BudgetsAt(monday9)
	if math.Abs(budgets["a"]-1000) > 1e-9 {
		t.Fatalf("budget = %v, want the whole headroom", budgets["a"])
	}
}

func TestBudgetTemplatesFollowTimeOfDay(t *testing.T) {
	// Server a needs overclocking only at 9:00; b only at 15:00.
	slots := make([]float64, 24)
	slots9 := append([]float64(nil), slots...)
	slots9[9] = 5
	slots15 := append([]float64(nil), slots...)
	slots15[15] = 5
	mk := func(s []float64) *predict.OCTemplate {
		day := &timeseries.DayTemplate{Step: time.Hour, Slots: s}
		return &predict.OCTemplate{
			Requested: &timeseries.WeekTemplate{Weekday: day, Weekend: day},
			Granted:   flatTemplate(0),
		}
	}
	g := NewGOA("rack", 1000)
	g.SetProfile("a", ServerProfile{Power: flatTemplate(300), OC: mk(slots9), OCCoreCost: 10})
	g.SetProfile("b", ServerProfile{Power: flatTemplate(300), OC: mk(slots15), OCCoreCost: 10})
	tpl := g.BudgetTemplates(time.Hour)
	at9 := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	at15 := time.Date(2023, 4, 10, 15, 0, 0, 0, time.UTC)
	if tpl["a"].At(at9) <= tpl["b"].At(at9) {
		t.Fatalf("at 9:00 a must dominate: a=%v b=%v", tpl["a"].At(at9), tpl["b"].At(at9))
	}
	if tpl["b"].At(at15) <= tpl["a"].At(at15) {
		t.Fatalf("at 15:00 b must dominate: a=%v b=%v", tpl["a"].At(at15), tpl["b"].At(at15))
	}
}

func TestSetLimit(t *testing.T) {
	g := NewGOA("rack", 1000)
	g.SetLimit(800)
	if g.Limit() != 800 {
		t.Fatal("SetLimit failed")
	}
	if g.Rack() != "rack" {
		t.Fatal("Rack name wrong")
	}
}

// Property: with any non-negative profile values and positive demand, the
// heterogeneous budgets are non-negative and sum exactly to the rack limit
// when regular power fits; they never exceed the limit otherwise.
func TestBudgetsSumProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		if n > 12 {
			n = 12
		}
		g := NewGOA("rack", 10000)
		for i := 0; i < n; i++ {
			power := float64(raw[2*i]%800) + 50
			need := float64(raw[2*i+1] % 20)
			g.SetProfile(fmt.Sprintf("s%02d", i), ServerProfile{
				Power: flatTemplate(power), OC: flatOC(need, 0), OCCoreCost: 8,
			})
		}
		budgets := g.BudgetsAt(monday9)
		sum := 0.0
		sumRegular := 0.0
		for i := 0; i < n; i++ {
			b := budgets[fmt.Sprintf("s%02d", i)]
			if b < 0 {
				return false
			}
			sum += b
		}
		for i := 0; i < n; i++ {
			sumRegular += float64(raw[2*i]%800) + 50
		}
		if sumRegular <= 10000 {
			return math.Abs(sum-10000) < 1e-6
		}
		return sum <= 10000+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDatacenterAgentComposesWithGOA walks the full hierarchy: the
// datacenter agent splits its budget into rack limits, each rack's gOA
// splits its limit into server budgets, and conservation holds at every
// level.
func TestDatacenterAgentComposesWithGOA(t *testing.T) {
	dc := NewDatacenterAgent("dc", 3000)
	// Rack A draws 800 W with heavy overclock demand; rack B draws 900 W
	// with light demand.
	dc.SetRackProfile("rackA", ServerProfile{Power: flatTemplate(800), OC: flatOC(40, 0), OCCoreCost: 10})
	dc.SetRackProfile("rackB", ServerProfile{Power: flatTemplate(900), OC: flatOC(10, 0), OCCoreCost: 10})
	limits := dc.RackLimitsAt(monday9)
	if math.Abs(limits["rackA"]+limits["rackB"]-3000) > 1e-9 {
		t.Fatalf("rack limits don't conserve the DC budget: %v", limits)
	}
	// The demanding rack gets the larger share of headroom:
	// A = 800 + 1300*(400/500) = 1840, B = 900 + 1300*(100/500) = 1160.
	if math.Abs(limits["rackA"]-1840) > 1e-9 || math.Abs(limits["rackB"]-1160) > 1e-9 {
		t.Fatalf("rack limits = %v", limits)
	}

	// Feed rack A's new limit into its gOA; server budgets sum to it.
	ga := NewGOA("rackA", limits["rackA"])
	ga.SetProfile("s1", ServerProfile{Power: flatTemplate(500), OC: flatOC(30, 0), OCCoreCost: 10})
	ga.SetProfile("s2", ServerProfile{Power: flatTemplate(300), OC: flatOC(10, 0), OCCoreCost: 10})
	budgets := ga.BudgetsAt(monday9)
	if math.Abs(budgets["s1"]+budgets["s2"]-limits["rackA"]) > 1e-9 {
		t.Fatalf("server budgets don't conserve the rack limit: %v", budgets)
	}
	if budgets["s1"] <= budgets["s2"] {
		t.Fatal("demand skew must propagate to server budgets")
	}
}
