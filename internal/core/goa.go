package core

import (
	"sort"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

// ServerProfile is what each sOA periodically reports to the gOA: its power
// template, its overclock template and its per-core overclock power cost.
type ServerProfile struct {
	// Power is the server's power template (draw including any overclock
	// power it ran with).
	Power *timeseries.WeekTemplate
	// OC is the overclock template: requested/granted cores per slot.
	OC *predict.OCTemplate
	// OCCoreCost is the modeled extra watts per overclocked core at high
	// utilization, used to separate regular from overclock power.
	OCCoreCost float64
}

// GOA is the Global Overclocking Agent for one rack: it aggregates server
// profiles and splits the rack power limit into heterogeneous per-server
// budgets (§IV-C).
type GOA struct {
	rack     string
	limit    float64
	profiles map[string]ServerProfile
	// names caches the profiled server names, sorted; nil until a budget
	// computation or Servers needs it after the set of servers changed.
	names []string

	// obs, when non-nil, holds resolved metric handles (see Instrument in
	// obs.go).
	obs *goaObs

	// prov, when non-nil, receives budget-broadcast provenance records;
	// lastProfileSpan is the most recent profile message that shaped them
	// (see provenance.go).
	prov            *causal.Recorder
	lastProfileSpan causal.SpanID

	// scratch is the working set every budget computation reuses, so the
	// per-tick BudgetsAt and the 2×slots computations of BudgetTemplates
	// allocate no per-server buffers. Like the metric handles, it makes a
	// GOA a one-goroutine value even for its read-style methods.
	scratch budgetSplit
}

// NewGOA creates a gOA for the named rack with the given power limit.
func NewGOA(rack string, limitWatts float64) *GOA {
	return &GOA{rack: rack, limit: limitWatts, profiles: make(map[string]ServerProfile)}
}

// Rack returns the rack name.
func (g *GOA) Rack() string { return g.rack }

// Limit returns the rack power limit in watts.
func (g *GOA) Limit() float64 { return g.limit }

// SetLimit updates the rack power limit (e.g. for power-constrained
// experiments).
func (g *GOA) SetLimit(watts float64) { g.limit = watts }

// SetProfile installs or replaces a server's reported profile.
func (g *GOA) SetProfile(server string, p ServerProfile) {
	if _, ok := g.profiles[server]; !ok {
		g.names = nil
	}
	g.profiles[server] = p
}

// Servers returns the profiled server names, sorted for determinism.
func (g *GOA) Servers() []string {
	names := g.sortedNames()
	return append(make([]string, 0, len(names)), names...)
}

// sortedNames returns the gOA's cached sorted server names, sorting them
// first when the set of servers has changed. Callers must not modify it.
func (g *GOA) sortedNames() []string {
	if g.names == nil && len(g.profiles) > 0 {
		g.names = make([]string, 0, len(g.profiles))
		for name := range g.profiles {
			g.names = append(g.names, name)
		}
		sort.Strings(g.names)
	}
	return g.names
}

// BudgetsAt computes the heterogeneous per-server power budgets for the
// time-of-day of ts, in three phases (§IV-C):
//
//  1. separate each server's template power into regular and overclock
//     portions using the granted-core counts from its overclock template;
//  2. assign each server its regular power as the initial budget;
//  3. split the remaining rack headroom in proportion to each server's
//     overclock need (requested cores × per-core cost).
//
// When the regular power alone exceeds the limit, budgets are scaled down
// proportionally. With no overclock demand anywhere the headroom is split
// evenly (the fair-share fallback).
func (g *GOA) BudgetsAt(ts time.Time) map[string]float64 {
	split := g.BudgetSplit(ts)
	if split == nil {
		return nil
	}
	budgets := make(map[string]float64, len(split))
	for i, name := range g.names {
		budgets[name] = split[i]
	}
	return budgets
}

// BudgetSplit is BudgetsAt as a slice view: the same recorded computation,
// its budgets in Servers order, so a sum over them runs in one fixed order.
// The slice is the gOA's working set, valid until its next budget
// computation; nil when no server is profiled. It allocates nothing once
// the working set is sized.
func (g *GOA) BudgetSplit(ts time.Time) []float64 {
	names := g.sortedNames()
	if len(names) == 0 {
		return nil
	}
	sp := g.splitFor(names)
	g.split(ts, sp)
	return sp.budgets
}

// budgetSplit is the working set of one budget computation, indexed like
// the sorted server names.
type budgetSplit struct {
	profiles               []ServerProfile
	regular, need, budgets []float64
	// sum is what the last computation recorded as its budget sum.
	sum float64
}

// splitFor loads the profiles of names, in order, into the gOA's scratch
// working set and sizes its buffers.
func (g *GOA) splitFor(names []string) *budgetSplit {
	sp := &g.scratch
	sp.profiles = sp.profiles[:0]
	for _, name := range names {
		sp.profiles = append(sp.profiles, g.profiles[name])
	}
	n := len(names)
	if cap(sp.budgets) < n {
		sp.regular, sp.need, sp.budgets = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	sp.regular, sp.need, sp.budgets = sp.regular[:n], sp.need[:n], sp.budgets[:n]
	return sp
}

// split runs BudgetsAt's three phases for ts into sp.budgets and records
// the computation. Sums run in sorted-name order, so every budget is
// bit-identical however the caller keys the result.
func (g *GOA) split(ts time.Time, sp *budgetSplit) {
	var sumRegular, sumNeed float64
	for i, p := range sp.profiles {
		total := 0.0
		if p.Power != nil {
			total = p.Power.At(ts)
		}
		ocPortion := p.OC.GrantedAt(ts) * p.OCCoreCost
		reg := total - ocPortion
		if reg < 0 {
			reg = 0
		}
		sp.regular[i] = reg
		sumRegular += reg
		n := p.OC.RequestedAt(ts) * p.OCCoreCost
		if n < 0 {
			n = 0
		}
		sp.need[i] = n
		sumNeed += n
	}

	count := float64(len(sp.profiles))
	if sumRegular >= g.limit {
		// No headroom: scale regular demand into the limit.
		for i := range sp.budgets {
			if sumRegular > 0 {
				sp.budgets[i] = g.limit * sp.regular[i] / sumRegular
			} else {
				sp.budgets[i] = g.limit / count
			}
		}
		sp.sum = g.limit
		g.obsBudgets(sp.sum)
		return
	}
	headroom := g.limit - sumRegular
	sum := 0.0
	for i := range sp.budgets {
		extra := headroom / count
		if sumNeed > 0 {
			extra = headroom * sp.need[i] / sumNeed
		}
		sp.budgets[i] = sp.regular[i] + extra
		sum += sp.budgets[i]
	}
	sp.sum = sum
	g.obsBudgets(sum)
}

// BudgetTemplates evaluates BudgetsAt across every time-of-day slot and
// returns one budget WeekTemplate per server — the artifact the gOA pushes
// to each sOA on the (e.g. weekly) assignment cadence. step is the slot
// width, typically the profile recording step. The server names are sorted
// once and one working set serves every slot; each slot is still one
// recorded budget computation, bit-identical to BudgetsAt at that instant.
func (g *GOA) BudgetTemplates(step time.Duration) map[string]*timeseries.WeekTemplate {
	names := g.sortedNames()
	if len(names) == 0 {
		return nil
	}
	slots := templateSlots(step)
	out := make(map[string]*timeseries.WeekTemplate, len(names))
	tpls := make([]*timeseries.WeekTemplate, len(names))
	for i, name := range names {
		tpls[i] = &timeseries.WeekTemplate{
			Weekday: &timeseries.DayTemplate{Step: step, Kind: timeseries.Weekdays, Slots: make([]float64, slots)},
			Weekend: &timeseries.DayTemplate{Step: step, Kind: timeseries.Weekends, Slots: make([]float64, slots)},
		}
		out[name] = tpls[i]
	}
	// Reference days: a Monday and a Saturday (any instances work — only
	// time-of-day and weekday-kind matter).
	monday := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	saturday := time.Date(2023, 4, 15, 0, 0, 0, 0, time.UTC)
	sp := g.splitFor(names)
	for i := 0; i < slots; i++ {
		offset := time.Duration(i) * step
		g.split(monday.Add(offset), sp)
		for k, tpl := range tpls {
			tpl.Weekday.Slots[i] = sp.budgets[k]
		}
		g.split(saturday.Add(offset), sp)
		for k, tpl := range tpls {
			tpl.Weekend.Slots[i] = sp.budgets[k]
		}
	}
	return out
}

// templateSlots is the number of time-of-day slots of width step that
// BudgetTemplates fills per day kind.
func templateSlots(step time.Duration) int {
	return max(1, int(24*time.Hour/step))
}

// ReplayBudgetTemplates is a replay, not a computation: it records on g's
// instruments exactly what BudgetTemplates(step) would record there — one
// budget computation per slot and day kind, then the last computation's
// budget sum — without splitting anything. src is a gOA with g's profiles
// and limit whose last computation was BudgetTemplates(step); the split's
// outcome is read from it, so a run that reuses src's templates observes
// the split it did not repeat. Like the split, the replay emits no trace
// event and no provenance. It is a no-op on an uninstrumented or
// unprofiled g.
func (g *GOA) ReplayBudgetTemplates(src *GOA, step time.Duration) {
	if g.obs == nil || len(g.profiles) == 0 {
		return
	}
	for i := 2 * templateSlots(step); i > 0; i-- {
		g.obs.computations.Inc()
	}
	g.obs.lastSum.Set(src.scratch.sum)
}

// DatacenterAgent applies the same heterogeneous three-phase split one
// level up the power-delivery hierarchy (§II): a datacenter (or row)
// budget is divided across rack limits in proportion to each rack's
// regular draw and overclocking demand. The algorithm composes — the
// resulting rack limits feed each rack's gOA, whose per-server budgets
// again sum to its (new) limit.
type DatacenterAgent struct {
	goa *GOA
}

// NewDatacenterAgent creates an agent managing budgetWatts across racks.
func NewDatacenterAgent(name string, budgetWatts float64) *DatacenterAgent {
	return &DatacenterAgent{goa: NewGOA(name, budgetWatts)}
}

// SetRackProfile installs one rack's aggregate profile: its power template
// (sum of server templates or the rack recorder) and overclock template
// (summed requested/granted cores), with the fleet's per-core cost.
func (d *DatacenterAgent) SetRackProfile(rack string, p ServerProfile) {
	d.goa.SetProfile(rack, p)
}

// RackLimitsAt returns the heterogeneous rack power limits for the
// time-of-day of ts.
func (d *DatacenterAgent) RackLimitsAt(ts time.Time) map[string]float64 {
	return d.goa.BudgetsAt(ts)
}
