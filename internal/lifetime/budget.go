package lifetime

import (
	"fmt"
	"time"
)

// BudgetConfig parameterizes epoch-based overclocking time budgets.
// A maximum total overclocking time (e.g. 10% over the part's life) is
// agreed offline with vendors; SmartOClock divides it into epochs so the
// part ages uniformly (§IV-B).
type BudgetConfig struct {
	// Epoch is the budgeting period. The paper uses a week so unused
	// weekend budget can serve weekdays.
	Epoch time.Duration
	// Fraction is the share of each epoch a core may spend overclocked.
	Fraction float64
	// CarryOver enables rolling unused budget into the next epoch.
	CarryOver bool
	// MaxCarryOver caps accumulated carry-over, expressed in epochs of
	// fresh allowance (1.0 = at most one extra epoch's worth).
	MaxCarryOver float64
}

// DefaultBudgetConfig returns the paper's running example: a weekly epoch
// with a 10% overclocking allowance and carry-over of at most one epoch.
func DefaultBudgetConfig() BudgetConfig {
	return BudgetConfig{
		Epoch:        7 * 24 * time.Hour,
		Fraction:     0.10,
		CarryOver:    true,
		MaxCarryOver: 1.0,
	}
}

// Validate reports whether the configuration is consistent.
func (c BudgetConfig) Validate() error {
	switch {
	case c.Epoch <= 0:
		return fmt.Errorf("lifetime: Epoch = %v, must be positive", c.Epoch)
	case c.Fraction < 0 || c.Fraction > 1:
		return fmt.Errorf("lifetime: Fraction = %v out of [0,1]", c.Fraction)
	case c.MaxCarryOver < 0:
		return fmt.Errorf("lifetime: MaxCarryOver = %v, must be non-negative", c.MaxCarryOver)
	}
	return nil
}

// Allowance returns the fresh overclocking time granted each epoch.
func (c BudgetConfig) Allowance() time.Duration {
	return time.Duration(float64(c.Epoch) * c.Fraction)
}

// Budget tracks the overclocking time budget of one component (typically a
// core) across epochs, including reservations for scheduled overclocking.
type Budget struct {
	cfg        BudgetConfig
	epochStart time.Time
	remaining  time.Duration
	reserved   time.Duration
}

// NewBudget creates a budget whose first epoch starts at start.
// It panics on an invalid configuration.
func NewBudget(cfg BudgetConfig, start time.Time) *Budget {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Budget{cfg: cfg, epochStart: start, remaining: cfg.Allowance()}
}

// Config returns the budget configuration.
func (b *Budget) Config() BudgetConfig { return b.cfg }

// EpochStart returns the start of the current epoch (after Advance).
func (b *Budget) EpochStart() time.Time { return b.epochStart }

// Advance rolls the budget forward to now, crossing epoch boundaries as
// needed: reservations expire with their epoch, unused budget carries over
// when configured (capped), and a fresh allowance is added per epoch.
func (b *Budget) Advance(now time.Time) {
	for now.Sub(b.epochStart) >= b.cfg.Epoch {
		b.epochStart = b.epochStart.Add(b.cfg.Epoch)
		b.reserved = 0
		fresh := b.cfg.Allowance()
		if b.cfg.CarryOver {
			carry := b.remaining
			maxCarry := time.Duration(float64(fresh) * b.cfg.MaxCarryOver)
			if carry > maxCarry {
				carry = maxCarry
			}
			b.remaining = fresh + carry
		} else {
			b.remaining = fresh
		}
	}
}

// Remaining returns unreserved budget available for unscheduled
// (metrics-based) overclocking right now.
func (b *Budget) Remaining() time.Duration {
	r := b.remaining - b.reserved
	if r < 0 {
		return 0
	}
	return r
}

// Reserved returns the budget currently held by reservations.
func (b *Budget) Reserved() time.Duration { return b.reserved }

// Total returns remaining budget including reservations.
func (b *Budget) Total() time.Duration { return b.remaining }

// Reserve sets aside d of budget for a scheduled overclocking request.
// It reports whether the reservation fit; on false nothing changes.
func (b *Budget) Reserve(d time.Duration) bool {
	if d < 0 || d > b.Remaining() {
		return false
	}
	b.reserved += d
	return true
}

// ReleaseReservation returns up to d of previously reserved budget.
func (b *Budget) ReleaseReservation(d time.Duration) {
	if d < 0 {
		return
	}
	b.reserved -= d
	if b.reserved < 0 {
		b.reserved = 0
	}
}

// Consume spends d of budget for actual overclocked operation. When
// fromReservation is true the spend is drawn from reserved budget first.
// It reports whether the full amount was available; on false nothing is
// consumed (callers should stop overclocking).
func (b *Budget) Consume(d time.Duration, fromReservation bool) bool {
	if d < 0 {
		return false
	}
	if fromReservation {
		if d > b.remaining || d > b.reserved {
			return false
		}
		b.reserved -= d
		b.remaining -= d
		return true
	}
	if d > b.Remaining() {
		return false
	}
	b.remaining -= d
	return true
}

// CoreBudgets manages one Budget per core of a server and supports the
// paper's core-migration exploration: when a VM's cores run out of budget
// the sOA looks for other cores with headroom (§IV-D).
type CoreBudgets struct {
	cores []*Budget
	// due is a lower bound on the earliest epoch rollover among the cores:
	// until now reaches it no core can roll, so Advance is one compare.
	// NewCoreBudgets, Restore and the slow path of Advance recompute it.
	// Rolling a single core forward through Core(i) only moves that core's
	// rollover later, so the bound stays valid; moving a core's epoch start
	// backwards through Core(i).Restore would not, which is why a ledger is
	// reset only through CoreBudgets.Restore.
	due time.Time
	// candScratch backs FindCoresFiltered's candidate selection, which
	// runs on every admission attempt; reuse keeps the request hot path
	// from allocating a candidate list per call.
	candScratch []coreCand
}

// coreCand is one eligible core during budget-aware core selection.
type coreCand struct {
	idx int
	rem time.Duration
}

// NewCoreBudgets creates n per-core budgets that all start at start.
func NewCoreBudgets(cfg BudgetConfig, n int, start time.Time) *CoreBudgets {
	cb := &CoreBudgets{cores: make([]*Budget, n)}
	for i := range cb.cores {
		cb.cores[i] = NewBudget(cfg, start)
	}
	cb.resetDue()
	return cb
}

// resetDue recomputes due as the exact earliest rollover instant.
func (cb *CoreBudgets) resetDue() {
	for i, b := range cb.cores {
		if next := b.epochStart.Add(b.cfg.Epoch); i == 0 || next.Before(cb.due) {
			cb.due = next
		}
	}
}

// Len returns the number of cores.
func (cb *CoreBudgets) Len() int { return len(cb.cores) }

// Core returns core i's budget for reading, reserving and consuming. To
// reset a ledger use CoreBudgets.Restore, not Core(i).Restore: the set
// keeps a bound on its earliest epoch rollover that only its own Restore
// recomputes, and a core rewound behind that bound would not roll over.
func (cb *CoreBudgets) Core(i int) *Budget { return cb.cores[i] }

// Advance rolls every core's budget forward to now. Until the earliest
// rollover it is a single compare; once that instant passes it advances
// each core and recomputes the bound.
func (cb *CoreBudgets) Advance(now time.Time) {
	if now.Before(cb.due) {
		return
	}
	for _, b := range cb.cores {
		b.Advance(now)
	}
	cb.resetDue()
}

// TotalRemaining sums unreserved budget across cores.
func (cb *CoreBudgets) TotalRemaining() time.Duration {
	var total time.Duration
	for _, b := range cb.cores {
		total += b.Remaining()
	}
	return total
}

// FindCores returns the indices of up to n cores that each have at least
// need of unreserved budget, preferring the cores with the most budget so
// wear levels out. It returns nil when fewer than n cores qualify.
func (cb *CoreBudgets) FindCores(n int, need time.Duration) []int {
	return cb.FindCoresFiltered(n, need, nil)
}

// FindCoresFiltered is FindCores with an extra eligibility predicate
// (nil accepts every core) — used to exclude cores whose online wear
// counters report exhausted headroom.
func (cb *CoreBudgets) FindCoresFiltered(n int, need time.Duration, ok func(core int) bool) []int {
	cands := cb.candScratch[:0]
	for i, b := range cb.cores {
		if rem := b.Remaining(); rem >= need && (ok == nil || ok(i)) {
			cands = append(cands, coreCand{i, rem})
		}
	}
	cb.candScratch = cands
	if len(cands) < n {
		return nil
	}
	// Selection by most remaining budget, in the order a swap-based
	// selection sort picks (the first of equal values first), but one pass
	// per distinct value instead of one per pick: each pass takes the
	// largest remaining value and swaps every candidate holding it to the
	// front, in position order. The positions between the front and the
	// scan never hold that value, so each swap is the one the sort makes.
	for front := 0; front < n; {
		top := cands[front].rem
		for _, c := range cands[front+1:] {
			if c.rem > top {
				top = c.rem
			}
		}
		for j := front; j < len(cands) && front < n; j++ {
			if cands[j].rem == top {
				cands[front], cands[j] = cands[j], cands[front]
				front++
			}
		}
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].idx
	}
	return out
}
