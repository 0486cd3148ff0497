package lifetime

import (
	"fmt"
	"time"
)

// BudgetState is the serializable state of one Budget. The configuration is
// deliberately absent: config is code, state is data — a restored process
// re-creates the Budget from its own configuration and only the ledger
// (epoch position, remaining allowance, reservations) comes from the
// checkpoint.
type BudgetState struct {
	EpochStart time.Time     `json:"epoch_start"`
	Remaining  time.Duration `json:"remaining"`
	Reserved   time.Duration `json:"reserved"`
}

// Snapshot captures the budget's ledger.
func (b *Budget) Snapshot() BudgetState {
	return BudgetState{EpochStart: b.epochStart, Remaining: b.remaining, Reserved: b.reserved}
}

// Restore overwrites the ledger from a snapshot, keeping the configuration.
func (b *Budget) Restore(st BudgetState) {
	b.epochStart = st.EpochStart
	b.remaining = st.Remaining
	b.reserved = st.Reserved
}

// CoreBudgetsState is the serializable state of a per-core budget set.
type CoreBudgetsState struct {
	Cores []BudgetState `json:"cores"`
}

// Snapshot captures every core's ledger.
func (cb *CoreBudgets) Snapshot() *CoreBudgetsState {
	st := &CoreBudgetsState{Cores: make([]BudgetState, len(cb.cores))}
	for i := range cb.cores {
		st.Cores[i] = cb.cores[i].Snapshot()
	}
	return st
}

// Restore overwrites every core's ledger from a snapshot. It fails when the
// snapshot was taken on a server with a different core count — restoring a
// mismatched ledger would silently mis-assign budgets.
func (cb *CoreBudgets) Restore(st *CoreBudgetsState) error {
	if len(st.Cores) != len(cb.cores) {
		return fmt.Errorf("lifetime: snapshot has %d cores, budgets have %d", len(st.Cores), len(cb.cores))
	}
	for i := range cb.cores {
		cb.cores[i].Restore(st.Cores[i])
	}
	cb.resetDue()
	return nil
}

// WearState is the serializable form of one core's wear counters: the aging
// it accumulated and the wall-clock time that aging is judged against. As
// with BudgetState the aging model is not serialized; only the counters
// are.
type WearState struct {
	Aged    time.Duration `json:"aged"`
	Elapsed time.Duration `json:"elapsed"`
}
