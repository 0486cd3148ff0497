package lifetime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refFindCoresFiltered is FindCoresFiltered as it was before selection
// went one pass per distinct value: a swap-based selection sort, one scan
// per pick. Only the candidate slice is local instead of the ledger's
// scratch, so running it leaves the ledger untouched.
func refFindCoresFiltered(cb *CoreBudgets, n int, need time.Duration, ok func(core int) bool) []int {
	var cands []coreCand
	for i, b := range cb.cores {
		if b.Remaining() >= need && (ok == nil || ok(i)) {
			cands = append(cands, coreCand{i, b.Remaining()})
		}
	}
	if len(cands) < n {
		return nil
	}
	// Selection by most remaining budget; stable on index for determinism.
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].rem > cands[best].rem {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].idx
	}
	return out
}

var findStart = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

// ledgerWith returns a ledger whose core i has rems[i] of unreserved
// budget.
func ledgerWith(rems []time.Duration) *CoreBudgets {
	cb := NewCoreBudgets(DefaultBudgetConfig(), len(rems), findStart)
	for i, r := range rems {
		cb.cores[i].remaining = r
	}
	return cb
}

// checkFindCores compares FindCoresFiltered with the reference for every n
// from 0 to one past the core count: the same cores in the same order, and
// nil from both when too few cores qualify.
func checkFindCores(t *testing.T, cb *CoreBudgets, need time.Duration, ok func(int) bool, what string) {
	t.Helper()
	for n := 0; n <= cb.Len()+1; n++ {
		got := cb.FindCoresFiltered(n, need, ok)
		want := refFindCoresFiltered(cb, n, need, ok)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("%s n=%d need=%v: got %v, reference %v", what, n, need, got, want)
		}
	}
}

// maskFilter admits core i when bit i%64 of mask is set.
func maskFilter(mask uint64) func(int) bool {
	return func(c int) bool { return mask&(1<<(c%64)) != 0 }
}

// TestFindCoresFilteredMatchesSelectionSort checks one-pass-per-value
// selection against the selection sort over seeded ledgers with heavy
// ties: one to four distinct remaining values, with and without a filter,
// at needs that admit every core, some of them and none.
func TestFindCoresFilteredMatchesSelectionSort(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]time.Duration, 1+rng.Intn(4))
		for i := range vals {
			vals[i] = time.Duration(rng.Intn(20)) * time.Minute
		}
		rems := make([]time.Duration, rng.Intn(70))
		for i := range rems {
			rems[i] = vals[rng.Intn(len(vals))]
		}
		cb := ledgerWith(rems)
		needs := []time.Duration{0, vals[rng.Intn(len(vals))], 20 * time.Minute}
		for _, need := range needs {
			checkFindCores(t, cb, need, nil, fmt.Sprintf("seed %d unfiltered", seed))
			checkFindCores(t, cb, need, maskFilter(rng.Uint64()), fmt.Sprintf("seed %d filtered", seed))
		}
	}
}

// TestFindCoresFilteredTiedAllocs holds selection over a tied, filtered
// ledger to its one allocation: the returned slice.
func TestFindCoresFilteredTiedAllocs(t *testing.T) {
	rems := make([]time.Duration, 64)
	for i := range rems {
		rems[i] = time.Duration(i%3) * time.Hour
	}
	cb := ledgerWith(rems)
	ok := maskFilter(0xF0F0F0F0F0F0F0F0)
	cb.FindCoresFiltered(10, time.Minute, ok) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		cb.FindCoresFiltered(10, time.Minute, ok)
	})
	if allocs != 1 {
		t.Fatalf("FindCoresFiltered allocates %.1f objects per call, want 1 (the result slice)", allocs)
	}
}

// FuzzFindCores drives both selections from fuzzed ledgers: each byte of
// budgets is one core, its high nibble that core's remaining minutes, so
// ties are common; need and n are small counts and mask filters cores.
func FuzzFindCores(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x10, 0x30, 0x20}, uint8(1), uint8(3), uint64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(0), uint8(4), uint64(0b1011))
	f.Add([]byte{}, uint8(0), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, budgets []byte, need, n uint8, mask uint64) {
		if len(budgets) > 256 {
			budgets = budgets[:256]
		}
		rems := make([]time.Duration, len(budgets))
		for i, b := range budgets {
			rems[i] = time.Duration(b>>4) * time.Minute
		}
		cb := ledgerWith(rems)
		needD := time.Duration(need%17) * time.Minute
		var ok func(int) bool
		if mask != 0 {
			ok = maskFilter(mask)
		}
		got := cb.FindCoresFiltered(int(n), needD, ok)
		want := refFindCoresFiltered(cb, int(n), needD, ok)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("n=%d need=%v mask=%#x: got %v, reference %v", n, needD, mask, got, want)
		}
	})
}
