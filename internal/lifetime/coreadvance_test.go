package lifetime

import (
	"math/rand"
	"testing"
	"time"
)

// TestCoreBudgetsAdvanceMatchesPerCore is the property behind CoreBudgets'
// one-compare Advance: under any interleaving of advances (forwards across
// several epochs, and backwards), reservations, spends, releases and
// snapshot/restore of ledgers whose cores sit in different epochs, the set
// is indistinguishable from advancing every core's Budget on its own.
func TestCoreBudgetsAdvanceMatchesPerCore(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := BudgetConfig{
			Epoch:        time.Duration(1+rng.Intn(48)) * time.Hour,
			Fraction:     0.05 + 0.5*rng.Float64(),
			CarryOver:    rng.Intn(2) == 0,
			MaxCarryOver: rng.Float64() * 2,
		}
		n := 1 + rng.Intn(12)
		cb := NewCoreBudgets(cfg, n, epoch0)
		ref := make([]*Budget, n)
		for i := range ref {
			ref[i] = NewBudget(cfg, epoch0)
		}
		randDur := func(max time.Duration) time.Duration {
			return time.Duration(rng.Int63n(int64(max)))
		}
		now := epoch0
		for step := 0; step < 400; step++ {
			c := rng.Intn(n)
			switch op := rng.Intn(8); op {
			case 0, 1, 2:
				// Mostly forwards, sometimes across several epochs,
				// sometimes backwards.
				now = now.Add(randDur(4*cfg.Epoch) - cfg.Epoch)
				cb.Advance(now)
				for _, b := range ref {
					b.Advance(now)
				}
			case 3:
				d := randDur(cfg.Allowance() + time.Minute)
				if got, want := cb.Core(c).Reserve(d), ref[c].Reserve(d); got != want {
					t.Fatalf("seed %d step %d: Reserve = %v, reference %v", seed, step, got, want)
				}
			case 4:
				d, fromRes := randDur(cfg.Allowance()/2+time.Minute), rng.Intn(2) == 0
				if got, want := cb.Core(c).Consume(d, fromRes), ref[c].Consume(d, fromRes); got != want {
					t.Fatalf("seed %d step %d: Consume = %v, reference %v", seed, step, got, want)
				}
			case 5:
				d := randDur(cfg.Allowance() + time.Minute)
				cb.Core(c).ReleaseReservation(d)
				ref[c].ReleaseReservation(d)
			case 6, 7:
				// Snapshot, give each core its own epoch start (some behind
				// now by several epochs, some ahead), and restore — into the
				// same ledger or into a fresh one started elsewhere.
				st := cb.Snapshot()
				for i := range st.Cores {
					st.Cores[i].EpochStart = now.Add(randDur(4*cfg.Epoch) - 3*cfg.Epoch)
					ref[i].Restore(st.Cores[i])
				}
				if op == 7 {
					cb = NewCoreBudgets(cfg, n, now.Add(randDur(2*cfg.Epoch)))
				}
				if err := cb.Restore(st); err != nil {
					t.Fatal(err)
				}
			}
			for i, b := range ref {
				got, want := cb.Core(i).Snapshot(), b.Snapshot()
				if !got.EpochStart.Equal(want.EpochStart) || got.Remaining != want.Remaining || got.Reserved != want.Reserved {
					t.Fatalf("seed %d step %d core %d: ledger %+v, reference %+v", seed, step, i, got, want)
				}
			}
		}
	}
}

// TestCoreBudgetsAdvanceAllocs guards the per-tick path: Advance allocates
// nothing, whether or not an epoch rolls over.
func TestCoreBudgetsAdvanceAllocs(t *testing.T) {
	cfg := DefaultBudgetConfig()
	cb := NewCoreBudgets(cfg, 64, epoch0)
	now := epoch0
	if a := testing.AllocsPerRun(1000, func() {
		now = now.Add(time.Minute)
		cb.Advance(now)
	}); a != 0 {
		t.Fatalf("Advance within an epoch allocates %.1f objects per call", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		now = now.Add(cfg.Epoch)
		cb.Advance(now)
	}); a != 0 {
		t.Fatalf("Advance across an epoch allocates %.1f objects per call", a)
	}
}
