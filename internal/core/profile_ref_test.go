package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/stats"
	"smartoclock/internal/store"
	"smartoclock/internal/timeseries"
)

// refProfile is the sOA's profile recording and report as they were while
// the sOA recorded the whole run: every closed slot appends the power
// reading, the requested cores and the granted cores to three series, and
// a report reads their tails. Recording mirrors the old recordProfile from
// outside the agent: after a tick, every slot boundary the tick crossed is
// closed with the host's reading and the agent's granted cores, which no
// step after recordProfile in Tick changes.
type refProfile struct {
	power, requested, granted *timeseries.Series
	next                      time.Time
	step                      time.Duration
	slotRequested             int
}

func newRefProfile(start time.Time, step time.Duration) *refProfile {
	return &refProfile{
		power:     timeseries.New(start, step),
		requested: timeseries.New(start, step),
		granted:   timeseries.New(start, step),
		next:      start.Add(step),
		step:      step,
	}
}

func (r *refProfile) closeSlots(now time.Time, host core.Host, a *core.SOA) {
	for !now.Before(r.next) {
		r.power.Append(host.Power())
		r.requested.Append(float64(r.slotRequested))
		r.granted.Append(float64(a.ActiveOCCores()))
		r.slotRequested = 0
		r.next = r.next.Add(r.step)
	}
}

// report is the rigs' old recentProfile with SOA.RecentRequestedCores(5)
// inlined, verbatim.
func (r *refProfile) report(a *core.SOA, host core.Host) (med, requested, granted float64) {
	window := r.power.Values
	if len(window) > 10 {
		window = window[len(window)-10:]
	}
	med = stats.Median(window)
	if len(window) == 0 {
		med = host.Power()
	}
	granted = float64(a.ActiveOCCores())
	requested = r.recentRequestedCores(5)
	if granted > requested {
		requested = granted
	}
	return med, requested, granted
}

func (r *refProfile) recentRequestedCores(n int) float64 {
	vals := r.requested.Values
	if len(vals) == 0 {
		return float64(r.slotRequested)
	}
	if len(vals) > n {
		vals = vals[len(vals)-n:]
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// TestRecentProfileMatchesReference runs seeded programs of requests, stops
// and ticks under varying host power, some ticks closing several slots at
// once, and restores the agent from a store checkpoint at random ticks. A
// profile report must equal the full-recording reference bit for bit after
// every step.
func TestRecentProfileMatchesReference(t *testing.T) {
	start := time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC)
	cfg := core.DefaultSOAConfig()
	cfg.ProfileStep = time.Minute
	hw := machine.DefaultConfig()
	hw.Cores = 16
	bcfg := lifetime.BudgetConfig{Epoch: 2 * time.Hour, Fraction: 0.3, CarryOver: true, MaxCarryOver: 1}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		host := cluster.NewServer("s", hw, 0)
		setUtil := func() {
			for c := 0; c < host.NumCores(); c++ {
				host.SetCoreUtil(c, rng.Float64())
			}
		}
		setUtil()
		// A budget near the host's draw, so some requests are refused.
		budget := host.Power() * (0.9 + 0.3*rng.Float64())
		newAgent := func() *core.SOA {
			return core.NewSOA(cfg, host, lifetime.NewCoreBudgets(bcfg, host.NumCores(), start), budget, start)
		}
		a := newAgent()
		ref := newRefProfile(start, cfg.ProfileStep)
		now := start
		restores, multiSlot := 0, 0
		check := func(step int, what string) {
			t.Helper()
			gm, gr, gg := a.RecentProfile()
			wm, wr, wg := ref.report(a, host)
			if math.Float64bits(gm) != math.Float64bits(wm) || math.Float64bits(gr) != math.Float64bits(wr) ||
				math.Float64bits(gg) != math.Float64bits(wg) {
				t.Fatalf("seed %d step %d (%s): report (%v W, %v req, %v granted), reference (%v W, %v req, %v granted)",
					seed, step, what, gm, gr, gg, wm, wr, wg)
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				cores := 1 + rng.Intn(4)
				a.Request(now, core.Request{
					VM: fmt.Sprintf("vm%d", rng.Intn(6)), Cores: cores,
					TargetMHz: 4000, Priority: core.Priority(rng.Intn(2)),
				})
				ref.slotRequested += cores
				check(step, "request")
			case op < 4:
				a.Stop(now, fmt.Sprintf("vm%d", rng.Intn(6)))
				check(step, "stop")
			case op < 5:
				setUtil()
				check(step, "util")
			default:
				dt := time.Duration(10+rng.Intn(50)) * time.Second
				if rng.Intn(8) == 0 {
					dt = time.Duration(2+rng.Intn(4)) * cfg.ProfileStep // a catch-up tick
				}
				before := ref.power.Len()
				now = now.Add(dt)
				a.Tick(now)
				ref.closeSlots(now, host, a)
				if ref.power.Len()-before > 1 {
					multiSlot++
				}
				check(step, "tick")
			}
			if rng.Intn(20) == 0 {
				data, err := store.Encode(now, &store.Checkpoint{SOAs: map[string]*core.SOAState{"s": a.Snapshot()}})
				if err != nil {
					t.Fatal(err)
				}
				var cp store.Checkpoint
				if _, err := store.Decode(data, &cp); err != nil {
					t.Fatal(err)
				}
				a = newAgent()
				if err := a.Restore(cp.SOAs["s"]); err != nil {
					t.Fatalf("seed %d step %d: restore: %v", seed, step, err)
				}
				restores++
				check(step, "restore")
			}
		}
		if restores == 0 || multiSlot == 0 || ref.power.Len() <= 10 {
			t.Fatalf("seed %d: program ran %d restores, %d catch-up ticks, %d slots; want each of the first two and more than 10 slots",
				seed, restores, multiSlot, ref.power.Len())
		}
	}
}
