package experiment

import (
	"fmt"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/cluster"
	"smartoclock/internal/machine"
	"smartoclock/internal/power"
	"smartoclock/internal/sim"
	"smartoclock/internal/store"
)

// RecoveryConfig parameterizes the crash-recovery experiment: a rack whose
// whole control plane (gOA plus every sOA) crashes mid-run and comes back
// either cold (all in-memory state lost — profiles, budgets, sessions) or
// warm (restored from the last durable checkpoint). It is the reproduction's
// version of the paper's Fig 17 unavailability analysis, extended with the
// recovery dimension: how fast overclocking comes back after the restart,
// and how far the rebooted gOA's budget splits sit from an uninterrupted
// oracle's.
//
// The rig is deliberately noiseless — constant asymmetric demand, no random
// draws, a synchronous control plane — so every difference between the
// oracle, cold and warm runs is attributable to state loss alone. Message
// faults are the chaos experiment's job.
type RecoveryConfig struct {
	Seed     int64
	Start    time.Time
	Duration time.Duration
	// Tick is the control cadence (sOA ticks, workload updates, metrics).
	Tick    time.Duration
	Servers int
	HW      machine.Config

	// CrashAt (offset into the run) is when the control plane dies;
	// DownFor is how long it stays dead. Both cold and warm runs lose the
	// down window itself — the modes differ only in what the restart knows.
	CrashAt time.Duration
	DownFor time.Duration

	// Staleness lists the checkpoint ages to sweep for warm restarts: each
	// value yields one warm run restored from a checkpoint taken
	// CrashAt−staleness into the run. Staler checkpoints restore older
	// budgets and session sets.
	Staleness []time.Duration

	// BudgetEpoch/OCBudgetFraction set the per-core overclock time budget
	// (durable across crashes, like NVRAM-backed wear accounting).
	BudgetEpoch      time.Duration
	OCBudgetFraction float64
	// RackLimitScale scales the rack limit relative to baseline-plus-full-
	// overclock draw: >1 leaves headroom so the gOA can fund every hot
	// server once it knows their profiles, while the even share a cold sOA
	// falls back to cannot.
	RackLimitScale float64
}

// DefaultRecoveryConfig returns the profile behind `socsim -recovery`:
// eight servers (half hot, half cool), a 2-minute control-plane outage at
// the 30-minute mark of a 1-hour run, warm restarts swept across 1, 5 and
// 15-minute-old checkpoints.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		Seed:             1,
		Start:            time.Date(2023, 4, 10, 9, 0, 0, 0, time.UTC),
		Duration:         time.Hour,
		Tick:             5 * time.Second,
		Servers:          8,
		HW:               machine.DefaultConfig(),
		CrashAt:          30 * time.Minute,
		DownFor:          2 * time.Minute,
		Staleness:        []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute},
		BudgetEpoch:      7 * 24 * time.Hour,
		OCBudgetFraction: 0.25,
		RackLimitScale:   1.10,
	}
}

// Validate reports whether the configuration is runnable.
func (c RecoveryConfig) Validate() error {
	switch {
	case c.Tick <= 0 || c.Duration < c.Tick:
		return fmt.Errorf("experiment: bad recovery tick/duration %v/%v", c.Tick, c.Duration)
	case c.Servers < 2:
		return fmt.Errorf("experiment: recovery needs >= 2 servers for a hot/cool split, got %d", c.Servers)
	case c.CrashAt <= 0 || c.CrashAt+c.DownFor >= c.Duration:
		return fmt.Errorf("experiment: crash window [%v, %v) outside run", c.CrashAt, c.CrashAt+c.DownFor)
	case c.BudgetEpoch <= 0 || c.OCBudgetFraction <= 0:
		return fmt.Errorf("experiment: bad OC budget %v/%v", c.BudgetEpoch, c.OCBudgetFraction)
	case c.RackLimitScale <= 0:
		return fmt.Errorf("experiment: recovery RackLimitScale = %v, must be positive", c.RackLimitScale)
	}
	for _, s := range c.Staleness {
		if s <= 0 || s >= c.CrashAt {
			return fmt.Errorf("experiment: checkpoint staleness %v outside (0, CrashAt)", s)
		}
	}
	return c.HW.Validate()
}

// RecoveryRun is one mode's outcome.
type RecoveryRun struct {
	// Mode is "cold" or "warm"; Staleness is the checkpoint age for warm
	// runs (zero for cold).
	Mode      string
	Staleness time.Duration
	// TimeToFirstGrant is how long after the restart instant overclocking
	// first ran again (restored sessions count — that is the point of warm
	// restarts). Negative means it never did.
	TimeToFirstGrant time.Duration
	// GrantedCoreTicks sums active overclocked cores per tick over the
	// post-crash window [CrashAt, Duration).
	GrantedCoreTicks int
	// GapCoreTicks is the grant-availability gap: the oracle's granted
	// core-ticks minus this run's, over the same post-crash window.
	GapCoreTicks int
	// PushesMissed counts budget-push instants where the oracle's gOA
	// pushed but this run's could not (down, or no profiles yet).
	PushesMissed int
	// BudgetDivergence is the mean, over post-restart push instants where
	// both gOAs pushed, of the summed per-server |budget − oracle budget|
	// in watts.
	BudgetDivergence float64
}

// RecoveryResult aggregates the sweep.
type RecoveryResult struct {
	Config RecoveryConfig
	// OracleCoreTicks is the uninterrupted run's granted core-ticks over
	// the post-crash window — the availability ceiling.
	OracleCoreTicks int
	// Runs holds the cold run followed by one warm run per staleness.
	Runs []RecoveryRun
}

// recoveryPushLog records every budget push: instant → server → watts.
type recoveryPushLog map[int64]map[string]float64

// recoveryOutcome is one simulated run's raw output.
type recoveryOutcome struct {
	grantedCoreTicks int // over the post-crash window
	firstGrantAfter  time.Duration
	pushes           recoveryPushLog
}

// runRecoveryOnce simulates one run. mode: "oracle" never crashes; "cold"
// restarts with empty state; "warm" restores from a checkpoint taken
// staleness before the crash.
func runRecoveryOnce(cfg RecoveryConfig, mode string, staleness time.Duration) recoveryOutcome {
	eng := sim.NewEngine(cfg.Start, cfg.Seed)
	crashAt := cfg.Start.Add(cfg.CrashAt)
	restartAt := crashAt.Add(cfg.DownFor)

	// Hot servers (the first half) host a latency-critical VM on half their
	// cores with constant overclock demand; cool servers idle. Utilization
	// is constant — the only dynamics in this rig are control-plane ones.
	hot := func(i int) bool { return i < cfg.Servers/2 }
	servers := make([]*rigServer[*cluster.Server], cfg.Servers)
	for i := range servers {
		servers[i] = newRigServer(cluster.NewServer(fmt.Sprintf("rec-%02d", i), cfg.HW, 0), cfg.HW.OCCoreCost(), cfg.HW.Cores/2)
		if hot(i) {
			setUtil(servers[i], 0.85, 0.45)
		} else {
			setUtil(servers[i], 0.35, 0.35)
		}
	}

	// Rack limit: baseline plus the full hot-set overclock delta, scaled.
	// The gOA can fund every hot server once profiled; the even share a
	// cold sOA starts from cannot cover a hot server's baseline + delta.
	est, fullOC := 0.0, 0.0
	for i, s := range servers {
		est += s.srv.Power()
		if hot(i) {
			fullOC += s.srv.OCDeltaWatts(len(s.vmCores), s.srv.MaxOCMHz(), 0.9)
		}
	}

	soaCfg := rigSOAConfig()
	soaCfg.AdmissionUtil = 0.7
	// No exploration: grants return exactly when budgets do, which keeps
	// the recovery signal clean (exploration recovery is measured by the
	// chaos experiment).
	soaCfg.NoExplore = true
	soaCfg.ExploreStepWatts = 0

	// The rack manager never ticks here: the limit leaves headroom by
	// construction, so only the gOA's split and the sOAs' admission act.
	rg := &rig[*cluster.Server]{
		goaID:   "goa",
		limit:   cfg.RackLimitScale * (est + fullOC),
		soaCfg:  soaCfg,
		bcfg:    rigBudgetConfig(cfg.BudgetEpoch, cfg.OCBudgetFraction),
		start:   cfg.Start,
		servers: servers,
	}
	rg.assemble(power.DefaultRackConfig("rack-recovery", rg.limit))

	// --- Durable checkpoint (warm mode only) -------------------------------
	var ckptBytes []byte
	if mode == "warm" {
		eng.At(crashAt.Add(-staleness), func() {
			// The ledgers are durable on their own: restoring a stale copy
			// would roll back consumed wear.
			cp := rg.checkpoint()
			for _, st := range cp.SOAs {
				st.Budgets = nil
			}
			data, err := store.Encode(eng.Now(), cp)
			if err != nil {
				panic(fmt.Sprintf("experiment: recovery checkpoint: %v", err))
			}
			ckptBytes = data
		})
	}

	// --- Crash and restart -------------------------------------------------
	if mode != "oracle" {
		eng.At(crashAt, func() {
			for _, s := range servers {
				s.crash()
			}
			rg.goa = nil
		})
		eng.At(restartAt, func() {
			var cp *store.Checkpoint
			if mode == "warm" && ckptBytes != nil {
				cp = new(store.Checkpoint)
				if _, err := store.Decode(ckptBytes, cp); err != nil {
					panic(fmt.Sprintf("experiment: recovery restore: %v", err))
				}
			}
			if err := rg.restore(eng.Now(), cp); err != nil {
				panic(fmt.Sprintf("experiment: recovery %v", err))
			}
		})
	}

	// --- Synchronous control plane: each message is applied as it is sent --
	// Budget pushes are logged for the divergence comparison; a cold gOA
	// with no profiles has nothing to split and logs nothing.
	out := recoveryOutcome{firstGrantAfter: -1, pushes: make(recoveryPushLog)}
	send := func(m agent.Message) error {
		now := eng.Now()
		rg.deliver(now, m)
		if at := now.UnixNano(); m.Type == "goa.budget" {
			if out.pushes[at] == nil {
				out.pushes[at] = make(map[string]float64, cfg.Servers)
			}
			s := rg.byAgent[m.To]
			out.pushes[at][s.srv.Name()] = s.budget
		}
		return nil
	}
	scheduleRigMessages(eng, rg, 0, send, func() bool { return rg.goa != nil })

	// --- Main tick ---------------------------------------------------------
	eng.Every(cfg.Start.Add(cfg.Tick), cfg.Tick, func(now time.Time) {
		active := 0
		for i, s := range servers {
			if s.soa == nil {
				continue
			}
			rg.stepServer(s, now, hot(i))
			active += s.soa.ActiveOCCores()
		}
		for _, s := range servers {
			s.srv.Advance(cfg.Tick)
		}
		if !now.Before(crashAt) {
			out.grantedCoreTicks += active
		}
		if out.firstGrantAfter < 0 && active > 0 && !now.Before(restartAt) {
			out.firstGrantAfter = now.Sub(restartAt)
		}
	})

	eng.Run(cfg.Start.Add(cfg.Duration))
	return out
}

// RunRecovery executes the sweep: one uninterrupted oracle run, one cold
// restart, and one warm restart per configured checkpoint staleness.
func RunRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	oracle := runRecoveryOnce(cfg, "oracle", 0)
	res := &RecoveryResult{Config: cfg, OracleCoreTicks: oracle.grantedCoreTicks}

	restartAt := cfg.Start.Add(cfg.CrashAt + cfg.DownFor)
	summarize := func(mode string, staleness time.Duration, out recoveryOutcome) RecoveryRun {
		run := RecoveryRun{
			Mode: mode, Staleness: staleness,
			TimeToFirstGrant: out.firstGrantAfter,
			GrantedCoreTicks: out.grantedCoreTicks,
			GapCoreTicks:     oracle.grantedCoreTicks - out.grantedCoreTicks,
		}
		var divSum float64
		var divN int
		for at, want := range oracle.pushes {
			if time.Unix(0, at).Before(restartAt) {
				continue
			}
			got, ok := out.pushes[at]
			if !ok {
				run.PushesMissed++
				continue
			}
			sum := 0.0
			for name, w := range want {
				d := got[name] - w
				if d < 0 {
					d = -d
				}
				sum += d
			}
			divSum += sum
			divN++
		}
		if divN > 0 {
			run.BudgetDivergence = divSum / float64(divN)
		}
		return run
	}

	res.Runs = append(res.Runs, summarize("cold", 0, runRecoveryOnce(cfg, "cold", 0)))
	for _, s := range cfg.Staleness {
		res.Runs = append(res.Runs, summarize("warm", s, runRecoveryOnce(cfg, "warm", s)))
	}
	return res, nil
}

// Format renders the sweep as a report table.
func (r *RecoveryResult) Format() string {
	tbl := &Table{
		Caption: fmt.Sprintf("Recovery: control-plane crash at %v, down %v (oracle granted %d core-ticks post-crash)",
			r.Config.CrashAt, r.Config.DownFor, r.OracleCoreTicks),
		Headers: []string{"Restart", "Ckpt age", "FirstGrant", "GrantedCoreTicks", "GapVsOracle", "PushesMissed", "BudgetDiv(W)"},
	}
	for _, run := range r.Runs {
		age := "-"
		if run.Mode == "warm" {
			age = run.Staleness.String()
		}
		first := "never"
		if run.TimeToFirstGrant >= 0 {
			first = run.TimeToFirstGrant.String()
		}
		tbl.AddRow(run.Mode, age, first,
			run.GrantedCoreTicks, run.GapCoreTicks, run.PushesMissed,
			fmt.Sprintf("%.1f", run.BudgetDivergence))
	}
	return tbl.Format()
}
