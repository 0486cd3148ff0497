// Package invariant is the runtime safety checker for cluster and fleet
// experiments. It continuously asserts, on every simulation tick, the
// properties SmartOClock's design promises to uphold regardless of faults
// (§IV, §VI):
//
//   - rack power never exceeds the provisioned limit for longer than the
//     enforcement-latency window (warnings + capping must bring it back);
//   - per-core lifetime (overclocking-time) budgets are never overdrawn —
//     checked by independent accounting, not by trusting the budget
//     bookkeeping under test;
//   - no session runs above its granted frequency;
//   - the gOA's heterogeneous budget split conserves the rack limit.
//
// Violations carry the tick, rack and invariant name so a failing chaos run
// points straight at the broken property.
package invariant

import (
	"fmt"
	"math"
	"strings"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/core"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/metrics"
	"smartoclock/internal/obs"
	"smartoclock/internal/power"
)

// Violation is one failed assertion at one tick.
type Violation struct {
	Time      time.Time
	Rack      string
	Invariant string
	Detail    string
}

// String formats the violation for test failure output.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] rack=%s invariant=%s: %s",
		v.Time.Format(time.RFC3339), v.Rack, v.Invariant, v.Detail)
}

// Reporter records a violation's detail; the checker fills in tick, rack
// and invariant name.
type Reporter func(detail string)

// check is one registered invariant.
type check struct {
	name string
	rack string
	fn   func(now time.Time, report Reporter)
	// report is built once, in Register, and stamps violations with the
	// checker's current tick.
	report Reporter
	// viol, when the checker is instrumented, counts this check's
	// violations in the metrics registry.
	viol *metrics.Counter
}

// Checker runs registered invariants and collects violations.
type Checker struct {
	checks []check
	nRuns  int64
	now    time.Time // tick of the Check in progress

	// MaxRecord caps stored violations so a badly broken run doesn't eat
	// memory; the total count keeps incrementing past it.
	MaxRecord  int
	violations []Violation
	total      int

	// Instrumentation (see Instrument).
	reg        *metrics.Registry
	tracer     *obs.Tracer
	checksRun  *metrics.Counter
	extraLabel []metrics.Label

	// prov, when non-nil, receives one causal.Record per violation, with
	// the invariant name as Policy.
	prov *causal.Recorder
}

// NewChecker returns an empty checker recording up to 100 violations.
func NewChecker() *Checker { return &Checker{MaxRecord: 100} }

// Register adds an invariant. fn is called on every Check with the current
// tick time and a reporter for violations.
func (c *Checker) Register(invariantName, rack string, fn func(now time.Time, report Reporter)) {
	i := len(c.checks)
	ck := check{name: invariantName, rack: rack, fn: fn}
	ck.report = func(detail string) { c.violation(&c.checks[i], detail) }
	if c.reg != nil {
		ck.viol = c.violationCounter(invariantName)
	}
	c.checks = append(c.checks, ck)
}

// Instrument attaches the checker to a registry, a tracer and a provenance
// recorder: Check passes count into invariant_checks_total and each
// violation into invariant_violations_total{invariant}, plus a trace event
// and a decision record. A nil registry attaches only the recorder. Checks
// already registered are wired up too, so Instrument may run before or
// after them.
func (c *Checker) Instrument(reg *metrics.Registry, tr *obs.Tracer, prov *causal.Recorder, labels ...metrics.Label) {
	c.prov = prov
	if reg == nil {
		return
	}
	c.reg = reg
	c.tracer = tr
	c.extraLabel = append([]metrics.Label(nil), labels...)
	c.checksRun = reg.Counter("invariant_checks_total", c.extraLabel...)
	for i := range c.checks {
		c.checks[i].viol = c.violationCounter(c.checks[i].name)
	}
}

// violationCounter resolves the per-invariant violation counter.
func (c *Checker) violationCounter(invariantName string) *metrics.Counter {
	return c.reg.Counter("invariant_violations_total", metrics.With(c.extraLabel, metrics.L("invariant", invariantName))...)
}

// Check runs every registered invariant at tick time now.
func (c *Checker) Check(now time.Time) {
	c.nRuns++
	c.now = now
	if c.checksRun != nil {
		c.checksRun.Inc()
	}
	for i := range c.checks {
		c.checks[i].fn(now, c.checks[i].report)
	}
}

// violation records one failed assertion of ck at the current tick: a
// provenance record, the violation counter and trace event when
// instrumented, and the stored Violation while under MaxRecord.
func (c *Checker) violation(ck *check, detail string) {
	now := c.now
	c.total++
	var span causal.SpanID
	if c.prov != nil {
		span = c.prov.Emit(causal.Record{
			Time:      now,
			Kind:      causal.KindDecision,
			Component: "invariant",
			Site:      "invariant.violation",
			Subject:   ck.rack,
			Policy:    ck.name,
			Verdict:   "violation",
			Detail:    detail,
		})
	}
	if ck.viol != nil {
		ck.viol.Inc()
		c.tracer.Emit(obs.Event{
			Time: now, Component: obs.Invariant, Kind: "violation",
			Source: ck.rack, Detail: ck.name + ": " + detail,
			Span: uint64(span),
		})
	}
	if len(c.violations) < c.MaxRecord {
		c.violations = append(c.violations, Violation{
			Time: now, Rack: ck.rack, Invariant: ck.name, Detail: detail,
		})
	}
}

// Checks returns how many times Check ran.
func (c *Checker) Checks() int64 { return c.nRuns }

// Total returns the total violation count, including unrecorded ones.
func (c *Checker) Total() int { return c.total }

// Violations returns the recorded violations.
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil when no invariant was violated; otherwise an error
// naming every recorded violation, ready for t.Fatal.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s) in %d checks:", c.total, c.nRuns)
	for _, v := range c.violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if c.total > len(c.violations) {
		fmt.Fprintf(&b, "\n  ... and %d more", c.total-len(c.violations))
	}
	return fmt.Errorf("%s", b.String())
}

// --- Canned invariants -----------------------------------------------------

// RackPowerWithinLimit asserts that rack draw never stays above the limit
// longer than grace — the enforcement-latency window within which warnings
// and prioritized capping must have brought the rack back under budget.
// Instantaneous excursions shorter than grace are the paper's expected
// operating regime (the rack manager polls, then enforces).
func RackPowerWithinLimit(c *Checker, rack *power.Rack, grace time.Duration) {
	var overSince time.Time
	over := false
	c.Register("rack-power-within-limit", rack.Name(), func(now time.Time, report Reporter) {
		limit := rack.Config().LimitWatts
		p := rack.Power()
		if p <= limit {
			over = false
			return
		}
		if !over {
			over = true
			overSince = now
			return
		}
		if d := now.Sub(overSince); d > grace {
			report(fmt.Sprintf("draw %.1f W > limit %.1f W for %v (> enforcement window %v)",
				p, limit, d, grace))
			// Re-arm so a persistent breach reports once per grace window
			// instead of every tick.
			overSince = now
		}
	})
}

// OCHost is the server surface the lifetime and frequency invariants
// observe: effective (post-cap) per-core frequency. cluster.Server
// implements it.
type OCHost interface {
	Name() string
	NumCores() int
	TurboMHz() int
	MaxOCMHz() int
	EffectiveFreq(core int) int
}

// CoreBudgetsNeverOverdrawn asserts, by independent accounting, that no
// core spends more time overclocked than its epoch allowances permit:
// cumulative overclocked time of core i by time T must not exceed
// ceil((T-start)/epoch) × allowance (carry-over only defers spending, it
// never mints budget). slack absorbs tick-sampling error — one or two
// control ticks is plenty.
//
// The accounting lives here, outside the lifetime.Budget under test, so a
// double-spend bug in the budget bookkeeping (or an sOA forgetting to
// charge after a crash-restart) is caught rather than mirrored.
func CoreBudgetsNeverOverdrawn(c *Checker, rack string, host OCHost, cfg lifetime.BudgetConfig, start time.Time, slack time.Duration) {
	acc := make([]time.Duration, host.NumCores())
	// Frequencies are sampled at the start of each inter-check interval:
	// in a discrete-event run every transition lands on a tick boundary,
	// which makes this accounting exact rather than off by one tick per
	// session start.
	prev := make([]int, host.NumCores())
	turbo := host.TurboMHz()
	for i := range prev {
		prev[i] = host.EffectiveFreq(i)
	}
	last := start
	allowance := cfg.Allowance()
	c.Register("core-budget-never-overdrawn", rack, func(now time.Time, report Reporter) {
		dt := now.Sub(last)
		last = now
		epochs := int64(now.Sub(start)/cfg.Epoch) + 1
		budget := time.Duration(epochs)*allowance + slack
		for i := 0; i < host.NumCores(); i++ {
			cur := host.EffectiveFreq(i)
			if dt > 0 && prev[i] > turbo {
				acc[i] += dt
				if acc[i] > budget {
					report(fmt.Sprintf("server %s core %d overclocked %v, budget %v over %d epoch(s)",
						host.Name(), i, acc[i], budget, epochs))
				}
			}
			prev[i] = cur
		}
	})
}

// SOASource returns the current sOA for a server — a func, not a pointer,
// because chaos experiments replace the sOA object on crash/restart.
type SOASource func() *core.SOA

// SessionsWithinGrant asserts that every active session runs at or below
// the frequency it was granted: the session's feedback frequency never
// exceeds its target, and the cores' effective frequency never exceeds the
// session's setting (capping may only lower it).
func SessionsWithinGrant(c *Checker, rack string, host OCHost, soa SOASource) {
	c.Register("session-within-grant", rack, func(now time.Time, report Reporter) {
		a := soa()
		if a == nil {
			return
		}
		maxOC := host.MaxOCMHz()
		for vm, s := range a.Sessions() {
			cur := s.CurrentMHz()
			if cur > s.TargetMHz || cur > maxOC {
				report(fmt.Sprintf("server %s vm %s at %d MHz beyond grant (target %d, max OC %d)",
					host.Name(), vm, cur, s.TargetMHz, maxOC))
				continue
			}
			for _, cr := range s.Cores {
				if eff := host.EffectiveFreq(cr); eff > cur {
					report(fmt.Sprintf("server %s vm %s core %d effective %d MHz above session setting %d",
						host.Name(), vm, cr, eff, cur))
				}
			}
		}
	})
}

// BudgetConservation asserts the gOA's heterogeneous split conserves the
// rack limit: per-server budgets must sum to the limit within epsilon
// (never above it — over-allocation is how decentralized enforcement loses
// its safety net; under-allocation wastes provisioned power). The split is
// read as a slice in server-name order, so the sum is the same on every
// run and the check allocates nothing.
func BudgetConservation(c *Checker, goa *core.GOA, epsilon float64) {
	c.Register("goa-budget-conservation", goa.Rack(), func(now time.Time, report Reporter) {
		budgets := goa.BudgetSplit(now)
		if len(budgets) == 0 {
			return // no profiles yet: nothing to conserve
		}
		sum := 0.0
		for _, b := range budgets {
			sum += b
		}
		if math.Abs(sum-goa.Limit()) > epsilon {
			report(fmt.Sprintf("budgets sum to %.3f W, limit %.3f W (|Δ| > %g)",
				sum, goa.Limit(), epsilon))
		}
	})
}

// AdmissionWithinBudget audits power-side admission decisions at the moment
// they are made. The sOA's feedback loop steps an over-granted session back
// down to the budget within a tick, so an unsafe admission policy leaves no
// steady-state trace — rack power and session frequencies all look fine. The
// only place the violation is observable is the decision itself: a grant
// whose modeled total draw exceeds the budget it was admitted against.
//
// The returned sink is installed as SOAConfig.OnAdmit; audits buffer until
// the next Check drains them. epsilon absorbs float round-off — honest
// policies compare the exact same sums, so 0 is correct for them.
func AdmissionWithinBudget(c *Checker, rack string, epsilon float64) func(core.AdmissionAudit) {
	var pending []core.AdmissionAudit
	c.Register("admission-within-budget", rack, func(now time.Time, report Reporter) {
		for _, a := range pending {
			if a.Granted && a.TotalWatts() > a.BudgetWatts+epsilon {
				report(fmt.Sprintf("server %s vm %s policy %s granted %.1f W against budget %.1f W",
					a.Server, a.VM, a.Policy, a.TotalWatts(), a.BudgetWatts))
			}
		}
		pending = pending[:0]
	})
	return func(a core.AdmissionAudit) { pending = append(pending, a) }
}
