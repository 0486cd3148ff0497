package core

import (
	"fmt"
	"slices"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/lifetime"
	"smartoclock/internal/policy"
	"smartoclock/internal/power"
	"smartoclock/internal/predict"
	"smartoclock/internal/timeseries"
)

// AdmissionAudit records one power-side admission decision at the moment it
// was made, with the full modeled arithmetic. The feedback loop later steps
// any over-grant back down to the budget, which would mask an unsafe
// admission policy from steady-state invariants — so the
// AdmissionWithinBudget invariant audits decisions here, at grant time.
type AdmissionAudit struct {
	Server            string
	VM                string
	Time              time.Time
	PredictedWatts    float64
	ActiveDeltaWatts  float64
	RequestDeltaWatts float64
	BudgetWatts       float64
	Granted           bool
	Policy            string
}

// TotalWatts returns the modeled worst-case draw had the request run.
func (a AdmissionAudit) TotalWatts() float64 {
	return a.PredictedWatts + a.ActiveDeltaWatts + a.RequestDeltaWatts
}

// SOAConfig parameterizes a Server Overclocking Agent.
type SOAConfig struct {
	// BufferWatts keeps the feedback loop's hold band below the budget:
	// frequencies rise while draw < budget − BufferWatts and fall while
	// draw > budget.
	BufferWatts float64
	// ExploreStepWatts is the conditional budget increment used when
	// exploring beyond the assigned budget (the paper's example: 20 W).
	ExploreStepWatts float64
	// ExploreConfirm is how long an exploration bump must stay
	// warning-free before the next bump (the paper's example: 30 s).
	ExploreConfirm time.Duration
	// ExploitTime is how long a discovered safe budget is used before
	// re-exploring.
	ExploitTime time.Duration
	// InitialBackoff seeds the exponential back-off applied after a
	// warning interrupts exploration.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential back-off.
	MaxBackoff time.Duration
	// ExhaustionWindow is how far ahead the sOA warns the WI agent about
	// resource exhaustion; it should exceed the time to scale out
	// (the paper's example: 15 min).
	ExhaustionWindow time.Duration
	// DefaultOCHorizon is the assumed duration of an open-ended
	// (metrics-based) session for admission checks.
	DefaultOCHorizon time.Duration
	// AdmissionUtil is the worst-case per-core utilization assumed when
	// predicting a request's power impact (§IV-D uses worst case).
	AdmissionUtil float64
	// ProfileStep is the recording granularity for power and overclock
	// templates.
	ProfileStep time.Duration

	// Naive disables admission control and budget enforcement entirely
	// (the NaiveOClock baseline).
	Naive bool
	// NoExplore disables exploring beyond the assigned budget (the
	// NoFeedback baseline).
	NoExplore bool
	// IgnoreWarnings keeps exploring through rack warnings; only capping
	// events revert the budget (the NoWarning baseline).
	IgnoreWarnings bool
	// AdmitOverride, when non-nil, replaces the power-side admission
	// check (the Central oracle baseline supplies a global-view check).
	// It receives the request and the modeled extra watts.
	AdmitOverride func(req Request, deltaWatts float64) bool
	// WearGate, when non-nil, consults per-core online wear counters in
	// addition to the epoch time budgets (§VI "wear-out counters"): a
	// core whose measured aging has exhausted its envelope cannot be
	// overclocked even if time budget remains.
	WearGate func(core int) bool

	// Policies selects the prediction/admission/exploration strategies.
	// The zero Factory means the paper defaults. Each sOA builds its own
	// Set from the factory, so configs stay safely copyable across agents.
	Policies policy.Factory
	// OnAdmit, when non-nil, receives every power-side admission decision
	// as it is made (granted and rejected alike). The invariant checker's
	// AdmissionWithinBudget sink hangs off this hook.
	OnAdmit func(AdmissionAudit)
}

// DefaultSOAConfig returns the configuration used across the evaluation.
func DefaultSOAConfig() SOAConfig {
	return SOAConfig{
		BufferWatts:      25,
		ExploreStepWatts: 20,
		ExploreConfirm:   30 * time.Second,
		ExploitTime:      5 * time.Minute,
		InitialBackoff:   time.Minute,
		MaxBackoff:       30 * time.Minute,
		ExhaustionWindow: 15 * time.Minute,
		DefaultOCHorizon: 30 * time.Minute,
		AdmissionUtil:    0.9,
		ProfileStep:      5 * time.Minute,
	}
}

// exploreMode is the sOA's exploration state machine (§IV-D).
type exploreMode int

const (
	modeIdle exploreMode = iota
	modeExploring
	modeExploiting
)

// Session is one VM's active overclocking grant.
type Session struct {
	VM        string
	Cores     []int
	TargetMHz int
	Priority  Priority
	Scheduled bool
	StartedAt time.Time
	// currentMHz is the frequency the feedback loop has the session at.
	currentMHz int
	// span is the causal span of the grant that started the session;
	// consequences (an exhaustion stop) are recorded with it as parent.
	span causal.SpanID
}

// CurrentMHz returns the session's present frequency setting.
func (s *Session) CurrentMHz() int { return s.currentMHz }

// SOA is the Server Overclocking Agent: it admits overclocking requests
// against power and lifetime predictions, enforces its power budget with a
// prioritized feedback loop, explores beyond stale budgets, tracks per-core
// overclock time, and warns the WI layer before resources run out.
type SOA struct {
	cfg     SOAConfig
	host    Host
	budgets *lifetime.CoreBudgets

	// assigned is the heterogeneous power budget template from the gOA;
	// staticBudget is used until the first assignment (even share).
	assigned     *timeseries.WeekTemplate
	staticBudget float64

	// powerTemplate is the server's own power prediction used for
	// admission and exhaustion checks.
	powerTemplate *timeseries.WeekTemplate

	// pol holds this agent's policy instances (never shared: they carry
	// per-agent adaptive state). The sOA owns the mode machine and its
	// timers; the policies own the numbers.
	pol policy.Set

	// Exploration state.
	mode          exploreMode
	extraWatts    float64
	nextExploreAt time.Time
	lastBumpAt    time.Time
	exploitUntil  time.Time

	// sessions indexes the active sessions by VM; ordered holds the same
	// sessions in sessBefore order (low priority first, ties by VM name).
	// start, Stop and Restore keep the two in step, and every loop over
	// the sessions walks ordered, so nothing depends on map order.
	sessions map[string]*Session
	ordered  []*Session

	// Profile recording.
	powerRec      *timeseries.Series
	ocRec         *predict.OCRecorder
	slotRequested int
	nextSlotAt    time.Time

	lastTick    time.Time
	hasLastTick bool

	// recentRejectAt records the last power-side rejection; unmet demand
	// counts as "constrained" for the exploration trigger (§IV-D: the sOA
	// explores a higher budget when the assigned budget is insufficient).
	recentRejectAt  time.Time
	hasRecentReject bool

	lastExhaustSignal map[ExhaustionKind]time.Time

	// OnReject is invoked when a request is denied or an active session
	// is stopped for budget exhaustion, so the WI layer can react.
	OnReject func(vm string, reason RejectReason)
	// OnExhaustionSoon is invoked when a resource is predicted to run out
	// within the exhaustion window.
	OnExhaustionSoon func(kind ExhaustionKind, at time.Time)

	// Statistics.
	granted  int
	rejected int

	// obs, when non-nil, holds pre-resolved metric handles and the event
	// tracer (see Instrument in obs.go). Hot paths test the pointer once.
	obs *soaObs

	// prov, when non-nil, receives a causal.Record for every risk decision
	// (see provenance.go); lastBudgetSpan is the record of the most recent
	// budget application, linked from admission verdicts.
	prov           *causal.Recorder
	lastBudgetSpan causal.SpanID

	// stopScratch is consumeOCTime's copy of ordered.
	stopScratch []*Session
}

// NewSOA creates an sOA for host with per-core overclock budgets budgets.
// The initial power budget is staticBudget (typically the rack's even
// share) until the gOA assigns a heterogeneous template.
func NewSOA(cfg SOAConfig, host Host, budgets *lifetime.CoreBudgets, staticBudget float64, start time.Time) *SOA {
	if cfg.ProfileStep <= 0 {
		panic(fmt.Sprintf("core: non-positive ProfileStep %v", cfg.ProfileStep))
	}
	factory := cfg.Policies
	if factory.New == nil {
		factory = policy.Default()
	}
	return &SOA{
		cfg:          cfg,
		host:         host,
		budgets:      budgets,
		staticBudget: staticBudget,
		pol: factory.New(policy.Params{
			StepWatts:      cfg.ExploreStepWatts,
			InitialBackoff: cfg.InitialBackoff,
			MaxBackoff:     cfg.MaxBackoff,
		}),
		sessions:          make(map[string]*Session),
		powerRec:          timeseries.New(start, cfg.ProfileStep),
		ocRec:             predict.NewOCRecorder(start, cfg.ProfileStep),
		nextSlotAt:        start.Add(cfg.ProfileStep),
		lastExhaustSignal: make(map[ExhaustionKind]time.Time),
	}
}

// Policies returns the agent's live policy instances (for reports and
// tests). Callers must not share them with another agent.
func (a *SOA) Policies() policy.Set { return a.pol }

// Name returns the host's name.
func (a *SOA) Name() string { return a.host.Name() }

// Granted and Rejected return the admission counters.
func (a *SOA) Granted() int { return a.granted }

// Rejected returns how many requests were denied.
func (a *SOA) Rejected() int { return a.rejected }

// Sessions returns the active sessions keyed by VM.
func (a *SOA) Sessions() map[string]*Session { return a.sessions }

// ActiveOCCores returns the number of cores currently overclocked.
func (a *SOA) ActiveOCCores() int {
	n := 0
	for _, s := range a.ordered {
		if s.currentMHz > a.host.TurboMHz() {
			n += len(s.Cores)
		}
	}
	return n
}

// SetAssignedBudget installs a heterogeneous budget template from the gOA.
func (a *SOA) SetAssignedBudget(t *timeseries.WeekTemplate) { a.assigned = t }

// SetPowerTemplate installs the server's own power prediction template.
func (a *SOA) SetPowerTemplate(t *timeseries.WeekTemplate) { a.powerTemplate = t }

// BudgetAt returns the enforced power budget at ts: the assigned budget
// (or static even share) plus any exploration extra.
func (a *SOA) BudgetAt(ts time.Time) float64 {
	base := a.staticBudget
	if a.assigned != nil {
		if v := a.assigned.At(ts); v > 0 {
			base = v
		}
	}
	return base + a.extraWatts
}

// ExtraWatts returns the current exploration surplus.
func (a *SOA) ExtraWatts() float64 { return a.extraWatts }

// predictInput assembles the evidence the Predictor policy consults.
func (a *SOA) predictInput() policy.PredictInput {
	return policy.PredictInput{
		Template:     a.powerTemplate,
		Step:         a.cfg.ProfileStep,
		CurrentWatts: a.host.Power(),
	}
}

// predictedBaseline returns the predicted non-overclocked server power over
// the admission horizon, as forecast by the Predictor policy (the default
// policy takes the max of the template over [now, now+horizon], falling back
// to the current reading when no template exists yet).
func (a *SOA) predictedBaseline(now time.Time, horizon time.Duration) float64 {
	return a.pol.Predictor.Baseline(now, horizon, a.predictInput())
}

// currentOCDelta returns the modeled extra watts of all active sessions at
// the admission utilization, summed in sessBefore order so the float total
// does not depend on map iteration.
func (a *SOA) currentOCDelta() float64 {
	total := 0.0
	for _, s := range a.ordered {
		total += a.host.OCDeltaWatts(len(s.Cores), s.TargetMHz, a.cfg.AdmissionUtil)
	}
	return total
}

// Request performs admission control (§IV-B) and starts a session when
// granted: lifetime budget first, then predicted power against the
// assigned budget.
func (a *SOA) Request(now time.Time, req Request) Decision {
	a.obsRequest()
	if err := req.Validate(); err != nil {
		a.rejected++
		a.obsReject(now, req.VM, RejectInvalid)
		a.provReject(now, req, RejectInvalid, nil, "")
		return Decision{Reason: RejectInvalid}
	}
	a.slotRequested += req.Cores
	if _, exists := a.sessions[req.VM]; exists {
		a.rejected++
		a.obsReject(now, req.VM, RejectDuplicate)
		a.provReject(now, req, RejectDuplicate, nil, "")
		return Decision{Reason: RejectDuplicate}
	}
	target := req.TargetMHz
	if target > a.host.MaxOCMHz() {
		target = a.host.MaxOCMHz()
	}

	if a.cfg.Naive {
		return a.start(now, req, target, nil, nil)
	}

	// Lifetime admission: every overclocked core must have enough
	// remaining epoch budget for the expected duration. Preferred cores
	// (the VM's own) are used when they have headroom; otherwise the sOA
	// reschedules onto cores that do.
	horizon := req.Duration
	if horizon <= 0 {
		horizon = a.cfg.DefaultOCHorizon
	}
	a.budgets.Advance(now)
	var cores []int
	if len(req.PreferredCores) >= req.Cores {
		ok := true
		for _, c := range req.PreferredCores[:req.Cores] {
			if c < 0 || c >= a.host.NumCores() || a.budgets.Core(c).Remaining() < horizon ||
				(a.cfg.WearGate != nil && !a.cfg.WearGate(c)) {
				ok = false
				break
			}
		}
		if ok {
			cores = append([]int(nil), req.PreferredCores[:req.Cores]...)
		}
	}
	if cores == nil {
		cores = a.budgets.FindCoresFiltered(req.Cores, horizon, a.cfg.WearGate)
	}
	if cores == nil {
		a.rejected++
		a.obsReject(now, req.VM, RejectLifetime)
		a.provReject(now, req, RejectLifetime, nil, "")
		a.notifyReject(req.VM, RejectLifetime)
		return Decision{Reason: RejectLifetime}
	}

	// Power admission: predicted baseline plus all overclock deltas must
	// fit the budget.
	delta := a.host.OCDeltaWatts(req.Cores, target, a.cfg.AdmissionUtil)
	var admitIn *policy.AdmitInput
	if a.cfg.AdmitOverride != nil {
		if !a.cfg.AdmitOverride(req, delta) {
			a.rejected++
			a.obsReject(now, req.VM, RejectPower)
			a.provReject(now, req, RejectPower, nil, "override")
			a.notifyReject(req.VM, RejectPower)
			return Decision{Reason: RejectPower}
		}
	} else {
		in := policy.AdmitInput{
			Now:               now,
			PredictedWatts:    a.predictedBaseline(now, horizon),
			ActiveDeltaWatts:  a.currentOCDelta(),
			RequestDeltaWatts: delta,
			BudgetWatts:       a.BudgetAt(now),
			RequestCores:      req.Cores,
		}
		granted := a.pol.Admission.Admit(in)
		if a.cfg.OnAdmit != nil {
			a.cfg.OnAdmit(AdmissionAudit{
				Server:            a.host.Name(),
				VM:                req.VM,
				Time:              now,
				PredictedWatts:    in.PredictedWatts,
				ActiveDeltaWatts:  in.ActiveDeltaWatts,
				RequestDeltaWatts: in.RequestDeltaWatts,
				BudgetWatts:       in.BudgetWatts,
				Granted:           granted,
				Policy:            a.pol.Admission.Name(),
			})
		}
		if !granted {
			a.rejected++
			a.recentRejectAt = now
			a.hasRecentReject = true
			a.obsReject(now, req.VM, RejectPower)
			a.provReject(now, req, RejectPower, &in, a.pol.Admission.Name())
			a.notifyReject(req.VM, RejectPower)
			return Decision{Reason: RejectPower}
		}
		admitIn = &in
	}

	// Scheduled requests reserve their overclock time budget up front for
	// a predictable experience.
	if req.Priority == PriorityScheduled && req.Duration > 0 {
		for _, c := range cores {
			if !a.budgets.Core(c).Reserve(req.Duration) {
				// Roll back reservations made so far.
				for _, cc := range cores {
					if cc == c {
						break
					}
					a.budgets.Core(cc).ReleaseReservation(req.Duration)
				}
				a.rejected++
				a.obsReject(now, req.VM, RejectLifetime)
				a.provReject(now, req, RejectLifetime, nil, "")
				a.notifyReject(req.VM, RejectLifetime)
				return Decision{Reason: RejectLifetime}
			}
		}
	}
	return a.start(now, req, target, cores, admitIn)
}

// start creates the session and applies the target frequency. cores may be
// nil (naive mode), in which case the first req.Cores indices are used.
// admitIn carries the power-admission arithmetic for the grant's
// provenance record (nil on the naive and override paths).
func (a *SOA) start(now time.Time, req Request, target int, cores []int, admitIn *policy.AdmitInput) Decision {
	if cores == nil {
		n := req.Cores
		if n > a.host.NumCores() {
			n = a.host.NumCores()
		}
		cores = make([]int, n)
		for i := range cores {
			cores[i] = i
		}
	}
	pol := ""
	if admitIn != nil {
		pol = a.pol.Admission.Name()
	}
	s := &Session{
		VM: req.VM, Cores: cores, TargetMHz: target,
		Priority: req.Priority, Scheduled: req.Priority == PriorityScheduled,
		StartedAt: now, currentMHz: target,
		span: a.provGrant(now, req, target, len(cores), admitIn, pol),
	}
	a.addSession(s)
	for _, c := range cores {
		a.host.SetDesiredFreq(c, target)
	}
	a.granted++
	a.obsGrant(len(cores))
	return Decision{Granted: true, Cores: cores}
}

// Stop ends a VM's overclocking session, returning cores to turbo.
func (a *SOA) Stop(now time.Time, vm string) {
	s, ok := a.sessions[vm]
	if !ok {
		return
	}
	for _, c := range s.Cores {
		a.host.SetDesiredFreq(c, a.host.TurboMHz())
	}
	delete(a.sessions, vm)
	i := slices.Index(a.ordered, s)
	a.ordered = slices.Delete(a.ordered, i, i+1)
}

// addSession indexes s by VM and inserts it into ordered at its sessBefore
// position.
func (a *SOA) addSession(s *Session) {
	a.sessions[s.VM] = s
	i := 0
	for i < len(a.ordered) && sessBefore(a.ordered[i], s) {
		i++
	}
	a.ordered = slices.Insert(a.ordered, i, s)
}

func (a *SOA) notifyReject(vm string, reason RejectReason) {
	if a.OnReject != nil {
		a.OnReject(vm, reason)
	}
}

// OnRackEvent handles rack manager notifications: warnings interrupt
// exploration with exponential back-off; capping events revert to the
// assigned budget (§IV-D).
func (a *SOA) OnRackEvent(now time.Time, ev power.Event) {
	switch ev.Kind {
	case power.EventWarning:
		// "An sOA ignores the message if it is not exploring" (§IV-D).
		// We read "exploring" as holding any budget beyond the assigned
		// one: an sOA exploiting a previously discovered surplus is still
		// the reason the rack is near its limit, so it backs off too.
		// Servers with no exploration surplus ignore the warning.
		if a.cfg.IgnoreWarnings || (a.mode != modeExploring && a.extraWatts == 0) {
			return
		}
		a.applySetback(now, false)
		a.obsWarnBackoff(now)
		a.provSetback(now, ev.Span, false)
		// Shed immediately: the whole point of the warning is avoiding
		// the capping event that would otherwise follow within seconds.
		a.feedbackLoop(now)
	case power.EventCap:
		if a.cfg.Naive {
			return
		}
		a.applySetback(now, true)
		a.obsCapReset(now)
		a.provSetback(now, ev.Span, true)
		a.feedbackLoop(now)
	}
}

// applySetback consults the Exploration policy after a rack warning or cap,
// clamps the surplus it wants to retain into [0, extraWatts] (a cap always
// sheds everything), and schedules the back-off.
func (a *SOA) applySetback(now time.Time, capped bool) {
	keep, wait := a.pol.Exploration.Setback(now, capped, a.extraWatts)
	if capped || keep < 0 {
		keep = 0
	}
	if keep > a.extraWatts {
		keep = a.extraWatts
	}
	a.extraWatts = keep
	a.mode = modeIdle
	a.nextExploreAt = now.Add(wait)
}

// sortedSessions returns the active sessions ordered low→high priority,
// ties by VM name. It is the sOA's own slice, kept in order by start, Stop
// and Restore: callers must not retain or modify it.
func (a *SOA) sortedSessions() []*Session { return a.ordered }

// sessBefore orders sessions low→high priority, ties broken by VM name.
func sessBefore(a, b *Session) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.VM < b.VM
}

// applyFreq pushes a session's current frequency to its cores.
func (a *SOA) applyFreq(s *Session) {
	for _, c := range s.Cores {
		a.host.SetDesiredFreq(c, s.currentMHz)
	}
}

// Tick runs one control cycle at now: consume overclock time, run the
// prioritized feedback loop, manage exploration, record the profile and
// raise exhaustion warnings. dt is the time since the previous tick.
func (a *SOA) Tick(now time.Time) {
	var dt time.Duration
	if a.hasLastTick {
		dt = now.Sub(a.lastTick)
	}
	a.lastTick = now
	a.hasLastTick = true

	a.budgets.Advance(now)
	if dt > 0 && !a.cfg.Naive {
		a.consumeOCTime(now, dt)
	}
	a.feedbackLoop(now)
	if !a.cfg.Naive && !a.cfg.NoExplore {
		a.manageExploration(now)
	}
	a.recordProfile(now)
	if !a.cfg.Naive {
		a.checkExhaustion(now)
	}
	a.obsTick(now)
}

// consumeOCTime charges each overclocked core's epoch budget and stops
// sessions whose budget ran out, migrating to fresh cores when possible
// (§IV-D). Sessions are visited in sessBefore order, so when two run out
// on the same tick the lower-priority one is offered fresh cores first.
// The loop walks a copy because Stop edits ordered.
func (a *SOA) consumeOCTime(now time.Time, dt time.Duration) {
	a.stopScratch = append(a.stopScratch[:0], a.ordered...)
	for _, s := range a.stopScratch {
		vm := s.VM
		if s.currentMHz <= a.host.TurboMHz() {
			continue
		}
		exhausted := false
		if a.cfg.WearGate != nil {
			for _, c := range s.Cores {
				if !a.cfg.WearGate(c) {
					exhausted = true // wear counters closed on this core
					break
				}
			}
		}
		for _, c := range s.Cores {
			if !a.budgets.Core(c).Consume(dt, s.Scheduled) {
				// Scheduled reservations may have expired with an epoch;
				// fall back to unreserved budget before giving up.
				if s.Scheduled && a.budgets.Core(c).Consume(dt, false) {
					continue
				}
				exhausted = true
			}
		}
		if !exhausted {
			continue
		}
		// Try rescheduling the VM onto cores with remaining budget (and
		// open wear gates).
		if fresh := a.budgets.FindCoresFiltered(len(s.Cores), a.cfg.DefaultOCHorizon, a.cfg.WearGate); fresh != nil {
			for _, c := range s.Cores {
				a.host.SetDesiredFreq(c, a.host.TurboMHz())
			}
			s.Cores = fresh
			a.applyFreq(s)
			continue
		}
		a.Stop(now, vm)
		a.obsSessionExhausted(now, vm)
		a.provSessionStop(now, vm, s.span)
		a.notifyReject(vm, RejectLifetime)
	}
}

// feedbackLoop adjusts session frequencies in discrete steps to keep the
// server draw inside [budget − buffer, budget], prioritizing important VMs
// (§IV-D).
func (a *SOA) feedbackLoop(now time.Time) {
	if len(a.sessions) == 0 {
		return
	}
	if a.cfg.Naive {
		// No budget enforcement: run every session at target.
		for _, s := range a.ordered {
			if s.currentMHz != s.TargetMHz {
				s.currentMHz = s.TargetMHz
				a.applyFreq(s)
			}
		}
		return
	}
	budget := a.BudgetAt(now)
	threshold := budget - a.cfg.BufferWatts
	draw := a.host.Power()
	step := a.host.StepMHz()
	turbo := a.host.TurboMHz()

	switch {
	case draw > budget:
		// Reduce lowest-priority overclocked sessions first, stepping
		// each all the way to turbo before touching the next, so the more
		// important VMs keep their overclock to the maximum extent.
		for _, s := range a.sortedSessions() {
			for s.currentMHz > turbo && draw > budget {
				s.currentMHz -= step
				if s.currentMHz < turbo {
					s.currentMHz = turbo
				}
				a.applyFreq(s)
				draw = a.host.Power()
			}
			if draw <= budget {
				break
			}
		}
	case draw < threshold:
		// Raise sessions one step each, highest priority first, while the
		// draw stays inside the hold band.
		ordered := a.sortedSessions()
		for i := len(ordered) - 1; i >= 0; i-- {
			s := ordered[i]
			if s.currentMHz >= s.TargetMHz {
				continue
			}
			s.currentMHz += step
			if s.currentMHz > s.TargetMHz {
				s.currentMHz = s.TargetMHz
			}
			a.applyFreq(s)
			draw = a.host.Power()
			if draw >= threshold {
				break
			}
		}
	}
}

// constrained reports whether any session runs below its target frequency
// or a power-side rejection happened recently (unmet admission demand).
func (a *SOA) constrained() bool {
	for _, s := range a.ordered {
		if s.currentMHz < s.TargetMHz {
			return true
		}
	}
	if a.hasRecentReject && a.hasLastTick &&
		a.lastTick.Sub(a.recentRejectAt) <= 2*a.cfg.ExploreConfirm {
		return true
	}
	return false
}

// manageExploration advances the exploration/exploitation state machine
// (§IV-D): conditionally raise the budget in steps, confirm each step stays
// warning-free, exploit the discovered budget for a while, re-explore when
// needed.
func (a *SOA) manageExploration(now time.Time) {
	switch a.mode {
	case modeIdle:
		if !a.constrained() || now.Before(a.nextExploreAt) {
			return
		}
		a.mode = modeExploring
		a.extraWatts += a.pol.Exploration.Step(now)
		a.lastBumpAt = now
		a.obsExploreBump(now)
		a.provExplore(now, "bump")
	case modeExploring:
		if len(a.sessions) == 0 && !a.constrained() {
			// Every session stopped mid-exploration and no demand is
			// pending. Nothing ran at the raised budget, so it was never
			// confirmed safe: shed the surplus and return to idle without
			// resetting the back-off. (Treating this as a success used to
			// exploit an unconfirmed budget and wipe the back-off.)
			a.extraWatts = 0
			a.mode = modeIdle
			return
		}
		if !a.constrained() {
			// Everything reached target: the budget is safe — exploit it.
			a.mode = modeExploiting
			a.exploitUntil = now.Add(a.cfg.ExploitTime)
			a.pol.Exploration.Confirmed(now)
			a.obsExploit(now)
			a.provExplore(now, "exploit")
			return
		}
		if now.Sub(a.lastBumpAt) >= a.cfg.ExploreConfirm {
			a.extraWatts += a.pol.Exploration.Step(now)
			a.lastBumpAt = now
			a.obsExploreBump(now)
			a.provExplore(now, "bump")
		}
	case modeExploiting:
		if now.After(a.exploitUntil) {
			a.mode = modeIdle
		}
	}
}

// recordProfile closes profile slots that have elapsed.
func (a *SOA) recordProfile(now time.Time) {
	for !now.Before(a.nextSlotAt) {
		p := a.host.Power()
		a.powerRec.Append(p)
		// The predictor forecasts the non-overclocked baseline, and
		// admission adds the modeled overclock deltas back on top — so
		// observations are corrected by the modeled draw of the active
		// sessions to avoid double-counting overclock power.
		obs := p - a.currentOCDelta()
		if obs < 0 {
			obs = 0
		}
		a.pol.Predictor.Observe(a.nextSlotAt, obs)
		a.ocRec.Record(a.slotRequested, a.ActiveOCCores())
		a.slotRequested = 0
		a.nextSlotAt = a.nextSlotAt.Add(a.cfg.ProfileStep)
	}
}

// Profile returns the templates the sOA periodically ships to the gOA.
// It requires at least one full recorded slot.
func (a *SOA) Profile() (power *timeseries.WeekTemplate, oc *predict.OCTemplate) {
	return timeseries.BuildWeekTemplate(a.powerRec, timeseries.ReduceMedian), a.ocRec.Template()
}

// PowerRecord exposes the raw recorded power series (for analysis).
func (a *SOA) PowerRecord() *timeseries.Series { return a.powerRec }

// RecentRequestedCores returns the mean number of cores that requested
// overclocking over the last n profile slots — including rejected demand,
// which is what lets the gOA route headroom toward constrained servers.
func (a *SOA) RecentRequestedCores(n int) float64 {
	vals := a.ocRec.Requested().Values
	if len(vals) == 0 {
		return float64(a.slotRequested)
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

// checkExhaustion predicts power and overclock-budget exhaustion within the
// configured window and signals the WI layer at most once per window
// (§IV-D, Fig 11).
func (a *SOA) checkExhaustion(now time.Time) {
	if a.OnExhaustionSoon == nil || len(a.sessions) == 0 {
		return
	}
	window := a.cfg.ExhaustionWindow
	// Power: find the first slot where predicted baseline + overclock
	// delta exceeds the budget.
	if a.powerTemplate != nil {
		delta := a.currentOCDelta()
		step := a.cfg.ProfileStep
		in := a.predictInput()
		for ts := now; !ts.After(now.Add(window)); ts = ts.Add(step) {
			if a.pol.Predictor.At(ts, in)+delta > a.BudgetAt(ts) {
				a.signalExhaustion(now, ExhaustPower, ts)
				break
			}
		}
	}
	// Overclock time budget: project the burn rate of active sessions.
	ocCores := a.ActiveOCCores()
	if ocCores > 0 {
		var minRemaining time.Duration = -1
		for _, s := range a.ordered {
			if s.currentMHz <= a.host.TurboMHz() {
				continue
			}
			for _, c := range s.Cores {
				r := a.budgets.Core(c).Total()
				if minRemaining < 0 || r < minRemaining {
					minRemaining = r
				}
			}
		}
		if minRemaining >= 0 && minRemaining < window {
			a.signalExhaustion(now, ExhaustOCBudget, now.Add(minRemaining))
		}
	}
}

func (a *SOA) signalExhaustion(now time.Time, kind ExhaustionKind, at time.Time) {
	if last, ok := a.lastExhaustSignal[kind]; ok && now.Sub(last) < a.cfg.ExhaustionWindow {
		return
	}
	a.lastExhaustSignal[kind] = now
	a.obsExhaustionSignal(now, kind, at)
	a.OnExhaustionSoon(kind, at)
}

// SetStaticBudget replaces the fallback power budget used when no assigned
// template covers the queried instant (and clears any assigned template if
// clearAssigned is true).
func (a *SOA) SetStaticBudget(watts float64, clearAssigned bool) {
	a.staticBudget = watts
	if clearAssigned {
		a.assigned = nil
	}
}
