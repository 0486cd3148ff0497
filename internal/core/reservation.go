package core

import (
	"time"
)

// Reservation is an admitted future overclocking window: power and
// overclock-time budget are set aside ahead of time so a schedule-based
// workload gets a predictable overclocking experience (§IV-B). The
// reservation is soft on the power side — outside workloads may still take
// the power, in which case the sOA adjusts and the WI layer is warned via
// HonorCheck.
type Reservation struct {
	VM        string
	Cores     []int
	Start     time.Time
	End       time.Time
	TargetMHz int
}

// Duration returns the reserved window length.
func (r *Reservation) Duration() time.Duration { return r.End.Sub(r.Start) }

// ReserveWindow performs ahead-of-time admission for a schedule-based
// request over [start, start+duration):
//
//  1. lifetime: cores with enough epoch budget are selected and that
//     budget is reserved immediately (unused budget may still serve
//     unscheduled overclocking, §IV-B);
//  2. power: the predicted baseline plus the overclock delta must fit the
//     assigned budget at every profile slot of the window.
//
// On success the caller holds the Reservation and, at window start,
// submits a Request with Priority PriorityScheduled and PreferredCores set
// to the reservation's cores. On failure the decision carries the reason
// so the WI layer can take corrective action (e.g. scale out before the
// window).
func (a *SOA) ReserveWindow(now, start time.Time, duration time.Duration, req Request) (Decision, *Reservation) {
	if err := req.Validate(); err != nil || duration <= 0 || start.Before(now) {
		a.rejected++
		return Decision{Reason: RejectInvalid}, nil
	}
	target := req.TargetMHz
	if target > a.host.MaxOCMHz() {
		target = a.host.MaxOCMHz()
	}

	// Lifetime: select cores and reserve their budget for the window.
	a.budgets.Advance(now)
	cores := a.budgets.FindCoresFiltered(req.Cores, duration, a.cfg.WearGate)
	if cores == nil {
		a.rejected++
		a.notifyReject(req.VM, RejectLifetime)
		return Decision{Reason: RejectLifetime}, nil
	}
	for i, c := range cores {
		if !a.budgets.Core(c).Reserve(duration) {
			for _, cc := range cores[:i] {
				a.budgets.Core(cc).ReleaseReservation(duration)
			}
			a.rejected++
			a.notifyReject(req.VM, RejectLifetime)
			return Decision{Reason: RejectLifetime}, nil
		}
	}

	res := &Reservation{
		VM: req.VM, Cores: cores,
		Start: start, End: start.Add(duration), TargetMHz: target,
	}
	// Power: every slot of the window must absorb the overclock.
	if !a.windowPowerFits(res) {
		a.releaseReservationBudget(res)
		a.rejected++
		a.notifyReject(req.VM, RejectPower)
		return Decision{Reason: RejectPower}, nil
	}
	return Decision{Granted: true, Cores: cores}, res
}

// windowPowerFits checks the reservation's power across its window using
// the server's own power template and the assigned budget template.
func (a *SOA) windowPowerFits(res *Reservation) bool {
	delta := a.host.OCDeltaWatts(len(res.Cores), res.TargetMHz, a.cfg.AdmissionUtil)
	step := a.cfg.ProfileStep
	for ts := res.Start; ts.Before(res.End); ts = ts.Add(step) {
		baseline := a.staticBudget // worst case without a template: assume full budget use
		if a.powerTemplate != nil {
			baseline = a.powerTemplate.At(ts)
		}
		if baseline+delta > a.BudgetAt(ts) {
			return false
		}
	}
	return true
}

// releaseReservationBudget returns the reserved per-core budget.
func (a *SOA) releaseReservationBudget(res *Reservation) {
	for _, c := range res.Cores {
		a.budgets.Core(c).ReleaseReservation(res.Duration())
	}
}

// HonorCheck re-evaluates whether a pending reservation can still be
// honored — budgets may have been reassigned or predictions revised since
// admission. When it reports false the WI layer should take corrective
// action (scale out) before the window starts: "SmartOClock can take
// corrective actions, such as scale-out, if it is unable to honor a
// reservation" (§IV).
func (a *SOA) HonorCheck(res *Reservation) bool {
	if res == nil {
		return false
	}
	return a.windowPowerFits(res)
}

// StartReserved converts a reservation into an active session at its
// window start. The per-core budget was reserved at admission time, so no
// further admission runs: the whole point of the reservation is the
// predictable experience (§IV-B). The running session draws down the
// reserved budget.
func (a *SOA) StartReserved(now time.Time, res *Reservation) Decision {
	if res == nil || now.Before(res.Start) || !now.Before(res.End) {
		a.rejected++
		return Decision{Reason: RejectInvalid}
	}
	if _, exists := a.sessions[res.VM]; exists {
		a.rejected++
		return Decision{Reason: RejectDuplicate}
	}
	a.slotRequested += len(res.Cores)
	return a.start(now, Request{
		VM:       res.VM,
		Cores:    len(res.Cores),
		Priority: PriorityScheduled,
	}, res.TargetMHz, res.Cores, nil)
}
