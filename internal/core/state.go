// Agent state snapshot/restore: the serializable state of the gOA and sOA
// for durable checkpoints (warm restart after a crash).
//
// The split follows one rule: config is code, state is data. Snapshots hold
// only what the agent learned or decided at runtime — profiles, ledgers,
// session grants, exploration position, the profile window. Configuration
// (SOAConfig, hosts, callbacks, observability handles) is re-created by the
// restoring process and never serialized; Restore is always called on an
// agent freshly constructed from the same configuration.

package core

import (
	"fmt"
	"sort"
	"time"

	"smartoclock/internal/lifetime"
	"smartoclock/internal/policy"
	"smartoclock/internal/timeseries"
)

// GOAState is the serializable state of a Global Overclocking Agent.
type GOAState struct {
	Rack     string                   `json:"rack"`
	Limit    float64                  `json:"limit"`
	Profiles map[string]ServerProfile `json:"profiles,omitempty"`
}

// Snapshot captures the gOA's learned state. Template structures inside the
// profiles are shared, not copied: they are treated as immutable once
// reported.
func (g *GOA) Snapshot() *GOAState {
	st := &GOAState{Rack: g.rack, Limit: g.limit}
	if len(g.profiles) > 0 {
		st.Profiles = make(map[string]ServerProfile, len(g.profiles))
		for name, p := range g.profiles {
			st.Profiles[name] = p
		}
	}
	return st
}

// Restore overwrites the gOA's state from a snapshot.
func (g *GOA) Restore(st *GOAState) {
	g.rack = st.Rack
	g.limit = st.Limit
	g.profiles = make(map[string]ServerProfile, len(st.Profiles))
	g.names = nil
	for name, p := range st.Profiles {
		g.profiles[name] = p
	}
}

// SessionState is the serializable state of one overclocking session.
type SessionState struct {
	VM         string    `json:"vm"`
	Cores      []int     `json:"cores"`
	TargetMHz  int       `json:"target_mhz"`
	Priority   Priority  `json:"priority"`
	Scheduled  bool      `json:"scheduled,omitempty"`
	StartedAt  time.Time `json:"started_at"`
	CurrentMHz int       `json:"current_mhz"`
}

// SOAState is the serializable state of a Server Overclocking Agent,
// including the per-core lifetime ledger it enforces.
type SOAState struct {
	Assigned      *timeseries.WeekTemplate `json:"assigned,omitempty"`
	StaticBudget  float64                  `json:"static_budget"`
	PowerTemplate *timeseries.WeekTemplate `json:"power_template,omitempty"`

	Mode       int     `json:"mode"`
	ExtraWatts float64 `json:"extra_watts"`
	// Exploration is the exploration policy's full adaptive state.
	Exploration   *policy.ExplorationState `json:"exploration,omitempty"`
	NextExploreAt time.Time                `json:"next_explore_at"`
	LastBumpAt    time.Time                `json:"last_bump_at"`
	ExploitUntil  time.Time                `json:"exploit_until"`

	Sessions []SessionState `json:"sessions,omitempty"`

	// Profile is the profile window, oldest slot first: at most the last
	// ten closed slots, which is all a profile report reads.
	Profile       []ProfileSlot `json:"profile,omitempty"`
	SlotRequested int           `json:"slot_requested"`
	NextSlotAt    time.Time     `json:"next_slot_at"`

	LastTick        time.Time `json:"last_tick"`
	HasLastTick     bool      `json:"has_last_tick"`
	RecentRejectAt  time.Time `json:"recent_reject_at"`
	HasRecentReject bool      `json:"has_recent_reject"`

	LastExhaustSignal map[ExhaustionKind]time.Time `json:"last_exhaust_signal,omitempty"`

	Granted  int `json:"granted"`
	Rejected int `json:"rejected"`

	Budgets *lifetime.CoreBudgetsState `json:"budgets,omitempty"`
}

// Snapshot captures the sOA's runtime state. Sessions are sorted by VM name
// so the snapshot does not depend on the order they were started in.
// Assigned and power templates are shared (immutable once installed); the
// profile window is copied.
func (a *SOA) Snapshot() *SOAState {
	st := &SOAState{
		Assigned:        a.assigned,
		StaticBudget:    a.staticBudget,
		PowerTemplate:   a.powerTemplate,
		Mode:            int(a.mode),
		ExtraWatts:      a.extraWatts,
		NextExploreAt:   a.nextExploreAt,
		LastBumpAt:      a.lastBumpAt,
		ExploitUntil:    a.exploitUntil,
		SlotRequested:   a.slotRequested,
		NextSlotAt:      a.nextSlotAt,
		LastTick:        a.lastTick,
		HasLastTick:     a.hasLastTick,
		RecentRejectAt:  a.recentRejectAt,
		HasRecentReject: a.hasRecentReject,
		Granted:         a.granted,
		Rejected:        a.rejected,
	}
	st.Profile = make([]ProfileSlot, a.profile.n)
	for i := range st.Profile {
		st.Profile[i] = a.profile.at(i)
	}
	expl := a.pol.Exploration.Snapshot()
	st.Exploration = &expl
	if a.budgets != nil {
		st.Budgets = a.budgets.Snapshot()
	}
	if len(a.ordered) > 0 {
		st.Sessions = make([]SessionState, 0, len(a.ordered))
		for _, s := range a.ordered {
			st.Sessions = append(st.Sessions, SessionState{
				VM: s.VM, Cores: append([]int(nil), s.Cores...), TargetMHz: s.TargetMHz,
				Priority: s.Priority, Scheduled: s.Scheduled,
				StartedAt: s.StartedAt, CurrentMHz: s.currentMHz,
			})
		}
		sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].VM < st.Sessions[j].VM })
	}
	if len(a.lastExhaustSignal) > 0 {
		st.LastExhaustSignal = make(map[ExhaustionKind]time.Time, len(a.lastExhaustSignal))
		for k, v := range a.lastExhaustSignal {
			st.LastExhaustSignal[k] = v
		}
	}
	return st
}

// Restore overwrites the sOA's runtime state from a snapshot and re-applies
// each restored session's frequency to the host, so a warm-restarted agent
// resumes driving the hardware exactly where the checkpoint left it. The
// lifetime ledger is restored when the snapshot carries one; a core-count
// mismatch (snapshot from different hardware), a session core out of range
// or a profile window longer than the sOA keeps fails before any state is
// touched.
func (a *SOA) Restore(st *SOAState) error {
	if st.Budgets != nil && a.budgets != nil && len(st.Budgets.Cores) != a.budgets.Len() {
		return fmt.Errorf("core: snapshot ledger has %d cores, host has %d", len(st.Budgets.Cores), a.budgets.Len())
	}
	if len(st.Profile) > profileWindow {
		return fmt.Errorf("core: snapshot profile window holds %d slots, the sOA keeps %d", len(st.Profile), profileWindow)
	}
	for i, s := range st.Sessions {
		for _, c := range s.Cores {
			if c < 0 || c >= a.host.NumCores() {
				return fmt.Errorf("core: session %s references core %d of %d", s.VM, c, a.host.NumCores())
			}
		}
		for _, prev := range st.Sessions[:i] {
			if prev.VM == s.VM {
				return fmt.Errorf("core: snapshot holds two sessions for %s", s.VM)
			}
		}
	}

	a.assigned = st.Assigned
	a.staticBudget = st.StaticBudget
	a.powerTemplate = st.PowerTemplate
	a.mode = exploreMode(st.Mode)
	a.extraWatts = st.ExtraWatts
	if st.Exploration != nil {
		a.pol.Exploration.Restore(*st.Exploration)
	}
	a.nextExploreAt = st.NextExploreAt
	a.lastBumpAt = st.LastBumpAt
	a.exploitUntil = st.ExploitUntil
	a.profile = profileRing{}
	for _, s := range st.Profile {
		a.profile.push(s)
	}
	a.slotRequested = st.SlotRequested
	a.nextSlotAt = st.NextSlotAt
	a.lastTick = st.LastTick
	a.hasLastTick = st.HasLastTick
	a.recentRejectAt = st.RecentRejectAt
	a.hasRecentReject = st.HasRecentReject
	a.granted = st.Granted
	a.rejected = st.Rejected

	a.lastExhaustSignal = make(map[ExhaustionKind]time.Time, len(st.LastExhaustSignal))
	for k, v := range st.LastExhaustSignal {
		a.lastExhaustSignal[k] = v
	}

	if st.Budgets != nil && a.budgets != nil {
		if err := a.budgets.Restore(st.Budgets); err != nil {
			return err
		}
	}

	a.sessions = make(map[string]*Session, len(st.Sessions))
	a.ordered = make([]*Session, 0, len(st.Sessions))
	for _, s := range st.Sessions {
		sess := &Session{
			VM: s.VM, Cores: append([]int(nil), s.Cores...), TargetMHz: s.TargetMHz,
			Priority: s.Priority, Scheduled: s.Scheduled,
			StartedAt: s.StartedAt, currentMHz: s.CurrentMHz,
		}
		a.addSession(sess)
		a.applyFreq(sess)
	}
	return nil
}
