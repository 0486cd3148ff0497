// Package api is the mutating control plane of the live cluster mode: the
// transport-free Service port, its wire DTOs, and the HTTP adapter that
// exposes it with scoped Bearer authentication, per-credential token-bucket
// rate limiting and request-size caps.
//
// The package follows a hexagonal (ports & adapters) split:
//
//   - Service (this file) is the port: every control-plane operation as a
//     plain Go method over plain Go values, free of HTTP, JSON and auth.
//   - NewHandler (http.go) is the driving adapter: it authenticates,
//     authorizes, rate-limits, decodes and dispatches HTTP requests onto a
//     Service.
//   - Client (client.go) is the same port re-exported over HTTP for CLIs
//     and tests; it implements Service.
//   - The driven adapter lives in internal/experiment: a LiveController
//     enqueues each call into the live cluster's command inbox, where the
//     simulation goroutine applies it between ticks — mutations enter the
//     same channel-inbox model as control-plane telemetry, so the
//     single-writer discipline and the invariant battery are preserved.
//
// The package deliberately imports nothing from the simulation: DTOs are
// self-contained so the port can be re-backed (a federation tier, a mock)
// without dragging transport concerns along.
package api

import (
	"context"
	"fmt"
	"time"
)

// Service is the control-plane port. Every method is synchronous: it
// returns once the cluster has applied (or rejected) the mutation, so a
// caller observing its own write through Status sees it.
//
// Errors returned by implementations should be *Error values; the HTTP
// adapter maps their Kind to a status code and anything else to 500.
type Service interface {
	// Status reports a consistent snapshot of the cluster control state.
	Status(ctx context.Context) (*ClusterStatus, error)
	// RegisterDeployment places a named deployment onto free cores of a
	// server; its cores run at the spec utilization each tick and may be
	// overclocked via StartOverclock.
	RegisterDeployment(ctx context.Context, spec DeploymentSpec) (*DeploymentStatus, error)
	// DrainDeployment stops the deployment's overclock session, frees its
	// cores and removes it.
	DrainDeployment(ctx context.Context, name string) error
	// SetProfile installs a server's reported power/overclock profile on
	// the gOA (a flat week template, mirroring the live profile reports).
	SetProfile(ctx context.Context, spec ProfileSpec) error
	// SetBudget sets a server sOA's static power budget in watts.
	SetBudget(ctx context.Context, spec BudgetSpec) error
	// AssignBudgets computes the gOA's heterogeneous budget templates from
	// the currently reported profiles and assigns them to every profiled
	// server's sOA.
	AssignBudgets(ctx context.Context, spec AssignSpec) (*AssignStatus, error)
	// SetSeverity reclassifies a server's capping severity class.
	SetSeverity(ctx context.Context, spec SeveritySpec) error
	// StartOverclock asks a server's sOA to overclock a VM (the built-in
	// "vm" or a registered deployment). The sOA's admission control
	// decides; a denial is a granted=false status, not an error.
	StartOverclock(ctx context.Context, spec OCSpec) (*OCStatus, error)
	// StopOverclock cancels a VM's active overclock session.
	StopOverclock(ctx context.Context, spec StopSpec) error
	// SetChaos flips a chaos fault: while an agent ("goa" or
	// "soa/<server>") is down, control messages from and to it are dropped.
	SetChaos(ctx context.Context, spec ChaosSpec) (*ChaosStatus, error)
	// ForceCheckpoint writes a durable checkpoint now (requires the run to
	// have a checkpoint path configured).
	ForceCheckpoint(ctx context.Context) (*CheckpointStatus, error)
	// Advance runs n simulation ticks synchronously (hold mode only).
	Advance(ctx context.Context, spec AdvanceSpec) (*AdvanceStatus, error)
	// Shutdown ends the live run gracefully.
	Shutdown(ctx context.Context) error
}

// --- Errors ----------------------------------------------------------------

// ErrorKind classifies a control-plane error for transport mapping.
type ErrorKind string

const (
	// KindInvalid is a malformed or out-of-range request (HTTP 400).
	KindInvalid ErrorKind = "invalid"
	// KindNotFound names a server, VM or deployment that does not exist
	// (HTTP 404).
	KindNotFound ErrorKind = "not-found"
	// KindConflict is a request valid in itself but at odds with current
	// state, e.g. a duplicate deployment name (HTTP 409).
	KindConflict ErrorKind = "conflict"
	// KindUnavailable means the control plane cannot serve the request in
	// its current mode — run ended, checkpointing off, not holding
	// (HTTP 503).
	KindUnavailable ErrorKind = "unavailable"
)

// Error is the Service error type. Kind drives the HTTP status; Msg is the
// operator-facing detail.
type Error struct {
	Kind ErrorKind
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Kind, e.Msg) }

// Invalidf builds a KindInvalid error.
func Invalidf(format string, args ...any) *Error {
	return &Error{Kind: KindInvalid, Msg: fmt.Sprintf(format, args...)}
}

// NotFoundf builds a KindNotFound error.
func NotFoundf(format string, args ...any) *Error {
	return &Error{Kind: KindNotFound, Msg: fmt.Sprintf(format, args...)}
}

// Conflictf builds a KindConflict error.
func Conflictf(format string, args ...any) *Error {
	return &Error{Kind: KindConflict, Msg: fmt.Sprintf(format, args...)}
}

// Unavailablef builds a KindUnavailable error.
func Unavailablef(format string, args ...any) *Error {
	return &Error{Kind: KindUnavailable, Msg: fmt.Sprintf(format, args...)}
}

// KindOf extracts the ErrorKind of err, or "" for non-API errors.
func KindOf(err error) ErrorKind {
	if e, ok := err.(*Error); ok {
		return e.Kind
	}
	if e, ok := err.(*RemoteError); ok {
		return e.Kind
	}
	return ""
}

// --- Request DTOs ----------------------------------------------------------

// DeploymentSpec registers a deployment.
type DeploymentSpec struct {
	// Name is the cluster-unique deployment (and VM) name.
	Name string `json:"name"`
	// Server hosts the deployment.
	Server string `json:"server"`
	// Cores is how many free cores to allocate.
	Cores int `json:"cores"`
	// Util is the steady-state utilization its cores run at, in [0,1].
	Util float64 `json:"util"`
}

// Validate reports whether the spec is well formed.
func (s DeploymentSpec) Validate() error {
	switch {
	case s.Name == "":
		return Invalidf("deployment needs a name")
	case s.Name == "vm":
		return Invalidf("deployment name %q is reserved for the built-in VM", s.Name)
	case s.Server == "":
		return Invalidf("deployment needs a server")
	case s.Cores <= 0:
		return Invalidf("deployment needs cores > 0, got %d", s.Cores)
	case s.Util < 0 || s.Util > 1:
		return Invalidf("deployment util %g outside [0,1]", s.Util)
	}
	return nil
}

// DrainSpec names the deployment to drain.
type DrainSpec struct {
	Name string `json:"name"`
}

// Validate reports whether the spec is well formed.
func (s DrainSpec) Validate() error {
	if s.Name == "" {
		return Invalidf("drain needs a deployment name")
	}
	return nil
}

// ProfileSpec installs a server profile on the gOA.
type ProfileSpec struct {
	Server string `json:"server"`
	// MedianWatts is the server's flat power template level.
	MedianWatts float64 `json:"median_watts"`
	// RequestedCores/GrantedCores are the flat overclock template levels.
	RequestedCores float64 `json:"requested_cores"`
	GrantedCores   float64 `json:"granted_cores"`
	// CoreCostWatts is the per-core overclock power cost; 0 uses the
	// host's modeled cost.
	CoreCostWatts float64 `json:"core_cost_watts,omitempty"`
}

// Validate reports whether the spec is well formed.
func (s ProfileSpec) Validate() error {
	switch {
	case s.Server == "":
		return Invalidf("profile needs a server")
	case s.MedianWatts < 0:
		return Invalidf("profile median %g W negative", s.MedianWatts)
	case s.RequestedCores < 0 || s.GrantedCores < 0:
		return Invalidf("profile core counts must be non-negative")
	case s.GrantedCores > s.RequestedCores:
		return Invalidf("profile granted %g > requested %g cores", s.GrantedCores, s.RequestedCores)
	case s.CoreCostWatts < 0:
		return Invalidf("profile core cost %g W negative", s.CoreCostWatts)
	}
	return nil
}

// BudgetSpec sets a server's static power budget.
type BudgetSpec struct {
	Server string  `json:"server"`
	Watts  float64 `json:"watts"`
}

// Validate reports whether the spec is well formed.
func (s BudgetSpec) Validate() error {
	switch {
	case s.Server == "":
		return Invalidf("budget needs a server")
	case s.Watts <= 0:
		return Invalidf("budget needs watts > 0, got %g", s.Watts)
	}
	return nil
}

// AssignSpec parameterizes gOA budget-template assignment.
type AssignSpec struct {
	// StepMinutes is the template slot width; 0 defaults to 60.
	StepMinutes int `json:"step_minutes,omitempty"`
}

// Validate reports whether the spec is well formed.
func (s AssignSpec) Validate() error {
	if s.StepMinutes < 0 || s.StepMinutes > 24*60 {
		return Invalidf("assign step %d minutes outside (0, 1440]", s.StepMinutes)
	}
	return nil
}

// SeveritySpec reclassifies a server's capping severity.
type SeveritySpec struct {
	Server string `json:"server"`
	// Severity is the power.Severity class: 0 critical … 3 harvest.
	Severity int `json:"severity"`
}

// Validate reports whether the spec is well formed.
func (s SeveritySpec) Validate() error {
	switch {
	case s.Server == "":
		return Invalidf("severity needs a server")
	case s.Severity < 0 || s.Severity > 3:
		return Invalidf("severity class %d outside [0,3]", s.Severity)
	}
	return nil
}

// OCSpec triggers an overclock session.
type OCSpec struct {
	Server string `json:"server"`
	VM     string `json:"vm"`
	// Cores bounds the session to the first n of the VM's cores; 0 uses
	// all of them.
	Cores int `json:"cores,omitempty"`
	// TargetMHz is the requested frequency; 0 asks for the host maximum.
	TargetMHz int `json:"target_mhz,omitempty"`
	// DurationSec bounds the session in simulated seconds; 0 is
	// open-ended (metrics-style).
	DurationSec int `json:"duration_sec,omitempty"`
}

// Validate reports whether the spec is well formed.
func (s OCSpec) Validate() error {
	switch {
	case s.Server == "":
		return Invalidf("overclock needs a server")
	case s.VM == "":
		return Invalidf("overclock needs a vm")
	case s.Cores < 0:
		return Invalidf("overclock cores %d negative", s.Cores)
	case s.TargetMHz < 0:
		return Invalidf("overclock target %d MHz negative", s.TargetMHz)
	case s.DurationSec < 0:
		return Invalidf("overclock duration %d s negative", s.DurationSec)
	}
	return nil
}

// StopSpec cancels an overclock session.
type StopSpec struct {
	Server string `json:"server"`
	VM     string `json:"vm"`
}

// Validate reports whether the spec is well formed.
func (s StopSpec) Validate() error {
	switch {
	case s.Server == "":
		return Invalidf("stop needs a server")
	case s.VM == "":
		return Invalidf("stop needs a vm")
	}
	return nil
}

// ChaosSpec flips a chaos fault on an agent.
type ChaosSpec struct {
	// Agent is "goa" or "soa/<server>" (a bare server name is shorthand
	// for its sOA).
	Agent string `json:"agent"`
	Down  bool   `json:"down"`
}

// Validate reports whether the spec is well formed.
func (s ChaosSpec) Validate() error {
	if s.Agent == "" {
		return Invalidf("chaos needs an agent")
	}
	return nil
}

// AdvanceSpec runs simulation ticks in hold mode.
type AdvanceSpec struct {
	// Ticks is how many ticks to run; 0 defaults to 1.
	Ticks int `json:"ticks,omitempty"`
}

// MaxAdvanceTicks bounds one Advance call so a typo cannot wedge the
// control plane for hours.
const MaxAdvanceTicks = 100000

// Validate reports whether the spec is well formed.
func (s AdvanceSpec) Validate() error {
	if s.Ticks < 0 || s.Ticks > MaxAdvanceTicks {
		return Invalidf("advance ticks %d outside [0,%d]", s.Ticks, MaxAdvanceTicks)
	}
	return nil
}

// --- Response DTOs ---------------------------------------------------------

// DeploymentStatus describes a registered deployment.
type DeploymentStatus struct {
	Name   string  `json:"name"`
	Server string  `json:"server"`
	Cores  []int   `json:"cores"`
	Util   float64 `json:"util"`
}

// AssignStatus reports a budget-template assignment.
type AssignStatus struct {
	// Servers is how many sOAs received an assigned template.
	Servers int `json:"servers"`
	// Budgets is each profiled server's budget at the current sim time.
	Budgets map[string]float64 `json:"budgets,omitempty"`
}

// OCStatus is the sOA's decision on an overclock request.
type OCStatus struct {
	Granted bool   `json:"granted"`
	Reason  string `json:"reason,omitempty"`
	Cores   []int  `json:"cores,omitempty"`
}

// ChaosStatus reports the chaos fault state after a flip.
type ChaosStatus struct {
	Agent string `json:"agent"`
	Down  bool   `json:"down"`
	// DownAgents is the full sorted list of currently-down agents.
	DownAgents []string `json:"down_agents,omitempty"`
}

// CheckpointStatus reports a forced checkpoint write.
type CheckpointStatus struct {
	Path    string    `json:"path"`
	Bytes   int       `json:"bytes"`
	Writes  int       `json:"writes"`
	SavedAt time.Time `json:"saved_at"`
}

// AdvanceStatus reports how far Advance got.
type AdvanceStatus struct {
	// Ticks is how many ticks actually ran (the run may end first).
	Ticks int       `json:"ticks"`
	Now   time.Time `json:"now"`
}

// SessionStatus describes one active overclock session.
type SessionStatus struct {
	VM       string `json:"vm"`
	Cores    []int  `json:"cores"`
	MHz      int    `json:"mhz"`
	Priority string `json:"priority"`
}

// ServerStatus describes one server's control state.
type ServerStatus struct {
	Name         string             `json:"name"`
	Severity     int                `json:"severity"`
	SeverityName string             `json:"severity_name"`
	CapLevel     int                `json:"cap_level"`
	PowerWatts   float64            `json:"power_watts"`
	BudgetWatts  float64            `json:"budget_watts"`
	Sessions     []SessionStatus    `json:"sessions,omitempty"`
	Deployments  []DeploymentStatus `json:"deployments,omitempty"`
}

// RackStatus describes the rack manager's state.
type RackStatus struct {
	Name       string  `json:"name"`
	LimitWatts float64 `json:"limit_watts"`
	PowerWatts float64 `json:"power_watts"`
	CapEvents  int     `json:"cap_events"`
	Warnings   int     `json:"warnings"`
}

// CheckpointInfo mirrors the durable-state status into the cluster status.
type CheckpointInfo struct {
	Path         string    `json:"path,omitempty"`
	Writes       int       `json:"writes"`
	LastBytes    int       `json:"last_bytes,omitempty"`
	LastSavedAt  time.Time `json:"last_saved_at,omitempty"`
	RestoredFrom string    `json:"restored_from,omitempty"`
}

// ClusterStatus is the consistent control-state snapshot Status returns.
type ClusterStatus struct {
	// Now is the simulated time of the next tick to run.
	Now time.Time `json:"now"`
	// Hold reports whether the run advances only on Advance commands.
	Hold     bool `json:"hold"`
	Ticks    int  `json:"ticks"`
	Requests int  `json:"requests"`
	Granted  int  `json:"granted"`
	// Violations counts invariant violations observed so far (0 is the
	// only healthy value).
	Violations int            `json:"violations"`
	Rack       RackStatus     `json:"rack"`
	Servers    []ServerStatus `json:"servers"`
	// ProfiledServers lists servers the gOA currently holds profiles for.
	ProfiledServers []string `json:"profiled_servers,omitempty"`
	// ChaosDown lists agents currently chaos-downed; ChaosDropped counts
	// messages dropped by chaos gates.
	ChaosDown    []string       `json:"chaos_down,omitempty"`
	ChaosDropped int            `json:"chaos_dropped,omitempty"`
	Checkpoint   CheckpointInfo `json:"checkpoint"`
}
