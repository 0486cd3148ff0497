// Package cluster emulates the evaluation testbed: racks of simulated
// servers hosting VMs that run the workload models. A cluster Server
// implements both core.Host (the sOA's hardware interface) and power.Server
// (the rack manager's capping interface), reconciling the two: the sOA
// requests per-core frequencies, the rack manager imposes a capping
// ceiling, and the effective frequency is the minimum of both.
package cluster

import (
	"fmt"
	"time"

	"smartoclock/internal/lifetime"
	"smartoclock/internal/machine"
	"smartoclock/internal/metrics"
	"smartoclock/internal/power"
)

// Server is one emulated server.
type Server struct {
	name string
	m    *machine.Machine
	// hw is the machine's configuration, read per core in place:
	// Machine.Config returns a copy of the whole struct.
	hw          machine.Config
	desired     []int // sOA-requested per-core frequency
	capLevel    int
	capPriority int
	severity    power.Severity

	// agedSecs, when non-nil, mirrors MeanAgedSeconds into the metrics
	// registry on every Advance (see Instrument).
	agedSecs *metrics.Gauge
}

// NewServer creates a server named name from the hardware config with the
// given capping priority (higher = capped later).
func NewServer(name string, cfg machine.Config, capPriority int) *Server {
	m := machine.New(cfg)
	s := &Server{
		name:        name,
		m:           m,
		hw:          cfg,
		desired:     make([]int, cfg.Cores),
		capPriority: capPriority,
	}
	for i := range s.desired {
		s.desired[i] = cfg.TurboMHz
	}
	return s
}

// Machine exposes the underlying simulated hardware.
func (s *Server) Machine() *machine.Machine { return s.m }

// --- core.Host implementation -------------------------------------------

// Name implements core.Host and power.Server.
func (s *Server) Name() string { return s.name }

// NumCores implements core.Host.
func (s *Server) NumCores() int { return s.m.Cores() }

// TurboMHz implements core.Host.
func (s *Server) TurboMHz() int { return s.hw.TurboMHz }

// MaxOCMHz implements core.Host.
func (s *Server) MaxOCMHz() int { return s.hw.MaxOCMHz }

// StepMHz implements core.Host.
func (s *Server) StepMHz() int { return s.hw.StepMHz }

// Power implements core.Host and power.Server.
func (s *Server) Power() float64 { return s.m.Power() }

// CoreUtil implements core.Host.
func (s *Server) CoreUtil(core int) float64 { return s.m.Util(core) }

// SetDesiredFreq implements core.Host: records the sOA's request and
// applies the effective frequency (bounded by the capping ceiling).
func (s *Server) SetDesiredFreq(core, mhz int) {
	s.desired[core] = s.hw.ClampFreq(mhz)
	s.apply(core)
}

// DesiredFreq implements core.Host.
func (s *Server) DesiredFreq(core int) int { return s.desired[core] }

// OCDeltaWatts implements core.Host using the machine's power model.
func (s *Server) OCDeltaWatts(cores, mhz int, util float64) float64 {
	hw := &s.hw
	return float64(cores) * (hw.CorePower(hw.ClampFreq(mhz), util) - hw.CorePower(hw.TurboMHz, util))
}

// --- power.Server implementation ----------------------------------------

// CapPriority implements power.Server.
func (s *Server) CapPriority() int { return s.capPriority }

// SetSeverity declares the server's capping severity class. Like the cap
// priority it is placement-time configuration, not runtime state, so it is
// not part of the snapshot.
func (s *Server) SetSeverity(v power.Severity) { s.severity = v }

// Severity implements power.SeverityClassed. The zero value is
// SeverityCritical: an unclassed production server is capped last under
// severity-ordered capping.
func (s *Server) Severity() power.Severity { return s.severity }

// MaxCapLevel implements power.Server with the machine's cap ladder.
func (s *Server) MaxCapLevel() int { return s.hw.MaxCapLevel() }

// ForceCap implements power.Server.
func (s *Server) ForceCap(level int) {
	if level < 0 {
		level = 0
	}
	if level > s.MaxCapLevel() {
		level = s.MaxCapLevel()
	}
	s.capLevel = level
	for i := range s.desired {
		s.apply(i)
	}
}

// CapLevel implements power.Server.
func (s *Server) CapLevel() int { return s.capLevel }

// apply pushes the effective frequency (desired bounded by the cap
// ceiling) into the hardware.
func (s *Server) apply(core int) {
	s.m.SetFreq(core, min(s.desired[core], s.hw.CapCeiling(s.capLevel)))
}

// EffectiveFreq returns the frequency core actually runs at.
func (s *Server) EffectiveFreq(core int) int { return s.m.Freq(core) }

// SetCoreUtil sets one core's utilization.
func (s *Server) SetCoreUtil(core int, u float64) { s.m.SetUtil(core, u) }

// Advance integrates dt of operation: energy, overclocked time-in-state
// and per-core wear, all in the machine's one pass over its cores.
func (s *Server) Advance(dt time.Duration) {
	s.m.Advance(dt)
	if s.agedSecs != nil {
		s.agedSecs.Set(s.MeanAgedSeconds())
	}
}

// Instrument attaches the server's hardware counters (the underlying
// machine's PMT-like gauges plus mean silicon aging) to a registry under a
// server label.
func (s *Server) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	ls := metrics.With(labels, metrics.L("server", s.name))
	s.m.Instrument(reg, ls...)
	s.agedSecs = reg.Gauge("server_mean_aged_seconds", ls...)
}

// Energy returns cumulative energy in joules.
func (s *Server) Energy() float64 { return s.m.Energy() }

// MeanAgedSeconds returns the mean accumulated aging across cores, in
// seconds of reference operation.
func (s *Server) MeanAgedSeconds() float64 {
	total := 0.0
	for i := 0; i < s.m.Cores(); i++ {
		total += s.m.Aged(i).Seconds()
	}
	return total / float64(s.m.Cores())
}

// ServerState is the serializable runtime state of a Server: the capping
// position, the sOA-requested frequencies and the per-core wear counters.
// Hardware configuration and the aging model are not serialized — a
// restoring process re-creates the Server from its own config and only the
// accumulated state comes from the checkpoint.
type ServerState struct {
	Name     string               `json:"name"`
	CapLevel int                  `json:"cap_level"`
	Desired  []int                `json:"desired"`
	Wear     []lifetime.WearState `json:"wear"`
}

// Snapshot captures the server's runtime state.
func (s *Server) Snapshot() *ServerState {
	return &ServerState{
		Name:     s.name,
		CapLevel: s.capLevel,
		Desired:  append([]int(nil), s.desired...),
		Wear:     s.m.WearState(),
	}
}

// Restore overwrites the server's runtime state from a snapshot and
// re-applies the effective frequencies. It fails before touching any state
// on a core-count mismatch (snapshot from different hardware) or on wear
// counters whose cores disagree on elapsed time.
func (s *Server) Restore(st *ServerState) error {
	if len(st.Desired) != len(s.desired) || len(st.Wear) != len(s.desired) {
		return fmt.Errorf("cluster: snapshot has %d/%d cores, server %s has %d",
			len(st.Desired), len(st.Wear), s.name, len(s.desired))
	}
	if err := s.m.RestoreWear(st.Wear); err != nil {
		return fmt.Errorf("cluster: server %s: %w", s.name, err)
	}
	for i, mhz := range st.Desired {
		s.desired[i] = s.hw.ClampFreq(mhz)
	}
	s.ForceCap(st.CapLevel) // clamps the level to the ladder and applies every core
	if s.agedSecs != nil {
		s.agedSecs.Set(s.MeanAgedSeconds())
	}
	return nil
}

// VM is a placed workload instance owning a set of cores on a server.
type VM struct {
	Name   string
	Server *Server
	Cores  []int
}

// SetUtil sets the utilization of every core the VM owns.
func (vm *VM) SetUtil(u float64) {
	for _, c := range vm.Cores {
		vm.Server.SetCoreUtil(c, u)
	}
}

// Freq returns the effective frequency of the VM's first core (all the
// VM's cores are driven together).
func (vm *VM) Freq() int {
	if len(vm.Cores) == 0 {
		return vm.Server.TurboMHz()
	}
	return vm.Server.EffectiveFreq(vm.Cores[0])
}

// PlaceVM allocates n cores on the server for a VM, after any cores
// already allocated. It returns an error when the server is out of cores.
func PlaceVM(s *Server, name string, n int, firstFree int) (*VM, error) {
	if firstFree+n > s.NumCores() {
		return nil, fmt.Errorf("cluster: server %s out of cores (%d requested at %d of %d)",
			s.Name(), n, firstFree, s.NumCores())
	}
	cores := make([]int, n)
	for i := range cores {
		cores[i] = firstFree + i
	}
	return &VM{Name: name, Server: s, Cores: cores}, nil
}
