package experiment

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartoclock/internal/agent"
	"smartoclock/internal/api"
	"smartoclock/internal/cluster"
	"smartoclock/internal/core"
	"smartoclock/internal/invariant"
	"smartoclock/internal/metrics"
	"smartoclock/internal/power"
	"smartoclock/internal/store"
)

// liveDeployment is an API-registered workload owning cores on one server.
// Its cores run at util each tick (overriding the background pattern), and
// its name, its key in liveWorld.deployments, doubles as the VM name for
// overclock sessions.
type liveDeployment struct {
	server string
	cores  []int
	util   float64
}

// liveWorld is the complete mutable state of one RunLive invocation. It is
// owned by the run goroutine: every mutation — simulation ticks, inbound
// control messages and API commands alike — is applied by that goroutine,
// with shared reads (HTTP scrapes) going through the locked registry. API
// commands therefore enter the same single-writer channel-inbox model as
// the TCP control plane, which is what keeps the invariant battery and the
// hold-mode determinism guarantees intact.
type liveWorld struct {
	cfg LiveConfig
	lk  *metrics.Locked

	// now is the simulated time of the next tick to run; end the last.
	now time.Time
	end time.Time

	// rig is the rack's control plane: servers with their sOAs, the gOA and
	// the rack manager.
	rig *rig

	deployments map[string]*liveDeployment

	// chaosDown marks agents ("goa", "soa/<server>") whose control
	// messages are dropped in both directions; dropped counts the drops.
	chaosDown map[string]bool
	dropped   int

	res       *LiveResult
	checker   *invariant.Checker
	stateInfo *store.StateInfo
	statePub  interface{ PublishState(store.StateInfo) }

	ckptWrites *metrics.Counter
	ckptErrors *metrics.Counter
	ckptBytes  *metrics.Gauge

	// The transport: two loopback nodes and the inboxes their read loops
	// fill. pendingRack queues the rack events of the running tick until
	// they cross TCP after it.
	goaNode, soaNode   *agent.TCPNode
	goaInbox, soaInbox chan agent.Message
	pendingRack        []power.Event
	pub                *livePublisher

	// rngs draw each server's background utilization; the next instants
	// schedule the periodic sends and checkpoints.
	rngs                              []*rand.Rand
	nextProfile, nextBudget, nextCkpt time.Time
	// stepLocked is drainAndStep bound once, so handing it to the lock
	// costs no allocation per tick.
	stepLocked func(*metrics.Registry)
	shutdown   bool

	// sent/received count control messages successfully written to and
	// delivered from the loopback links; hold mode barriers on their
	// equality so tick N+1 always drains everything tick N sent.
	sent     atomic.Int64
	received atomic.Int64
	// lost counts what voids that guarantee: messages a full inbox shed and
	// barriers that timed out. Hold mode reports each as a violation.
	lost atomic.Int64
}

// violations is the invariant battery's total plus, in hold mode, every
// silent message loss — either one means the run is no longer the pure
// function of its script that hold mode promises.
func (w *liveWorld) violations() int {
	n := w.checker.Total()
	if w.cfg.Hold {
		n += int(w.lost.Load())
	}
	return n
}

// do runs fn under the shared registry lock.
func (w *liveWorld) do(fn func()) { w.lk.Do(func(*metrics.Registry) { fn() }) }

// server resolves a server name (the rig's slots are fixed after setup).
func (w *liveWorld) server(name string) (*rigServer, error) {
	ls, ok := w.rig.byAgent["soa/"+name]
	if !ok {
		return nil, api.NotFoundf("no server %q", name)
	}
	return ls, nil
}

// onServer runs fn under the lock on the named server.
func (w *liveWorld) onServer(name string, fn func(ls *rigServer)) error {
	ls, err := w.server(name)
	if err == nil {
		w.do(func() { fn(ls) })
	}
	return err
}

// chaosAllows gates one control-plane message on the chaos fault state: it
// is dropped, and counted, when either endpoint is down.
func (w *liveWorld) chaosAllows(m agent.Message) bool {
	if w.chaosDown[m.From] || w.chaosDown[m.To] {
		w.dropped++
		return false
	}
	return true
}

// --- Command implementations (run-goroutine only) --------------------------

func (w *liveWorld) buildStatus() *api.ClusterStatus {
	st := &api.ClusterStatus{
		Now:      w.now,
		Hold:     w.cfg.Hold,
		Ticks:    w.res.Ticks,
		Requests: w.rig.requests,
		Granted:  w.rig.granted,
		Rack: api.RackStatus{
			Name:       w.rig.rack.Name(),
			LimitWatts: w.rig.rack.Config().LimitWatts,
			PowerWatts: w.rig.rack.Power(),
			CapEvents:  w.rig.rack.CapEvents(),
			Warnings:   w.rig.rack.Warnings(),
		},
		Violations:   w.violations(),
		ChaosDropped: w.dropped,
		Checkpoint: api.CheckpointInfo{
			Path:         w.stateInfo.CheckpointPath,
			Writes:       w.stateInfo.Writes,
			LastBytes:    w.stateInfo.LastBytes,
			LastSavedAt:  w.stateInfo.LastSavedAt,
			RestoredFrom: w.stateInfo.RestoredFrom,
		},
	}
	st.ProfiledServers = w.rig.goa.Servers()
	st.ChaosDown = sortedKeys(w.chaosDown)
	deployments := sortedKeys(w.deployments)
	for _, ls := range w.rig.servers {
		ss := api.ServerStatus{
			Name:         ls.srv.Name(),
			Severity:     int(ls.srv.Severity()),
			SeverityName: ls.srv.Severity().String(),
			CapLevel:     ls.srv.CapLevel(),
			PowerWatts:   ls.srv.Power(),
			BudgetWatts:  ls.soa.BudgetAt(w.now),
		}
		sessions := ls.soa.Sessions()
		for _, vm := range sortedKeys(sessions) {
			s := sessions[vm]
			ss.Sessions = append(ss.Sessions, api.SessionStatus{
				VM:       vm,
				Cores:    append([]int(nil), s.Cores...),
				MHz:      s.CurrentMHz(),
				Priority: s.Priority.String(),
			})
		}
		for _, name := range deployments {
			if d := w.deployments[name]; d.server == ss.Name {
				ss.Deployments = append(ss.Deployments, api.DeploymentStatus{
					Name: name, Server: d.server,
					Cores: append([]int(nil), d.cores...), Util: d.util,
				})
			}
		}
		st.Servers = append(st.Servers, ss)
	}
	return st
}

// sortedKeys returns m's keys in order, nil for an empty map.
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (w *liveWorld) registerDeployment(spec api.DeploymentSpec) (*api.DeploymentStatus, error) {
	if _, dup := w.deployments[spec.Name]; dup {
		return nil, api.Conflictf("deployment %q already registered", spec.Name)
	}
	ls, err := w.server(spec.Server)
	if err != nil {
		return nil, err
	}
	var free []int
	for c := len(ls.vmCores); c < ls.srv.NumCores(); c++ {
		if _, taken := ls.pinned[c]; !taken {
			free = append(free, c)
		}
	}
	if len(free) < spec.Cores {
		return nil, api.Conflictf("server %s has %d free cores, deployment %q needs %d",
			spec.Server, len(free), spec.Name, spec.Cores)
	}
	cores := append([]int(nil), free[:spec.Cores]...)
	dep := &liveDeployment{server: spec.Server, cores: cores, util: spec.Util}
	w.do(func() {
		for _, c := range cores {
			ls.pinned[c] = spec.Util
			ls.srv.SetCoreUtil(c, spec.Util)
		}
		w.deployments[spec.Name] = dep
	})
	return &api.DeploymentStatus{Name: spec.Name, Server: dep.server,
		Cores: append([]int(nil), cores...), Util: dep.util}, nil
}

func (w *liveWorld) drainDeployment(name string) error {
	dep, ok := w.deployments[name]
	if !ok {
		return api.NotFoundf("no deployment %q", name)
	}
	ls, _ := w.server(dep.server) // deployments only register on known servers
	w.do(func() {
		ls.soa.Stop(w.now, name)
		for _, c := range dep.cores {
			delete(ls.pinned, c)
			ls.srv.SetCoreUtil(c, 0)
		}
		delete(w.deployments, name)
	})
	return nil
}

func (w *liveWorld) setProfile(spec api.ProfileSpec) error {
	return w.onServer(spec.Server, func(ls *rigServer) {
		cost := spec.CoreCostWatts
		if cost == 0 {
			cost = ls.srv.Machine().Config().OCCoreCost()
		}
		w.rig.goa.SetProfile(spec.Server, flatProfile(profileMsg{
			Server: spec.Server, MedianWatts: spec.MedianWatts,
			Requested: spec.RequestedCores, Granted: spec.GrantedCores, CoreCost: cost,
		}))
	})
}

func (w *liveWorld) setBudget(spec api.BudgetSpec) error {
	return w.onServer(spec.Server, func(ls *rigServer) { ls.soa.SetStaticBudget(spec.Watts, true) })
}

func (w *liveWorld) assignBudgets(spec api.AssignSpec) (*api.AssignStatus, error) {
	step := time.Duration(spec.StepMinutes) * time.Minute
	if step == 0 {
		step = time.Hour
	}
	st := &api.AssignStatus{}
	var err error
	w.do(func() {
		templates := w.rig.goa.BudgetTemplates(step)
		if len(templates) == 0 {
			err = api.Unavailablef("no server profiles reported yet")
			return
		}
		for name, tmpl := range templates {
			if ls, lerr := w.server(name); lerr == nil {
				ls.soa.SetAssignedBudget(tmpl)
				st.Servers++
			}
		}
		st.Budgets = w.rig.goa.BudgetsAt(w.now)
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (w *liveWorld) setSeverity(spec api.SeveritySpec) error {
	return w.onServer(spec.Server, func(ls *rigServer) { ls.srv.SetSeverity(power.Severity(spec.Severity)) })
}

func (w *liveWorld) startOverclock(spec api.OCSpec) (*api.OCStatus, error) {
	ls, err := w.server(spec.Server)
	if err != nil {
		return nil, err
	}
	owned := ls.vmCores
	if spec.VM != "vm" {
		dep, ok := w.deployments[spec.VM]
		if !ok || dep.server != spec.Server {
			return nil, api.NotFoundf("no vm %q on server %s", spec.VM, spec.Server)
		}
		owned = dep.cores
	}
	n := spec.Cores
	if n == 0 {
		n = len(owned)
	}
	if n > len(owned) {
		return nil, api.Invalidf("vm %q owns %d cores, requested %d", spec.VM, len(owned), n)
	}
	target := spec.TargetMHz
	if target == 0 {
		target = ls.srv.MaxOCMHz()
	}
	var d core.Decision
	w.do(func() {
		w.rig.requests++
		d = ls.soa.Request(w.now, core.Request{
			VM: spec.VM, Cores: n, TargetMHz: target,
			Priority:       core.PriorityMetric,
			Duration:       time.Duration(spec.DurationSec) * time.Second,
			PreferredCores: append([]int(nil), owned[:n]...),
		})
		if d.Granted {
			w.rig.granted++
		}
	})
	return &api.OCStatus{Granted: d.Granted, Reason: string(d.Reason),
		Cores: append([]int(nil), d.Cores...)}, nil
}

func (w *liveWorld) stopOverclock(spec api.StopSpec) error {
	var found bool
	err := w.onServer(spec.Server, func(ls *rigServer) {
		if _, found = ls.soa.Sessions()[spec.VM]; found {
			ls.soa.Stop(w.now, spec.VM)
		}
	})
	if err == nil && !found {
		err = api.NotFoundf("no active session for vm %q on server %s", spec.VM, spec.Server)
	}
	return err
}

func (w *liveWorld) setChaos(spec api.ChaosSpec) (*api.ChaosStatus, error) {
	agent := spec.Agent
	if agent != w.rig.goaID {
		if !strings.HasPrefix(agent, "soa/") {
			agent = "soa/" + agent // a bare server name is shorthand for its sOA
		}
		if _, ok := w.rig.byAgent[agent]; !ok {
			return nil, api.NotFoundf("no agent %q", spec.Agent)
		}
	}
	st := &api.ChaosStatus{Agent: agent, Down: spec.Down}
	w.do(func() {
		if spec.Down {
			w.chaosDown[agent] = true
		} else {
			delete(w.chaosDown, agent)
		}
		st.DownAgents = sortedKeys(w.chaosDown)
	})
	return st, nil
}

// buildCheckpoint snapshots the whole control plane: gOA, sOAs with their
// lifetime ledgers, server cap/wear state. Must run under the lock.
func (w *liveWorld) buildCheckpoint() *store.Checkpoint {
	cp := &store.Checkpoint{
		GOA:     w.rig.goa.Snapshot(),
		SOAs:    make(map[string]*core.SOAState, len(w.rig.servers)),
		Servers: make(map[string]*cluster.ServerState, len(w.rig.servers)),
	}
	for _, ls := range w.rig.servers {
		cp.SOAs[ls.srv.Name()] = ls.soa.Snapshot()
		cp.Servers[ls.srv.Name()] = ls.srv.Snapshot()
	}
	return cp
}

// checkpointNow writes a durable checkpoint — the periodic path and the
// ForceCheckpoint command share it. The snapshot is taken under the lock,
// the disk write outside it (atomic rename: a crash mid-write leaves the
// previous checkpoint intact).
func (w *liveWorld) checkpointNow() (*api.CheckpointStatus, error) {
	if w.cfg.CheckpointPath == "" {
		return nil, api.Unavailablef("run has no -checkpoint path configured")
	}
	var cp *store.Checkpoint
	w.do(func() { cp = w.buildCheckpoint() })
	data, err := store.Encode(w.now, cp)
	if err == nil {
		err = store.SaveEncoded(w.cfg.CheckpointPath, data)
	}
	w.do(func() {
		if err != nil {
			w.ckptErrors.Inc()
		} else {
			w.ckptWrites.Inc()
			w.ckptBytes.Set(float64(len(data)))
		}
	})
	if err != nil {
		return nil, api.Unavailablef("checkpoint: %v", err)
	}
	w.res.Checkpoints++
	w.stateInfo.Writes = w.res.Checkpoints
	w.stateInfo.LastSavedAt = w.now
	w.stateInfo.LastBytes = len(data)
	if w.statePub != nil {
		w.statePub.PublishState(*w.stateInfo)
	}
	return &api.CheckpointStatus{
		Path:    w.cfg.CheckpointPath,
		Bytes:   len(data),
		Writes:  w.res.Checkpoints,
		SavedAt: w.now,
	}, nil
}

func (w *liveWorld) advance(spec api.AdvanceSpec) (*api.AdvanceStatus, error) {
	if !w.cfg.Hold {
		return nil, api.Conflictf("advance requires a run started in hold mode")
	}
	n := spec.Ticks
	if n == 0 {
		n = 1
	}
	ran := 0
	for ; ran < n && !w.now.After(w.end) && !w.shutdown; ran++ {
		w.tick()
	}
	return &api.AdvanceStatus{Ticks: ran, Now: w.now}, nil
}

// --- LiveController: the api.Service adapter -------------------------------

type liveReply struct {
	v   any
	err error
}

type liveCmd struct {
	apply func(w *liveWorld) (any, error)
	reply chan liveReply
}

// LiveController adapts the api.Service port onto a live cluster run: each
// call is enqueued as a command and applied by the run goroutine between
// ticks, so callers get synchronous read-your-writes semantics while the
// simulation keeps its single-writer discipline. Construct one with
// NewLiveController, set it as LiveConfig.Control, and hand Service
// callers (the HTTP adapter, socctl, tests) the controller itself.
type LiveController struct {
	cmds chan liveCmd
	done chan struct{}
	once sync.Once
}

// NewLiveController returns a controller ready to attach to a LiveConfig.
// Commands submitted before the run starts queue up (bounded) and apply
// once it does.
func NewLiveController() *LiveController {
	return &LiveController{cmds: make(chan liveCmd, 1024), done: make(chan struct{})}
}

var _ api.Service = (*LiveController)(nil)

// finish ends the controller's life: pending and future commands fail with
// an unavailable error. Called when the run ends.
func (c *LiveController) finish() {
	c.once.Do(func() { close(c.done) })
	for {
		select {
		case cmd := <-c.cmds:
			cmd.reply <- liveReply{nil, api.Unavailablef("live run ended")}
		default:
			return
		}
	}
}

// exec applies one command on the run goroutine and replies.
func (c *LiveController) exec(w *liveWorld, cmd liveCmd) {
	v, err := cmd.apply(w)
	cmd.reply <- liveReply{v, err}
}

// serveFor applies commands as they arrive for d of wall-clock time.
func (c *LiveController) serveFor(w *liveWorld, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	for {
		select {
		case cmd := <-c.cmds:
			c.exec(w, cmd)
		case <-timer.C:
			return
		}
	}
}

// drain applies every queued command without blocking.
func (c *LiveController) drain(w *liveWorld) {
	for {
		select {
		case cmd := <-c.cmds:
			c.exec(w, cmd)
		default:
			return
		}
	}
}

// submit enqueues fn, waits for the run goroutine to apply it and returns
// its result as a T.
func submit[T any](ctx context.Context, c *LiveController, fn func(w *liveWorld) (any, error)) (T, error) {
	cmd := liveCmd{apply: fn, reply: make(chan liveReply, 1)}
	var r liveReply
	select {
	case c.cmds <- cmd:
	case <-c.done:
		r.err = api.Unavailablef("live run not accepting commands")
	case <-ctx.Done():
		r.err = api.Unavailablef("canceled: %v", ctx.Err())
	}
	if r.err == nil {
		select {
		case r = <-cmd.reply:
		case <-c.done:
			// The run ended between enqueue and apply; finish() answers the
			// buffered reply if it drained the command.
			select {
			case r = <-cmd.reply:
			default:
				r.err = api.Unavailablef("live run ended")
			}
		}
	}
	v, _ := r.v.(T)
	return v, r.err
}

// submitErr submits fn, whose only result is its error.
func submitErr(ctx context.Context, c *LiveController, fn func(w *liveWorld) (any, error)) error {
	_, err := submit[any](ctx, c, fn)
	return err
}

// Status implements api.Service.
func (c *LiveController) Status(ctx context.Context) (*api.ClusterStatus, error) {
	return submit[*api.ClusterStatus](ctx, c, func(w *liveWorld) (any, error) {
		var st *api.ClusterStatus
		w.do(func() { st = w.buildStatus() })
		return st, nil
	})
}

// RegisterDeployment implements api.Service.
func (c *LiveController) RegisterDeployment(ctx context.Context, spec api.DeploymentSpec) (*api.DeploymentStatus, error) {
	return submit[*api.DeploymentStatus](ctx, c, func(w *liveWorld) (any, error) { return w.registerDeployment(spec) })
}

// DrainDeployment implements api.Service.
func (c *LiveController) DrainDeployment(ctx context.Context, name string) error {
	return submitErr(ctx, c, func(w *liveWorld) (any, error) { return nil, w.drainDeployment(name) })
}

// SetProfile implements api.Service.
func (c *LiveController) SetProfile(ctx context.Context, spec api.ProfileSpec) error {
	return submitErr(ctx, c, func(w *liveWorld) (any, error) { return nil, w.setProfile(spec) })
}

// SetBudget implements api.Service.
func (c *LiveController) SetBudget(ctx context.Context, spec api.BudgetSpec) error {
	return submitErr(ctx, c, func(w *liveWorld) (any, error) { return nil, w.setBudget(spec) })
}

// AssignBudgets implements api.Service.
func (c *LiveController) AssignBudgets(ctx context.Context, spec api.AssignSpec) (*api.AssignStatus, error) {
	return submit[*api.AssignStatus](ctx, c, func(w *liveWorld) (any, error) { return w.assignBudgets(spec) })
}

// SetSeverity implements api.Service.
func (c *LiveController) SetSeverity(ctx context.Context, spec api.SeveritySpec) error {
	return submitErr(ctx, c, func(w *liveWorld) (any, error) { return nil, w.setSeverity(spec) })
}

// StartOverclock implements api.Service.
func (c *LiveController) StartOverclock(ctx context.Context, spec api.OCSpec) (*api.OCStatus, error) {
	return submit[*api.OCStatus](ctx, c, func(w *liveWorld) (any, error) { return w.startOverclock(spec) })
}

// StopOverclock implements api.Service.
func (c *LiveController) StopOverclock(ctx context.Context, spec api.StopSpec) error {
	return submitErr(ctx, c, func(w *liveWorld) (any, error) { return nil, w.stopOverclock(spec) })
}

// SetChaos implements api.Service.
func (c *LiveController) SetChaos(ctx context.Context, spec api.ChaosSpec) (*api.ChaosStatus, error) {
	return submit[*api.ChaosStatus](ctx, c, func(w *liveWorld) (any, error) { return w.setChaos(spec) })
}

// ForceCheckpoint implements api.Service.
func (c *LiveController) ForceCheckpoint(ctx context.Context) (*api.CheckpointStatus, error) {
	return submit[*api.CheckpointStatus](ctx, c, func(w *liveWorld) (any, error) { return w.checkpointNow() })
}

// Advance implements api.Service.
func (c *LiveController) Advance(ctx context.Context, spec api.AdvanceSpec) (*api.AdvanceStatus, error) {
	return submit[*api.AdvanceStatus](ctx, c, func(w *liveWorld) (any, error) { return w.advance(spec) })
}

// Shutdown implements api.Service.
func (c *LiveController) Shutdown(ctx context.Context) error {
	return submitErr(ctx, c, func(w *liveWorld) (any, error) {
		w.shutdown = true
		return nil, nil
	})
}
