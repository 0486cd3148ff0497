package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"smartoclock/internal/baselines"
	"smartoclock/internal/experiment"
)

// sizes is how much work one repetition of each workload does. std is
// sized for a 2-core shared host so a repetition takes 1–2 s and a
// 12-second run holds at least seven of them; tiny exists so `go test`
// can smoke every workload in a few seconds.
type sizes struct {
	FleetRacks         int `json:"fleet_racks"`
	FleetServers       int `json:"fleet_servers"`
	TableRacksPerClass int `json:"table_racks_per_class"`
	TableTrainDays     int `json:"table_train_days"`
	TableEvalDays      int `json:"table_eval_days"`
	LiveServers        int `json:"live_servers"`
	LiveTicks          int `json:"live_ticks"`
	ControlRounds      int `json:"control_rounds"`
	ProbeRounds        int `json:"probe_rounds"`
	ClusterMinutes     int `json:"cluster_minutes"`
	// LedgerDiv divides the call counts of the traced pass's
	// micro-measurements (1 at std).
	LedgerDiv int `json:"ledger_div"`
}

var scales = map[string]sizes{
	"std": {
		FleetRacks: 150, FleetServers: 6,
		TableRacksPerClass: 1, TableTrainDays: 7, TableEvalDays: 1,
		LiveServers: 8, LiveTicks: 16000,
		ControlRounds: 500, ProbeRounds: 400,
		ClusterMinutes: 40, LedgerDiv: 1,
	},
	"tiny": {
		FleetRacks: 4, FleetServers: 6,
		TableRacksPerClass: 1, TableTrainDays: 1, TableEvalDays: 1,
		LiveServers: 4, LiveTicks: 200,
		ControlRounds: 25, ProbeRounds: 25,
		ClusterMinutes: 2, LedgerDiv: 50,
	},
}

// advanceTicks is how far one scripted round moves a held live run.
const advanceTicks = 4

// repOut is what one repetition simulated, in every unit of work the
// end-to-end metrics divide by, plus its correctness verdict.
type repOut struct {
	// Racks counts rack-scale simulation runs: streamed racks, Table I
	// (rack, system) shards, one per live run, one per emulated system.
	Racks int
	// Ticks counts control ticks across those runs; SimMinutes the
	// simulated time they covered.
	Ticks      int
	SimMinutes float64
	// TickWall is the host time the ticks took when that differs from the
	// repetition's wall time (live-control: summed Advance latency).
	TickWall time.Duration
	// Attempted/Failed count operations: shards, ticks plus commands, or
	// emulation runs. A non-2xx reply, an invariant violation or a run
	// error each fail one.
	Attempted, Failed int
	// Digest is the hex SHA-256 of the simulated output. Every repetition
	// of one workload must produce the same one.
	Digest string
	// Client-observed latencies (live-control and the plane probe only).
	Cmd, Scrape, Advance []time.Duration
	// Rejected counts non-2xx API replies; ScrapeBytes is the size of the
	// last /metrics body; Checkpoint is the file the session's final
	// ForceCheckpoint wrote.
	Rejected    int
	ScrapeBytes int64
	Checkpoint  []byte
}

// workload is one named benchmark workload. Its rep closure receives only
// generated configs: the seed never reaches the program under test except
// through them.
type workload struct {
	Name string
	Why  string
	// Clients is the number of load-generating client goroutines (0 for
	// the batch workloads, which run on the calling goroutine).
	Clients int
	rep     func() (repOut, error)
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloadNames is the fixed order workloads run and print in.
var workloadNames = []string{"fleet-stream", "table1", "table1-observed", "live-flatout", "live-control", "cluster-emul"}

// buildWorkloads generates every workload's configuration from the seed.
// scratch is a directory the live workloads may write checkpoints under.
func buildWorkloads(seed int64, sz sizes, scratch string) map[string]*workload {
	ws := map[string]*workload{}
	add := func(w *workload) { ws[w.Name] = w }

	add(&workload{
		Name: "fleet-stream",
		Why:  "streamed paper-scale path: one system, short training, so the per-tick kernel and trace generation share the time",
		rep: func() (repOut, error) {
			cfg := experiment.DefaultScaleConfig(sz.FleetRacks)
			cfg.Seed = seed
			cfg.ServersPerRack = sz.FleetServers
			cfg.System = baselines.SmartOClock
			cfg.Workers = 1
			res, err := experiment.RunFleetScale(cfg)
			out := repOut{Racks: sz.FleetRacks, Attempted: sz.FleetRacks}
			if err != nil {
				return out, err
			}
			ticksPerRack := cfg.EvalDays * int(24*time.Hour/cfg.Step)
			out.Ticks = sz.FleetRacks * ticksPerRack
			out.SimMinutes = float64(out.Ticks) * cfg.Step.Minutes()
			out.Digest = digest(fmt.Sprintf("requests=%d successes=%d cap_events=%d", res.Requests, res.Successes, res.CapEvents))
			return out, nil
		},
	})

	table := func(observe bool) func() (repOut, error) {
		return func() (repOut, error) {
			cfg := experiment.DefaultFleetSimConfig()
			cfg.Seed = seed
			cfg.RacksPerClass = sz.TableRacksPerClass
			cfg.TrainDays = sz.TableTrainDays
			cfg.EvalDays = sz.TableEvalDays
			cfg.Workers = 1
			shards := 3 * len(baselines.All()) * cfg.RacksPerClass
			out := repOut{Racks: shards, Attempted: shards}
			var tbl *experiment.Table
			var err error
			if observe {
				cfg.RecordEvery = time.Hour
				var obsv *experiment.FleetObservation
				tbl, _, obsv, err = experiment.RunTable1Observed(cfg)
				if err == nil && (obsv == nil || obsv.Metrics == nil || obsv.Trace == nil || obsv.Series == nil) {
					err = fmt.Errorf("observed run returned no observation")
				}
			} else {
				tbl, _, err = experiment.RunTable1(cfg)
			}
			if err != nil {
				return out, err
			}
			ticksPerShard := cfg.EvalDays * int(24*time.Hour/cfg.Step)
			out.Ticks = shards * ticksPerShard
			out.SimMinutes = float64(out.Ticks) * cfg.Step.Minutes()
			out.Digest = digest(tbl.Format())
			return out, nil
		}
	}
	add(&workload{
		Name: "table1",
		Why:  "the paper's headline table: a week of training per server and each rack regenerated per system, so trace, templates and gOA dominate",
		rep:  table(false),
	})
	add(&workload{
		Name: "table1-observed",
		Why:  "same kernel with metrics, event trace, provenance and shard merge on: isolates what observation costs",
		rep:  table(true),
	})

	add(&workload{
		Name: "live-flatout",
		Why:  "live tick kernel plus agent TCP loopback with API, telemetry and store bypassed",
		rep: func() (repOut, error) {
			cfg := liveConfig(seed, sz)
			cfg.Duration = time.Duration(sz.LiveTicks) * cfg.Tick
			res, err := experiment.RunLive(cfg, nil)
			out := repOut{Racks: 1, Attempted: sz.LiveTicks}
			if err != nil {
				return out, err
			}
			out.Ticks = res.Ticks
			out.SimMinutes = float64(res.Ticks) * cfg.Tick.Minutes()
			out.Failed = res.Violations
			if res.Ticks != sz.LiveTicks {
				out.Failed++
			}
			// Control messages cross real TCP links unpaced, so which tick a
			// budget push lands on is scheduler-dependent: only the tick count
			// is a deterministic output of this mode.
			out.Digest = digest(fmt.Sprintf("ticks=%d", res.Ticks))
			return out, nil
		},
	})

	add(&workload{
		Name:    "live-control",
		Why:     "operator path: HTTP auth/decode, command inbox, drain between held ticks, scrape and checkpoint beside both",
		Clients: 1,
		rep: func() (repOut, error) {
			return runControlSession(seed, sz, sz.ControlRounds, advanceTicks, filepath.Join(scratch, "live-control"))
		},
	})

	add(&workload{
		Name: "cluster-emul",
		Why:  "the 36-server emulation exercises sim, workload, autoscale and cluster, which no other workload touches",
		rep: func() (repOut, error) {
			cfg := experiment.DefaultClusterConfig(experiment.SysSmartOClock)
			cfg.Seed = seed
			cfg.Duration = time.Duration(sz.ClusterMinutes) * time.Minute
			if cfg.Warmup >= cfg.Duration {
				cfg.Warmup = cfg.Duration / 5
			}
			cfg.Workers = 1
			systems := len(experiment.ClusterSystems())
			out := repOut{Racks: systems, Attempted: systems}
			f12, f13, f14, _, err := experiment.RunFig12To14(cfg)
			if err != nil {
				return out, err
			}
			out.Ticks = systems * int(cfg.Duration/cfg.Tick)
			out.SimMinutes = float64(systems) * cfg.Duration.Minutes()
			out.Digest = digest(f12.Format(), f13.Format(), f14.Format())
			return out, nil
		},
	})
	return ws
}

// liveConfig is the live rack both live workloads run: flat out, no sink.
func liveConfig(seed int64, sz sizes) experiment.LiveConfig {
	cfg := experiment.DefaultLiveConfig()
	cfg.Seed = seed
	cfg.Servers = sz.LiveServers
	cfg.Pace = 0
	return cfg
}
