// Command soccluster runs the emulated 36-server cluster evaluation of
// §V-A: Figs 12-14 (latency, cost, energy across Baseline / ScaleOut /
// ScaleUp / SmartOClock) plus the power-constrained and
// overclocking-constrained experiments.
//
// Usage:
//
//	soccluster [-minutes M] [-warmup M] [-seed S]
//	           [-main] [-powerconstrained] [-occonstrained]
//	soccluster -serve 127.0.0.1:9188 [-pace 200ms] [-minutes M]
//	           [-checkpoint state.json] [-checkpoint-every 1m] [-restore state.json]
//
// With no experiment flag all three run. -serve switches to the live
// networked mode instead: a small rack whose control plane crosses real
// loopback TCP links, paced in wall-clock time, with /metrics, /healthz,
// /statez, /trace/tail and /debug/pprof served on the given address for the
// duration of the run. -checkpoint periodically persists the control plane
// (gOA profiles, sOA sessions/budgets/ledgers, server wear) to an atomic
// checkpoint file; -restore warm-starts a run from one, so a killed server
// resumes where the checkpoint left it instead of relearning from scratch:
// the restored run picks up the simulated clock at the checkpoint's saved
// instant and covers -minutes from there.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"smartoclock/internal/api"
	"smartoclock/internal/experiment"
	"smartoclock/internal/obs"
	"smartoclock/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soccluster: ")

	minutes := flag.Int("minutes", 40, "emulated duration in minutes")
	warmup := flag.Int("warmup", 8, "warmup minutes excluded from measurement")
	seed := flag.Int64("seed", 1, "deterministic seed")
	limitScale := flag.Float64("limitscale", 0.80, "rack limit scale for the power-constrained run")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent emulation workers across the system sweep (results are identical at any count)")
	runMain := flag.Bool("main", false, "run only Figs 12-14")
	runPower := flag.Bool("powerconstrained", false, "run only the power-constrained comparison")
	runOC := flag.Bool("occonstrained", false, "run only the overclocking-constrained comparison")
	metricsOut := flag.String("metrics-out", "", "write the merged metrics snapshot of the Figs 12-14 sweep (or, if only -powerconstrained runs, that sweep) here; .json selects JSON, anything else Prometheus text")
	traceOut := flag.String("trace-out", "", "write the merged structured event trace of the observed sweep here as JSON Lines")
	seriesOut := flag.String("series-out", "", "write the merged recorded time series of the observed sweep here; .json selects JSON, anything else CSV")
	recordEvery := flag.Duration("record-every", 0, "sampling interval (emulated time) for -series-out; defaults to 1m")
	traceComponents := flag.String("trace-components", "", "comma-separated obs components to trace (e.g. soa,rack,alert); empty traces everything")
	serve := flag.String("serve", "", "run the live networked mode instead, serving /metrics, /healthz, /trace/tail and /debug/pprof on this address until the run ends")
	pace := flag.Duration("pace", 200*time.Millisecond, "wall-clock pace per live tick (with -serve); 0 runs flat out")
	checkpoint := flag.String("checkpoint", "", "with -serve: write periodic durable checkpoints of the control plane to this file")
	checkpointEvery := flag.Duration("checkpoint-every", time.Minute, "with -serve -checkpoint: simulated time between checkpoints")
	restore := flag.String("restore", "", "with -serve: warm-start the run from this checkpoint file, resuming its simulated clock at the saved instant")
	apiDefaults := api.DefaultConfig()
	if err := apiDefaults.FromEnv(os.LookupEnv); err != nil {
		log.Fatal(err)
	}
	apiTokens := flag.String("api-tokens", apiDefaults.Tokens, "with -serve: enable the mutating control-plane API under /api/v1 with this credential spec (name:token:scope+scope[:rfc3339-expiry];...); empty disables it ($"+api.EnvTokens+")")
	apiRate := flag.Float64("api-rate", apiDefaults.Rate, "with -api-tokens: per-credential rate limit in requests/second; <=0 disables limiting ($"+api.EnvRate+")")
	apiBurst := flag.Float64("api-burst", apiDefaults.Burst, "with -api-tokens: rate-limit burst size ($"+api.EnvBurst+")")
	apiMaxBody := flag.Int64("api-max-body", apiDefaults.MaxBody, "with -api-tokens: request body cap in bytes ($"+api.EnvMaxBody+")")
	hold := flag.Bool("hold", false, "with -api-tokens: suspend the clock and tick only on /api/v1/advance commands")
	flag.Parse()

	comps, err := obs.ParseComponents(*traceComponents)
	if err != nil {
		log.Fatal(err)
	}

	if *serve != "" {
		srv := telemetry.NewServer(telemetry.DefaultTailCap)
		cfg := experiment.DefaultLiveConfig()
		cfg.Seed = *seed
		cfg.Duration = time.Duration(*minutes) * time.Minute
		cfg.Pace = *pace
		cfg.TraceOnly = comps
		cfg.CheckpointPath = *checkpoint
		cfg.CheckpointEvery = *checkpointEvery
		cfg.RestorePath = *restore
		apiCfg := api.Config{Tokens: *apiTokens, Rate: *apiRate, Burst: *apiBurst, MaxBody: *apiMaxBody}
		if apiCfg.Enabled() {
			ctrl := experiment.NewLiveController()
			h, err := apiCfg.Build(ctrl)
			if err != nil {
				log.Fatal(err)
			}
			srv.Mount("/api/", h)
			cfg.Control = ctrl
			cfg.Hold = *hold
		} else if *hold {
			log.Fatal("-hold needs -api-tokens (or $" + api.EnvTokens + "): only API advance commands can tick a held run")
		}
		addr, err := srv.Start(*serve)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		if *restore != "" {
			fmt.Fprintf(os.Stderr, "soccluster: warm-starting from %s\n", *restore)
		}
		if apiCfg.Enabled() {
			fmt.Fprintf(os.Stderr, "soccluster: control-plane API on http://%s/api/v1 (hold=%v)\n", addr, *hold)
		}
		fmt.Fprintf(os.Stderr, "soccluster: live mode on http://%s — %v simulated at %v/tick...\n", addr, cfg.Duration, cfg.Pace)
		res, err := experiment.RunLive(cfg, srv)
		if err != nil {
			log.Fatal(err)
		}
		// Let in-flight API responses (notably the shutdown ack) reach
		// their clients before the process exits.
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Drain(drainCtx)
		cancel()
		fmt.Println(res.Format())
		return
	}

	all := !*runMain && !*runPower && !*runOC
	base := experiment.DefaultClusterConfig(experiment.SysSmartOClock)
	base.Duration = time.Duration(*minutes) * time.Minute
	base.Warmup = time.Duration(*warmup) * time.Minute
	base.Seed = *seed
	base.Workers = *workers
	base.Observe = *metricsOut != "" || *traceOut != "" || *seriesOut != ""
	base.TraceOnly = comps
	if *seriesOut != "" {
		base.RecordEvery = cmp.Or(*recordEvery, time.Minute)
	}
	// The first observed sweep writes the observation files.
	observed := !base.Observe
	writeObserved := func(systems []experiment.ClusterSystem, results map[experiment.ClusterSystem]*experiment.ClusterResult) {
		if observed {
			return
		}
		if err := experiment.MergeClusterObservations(systems, results).WriteFiles(*metricsOut, *traceOut, *seriesOut, ""); err != nil {
			log.Fatal(err)
		}
		observed = true
	}

	if *runMain || all {
		fmt.Fprintf(os.Stderr, "soccluster: emulating %v across 4 systems...\n", base.Duration)
		fig12, fig13, fig14, results, err := experiment.RunFig12To14(base)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(fig12.Format())
		fmt.Println(fig13.Format())
		fmt.Println(fig14.Format())
		writeObserved(experiment.ClusterSystems(), results)
	}
	if *runPower || all {
		tbl, results, err := experiment.RunPowerConstrained(base, *limitScale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tbl.Format())
		writeObserved([]experiment.ClusterSystem{experiment.SysNaiveOClock, experiment.SysSmartOClock}, results)
	}
	if *runOC || all {
		// RunOCConstrained exposes no per-run results, so observing it
		// would only slow the sweep down.
		base.Observe = false
		tbl, err := experiment.RunOCConstrained(base, 0.6)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tbl.Format())
	}
}
