// Command socsim runs the large-scale trace-driven simulation of §V-B:
// Table I (SmartOClock vs Central / NaiveOClock / NoFeedback / NoWarning
// across High/Medium/Low-power clusters) and Fig 15 (power prediction
// strategies).
//
// Usage:
//
//	socsim [-racks N] [-traindays D] [-evaldays D] [-seed S] [-table1] [-fig15] [-chaos] [-recovery] [-zoo] [-oversub] [-contention]
//	socsim -scale-racks 30,1000,7100 [-seed S]
//	socsim -export-rack FILE [-traindays D] [-evaldays D] [-seed S]
//
// With no experiment flag the paper experiments run (Table I, Fig 15,
// ablations). -chaos runs the fault-injection experiment instead: a rack
// under 25% message loss, a 1-hour gOA outage and sOA crash/restarts, with
// the runtime invariant checker asserting safety on every tick. -recovery
// runs the crash-recovery experiment: a control-plane crash mid-run,
// comparing cold restarts against warm restarts from checkpoints of
// varying staleness (time-to-first-grant, grant-availability gap, budget
// divergence from an uninterrupted oracle). -zoo runs the policy ×
// scenario stress matrix: every certified policy set crossed with every
// adversarial zoo scenario (flash crowds, correlated surges, outlier-day
// storms, mixed hardware, sensor drift), each cell watched by the
// invariant checker; -zoo-policies and -zoo-scenarios narrow the matrix
// (the unsafe "canary" set is addressable by name for negative runs).
// -oversub runs the power-oversubscription sweep: predicted-peak admission
// against severity-ordered capping across oversubscription ratios, with
// the NoBrownout and SeverityOrder invariants armed. -contention runs
// oversubscription admission and sOA overclock sessions competing for the
// same rack headroom; -oversub-ratios overrides the swept ratios for both.
//
// -scale-racks runs the streamed fleet at paper scale (the production study
// covers 7.1k dedicated racks) instead: one SmartOClock fleet per listed
// size, 6 servers per rack, 2 training days and 1 evaluated day, each
// generated and dropped rack by rack. It prints one JSON ScaleResult per
// size: throughput, memory per rack and the request, success and cap
// counts, which are equal at any worker count. -export-rack writes one
// generated rack trace over -traindays + -evaldays days as JSON.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"smartoclock/internal/experiment"
	"smartoclock/internal/invariant"
	"smartoclock/internal/obs"
	"smartoclock/internal/policy"
	"smartoclock/internal/trace"
)

// dumpViolations prints a cell's first three invariant violations, and how
// many more there were, to stderr.
func dumpViolations(cell string, vs []invariant.Violation) {
	for i, v := range vs {
		if i == 3 {
			fmt.Fprintf(os.Stderr, "socsim: %s: ... %d more violations\n", cell, len(vs)-i)
			return
		}
		fmt.Fprintf(os.Stderr, "socsim: %s: %v\n", cell, v)
	}
}

// parseComponents parses a -trace-components value, exiting on bad input.
func parseComponents(s string) []obs.Component {
	comps, err := obs.ParseComponents(s)
	if err != nil {
		log.Fatal(err)
	}
	return comps
}

// parseRackList parses a comma-separated list of rack counts, e.g.
// "30,1000,7100". An empty string yields an empty list.
func parseRackList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad rack count %q (want positive integers, comma-separated)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runScale runs the streamed scale curve and prints one JSON ScaleResult
// line per fleet size.
func runScale(list string, seed int64, workers int) {
	sizes, err := parseRackList(list)
	if err != nil {
		log.Fatalf("-scale-racks: %v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, n := range sizes {
		sc := experiment.DefaultScaleConfig(n)
		sc.Seed = seed
		sc.ServersPerRack = 6
		sc.Workers = workers
		res, err := experiment.RunFleetScale(sc)
		if err != nil {
			log.Fatalf("scale racks=%d: %v", n, err)
		}
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
	}
}

// exportRack writes one generated rack trace of the given days to path as
// JSON.
func exportRack(path string, days int, seed int64) {
	start := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	cfg := trace.DefaultRackGenConfig("export", start, time.Duration(days)*24*time.Hour)
	rack, err := trace.GenRack(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteRackJSON(f, rack); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d servers, %d days)", path, len(rack.Servers), days)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("socsim: ")

	racks := flag.Int("racks", 6, "racks per power class for Table I")
	trainDays := flag.Int("traindays", 7, "trace days used to fit templates")
	evalDays := flag.Int("evaldays", 5, "simulated days with the agents running")
	seed := flag.Int64("seed", 1, "deterministic generation seed")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent rack-simulation workers (results are identical at any count)")
	fig15Racks := flag.Int("fig15racks", 30, "racks for the Fig 15 prediction study")
	runTable1 := flag.Bool("table1", false, "run only Table I")
	runFig15 := flag.Bool("fig15", false, "run only Fig 15")
	runAblations := flag.Bool("ablations", false, "run only the design-choice ablations")
	runChaos := flag.Bool("chaos", false, "run the fault-injection experiment (gOA outage, lossy control plane, sOA crashes)")
	runRecovery := flag.Bool("recovery", false, "run the crash-recovery experiment (cold vs warm restart from checkpoints)")
	runZoo := flag.Bool("zoo", false, "run the policy × scenario stress matrix with the invariant checker armed")
	runOversub := flag.Bool("oversub", false, "run the power-oversubscription sweep (predicted-peak admission vs severity-ordered capping)")
	runContention := flag.Bool("contention", false, "run the oversubscription-vs-overclocking contention sweep on shared rack headroom")
	oversubRatios := flag.String("oversub-ratios", "", "comma-separated oversubscription ratios for -oversub/-contention (default: the built-in sweep)")
	zooPolicies := flag.String("zoo-policies", "", "comma-separated policy sets for -zoo (default: all certified sets; 'canary' selects the unsafe negative control)")
	zooScenarios := flag.String("zoo-scenarios", "", "comma-separated zoo scenarios for -zoo (default: the full catalog)")
	zooDuration := flag.Duration("zoo-duration", 0, "override the simulated duration of each -zoo cell")
	metricsOut := flag.String("metrics-out", "", "write the metrics snapshot of the Table I run (or -chaos run) here; .json selects JSON, anything else Prometheus text")
	traceOut := flag.String("trace-out", "", "write the structured event trace of the Table I run (or -chaos run) here as JSON Lines")
	seriesOut := flag.String("series-out", "", "write the recorded time series of the Table I run (or -chaos run) here; .json selects JSON, anything else CSV")
	recordEvery := flag.Duration("record-every", 0, "sampling interval (sim time) for -series-out; defaults to 1h for Table I and 30s for -chaos")
	traceComponents := flag.String("trace-components", "", "comma-separated obs components to trace (e.g. soa,rack,alert); empty traces everything")
	provOut := flag.String("prov-out", "", "write the causal decision-provenance log (-zoo matrix or Table I run) here as JSON Lines, explorable with socctl explain -log")
	scaleRacks := flag.String("scale-racks", "", "instead, run the streamed scale curve at these comma-separated fleet sizes (e.g. 30,1000,7100) and print one JSON result per size")
	exportRackPath := flag.String("export-rack", "", "instead, write one generated rack trace over -traindays + -evaldays days as JSON to this file")
	flag.Parse()
	if *exportRackPath != "" {
		exportRack(*exportRackPath, *trainDays+*evalDays, *seed)
		return
	}
	if *scaleRacks != "" {
		runScale(*scaleRacks, *seed, *workers)
		return
	}
	observe := *metricsOut != "" || *traceOut != "" || *seriesOut != "" || *provOut != ""
	comps := parseComponents(*traceComponents)

	if *runChaos {
		cfg := experiment.DefaultChaosConfig()
		cfg.Seed = *seed
		cfg.TraceOnly = comps
		if *recordEvery > 0 {
			cfg.RecordEvery = *recordEvery
		}
		fmt.Fprintf(os.Stderr, "socsim: chaos run — %d servers, %v, %.0f%% drop, %v gOA outage, %d sOA crashes...\n",
			cfg.Servers, cfg.Duration, 100*cfg.DropProb, cfg.GOAOutage, cfg.SOACrashes)
		res, err := experiment.RunChaos(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Format())
		fmt.Println(experiment.FormatAlerts(res.Alerts).Format())
		if err := res.WriteFiles(*metricsOut, *traceOut, *seriesOut, ""); err != nil {
			log.Fatal(err)
		}
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		return
	}

	if *runZoo {
		cfg := experiment.DefaultZooConfig()
		cfg.Seed = *seed
		cfg.Workers = *workers
		if *zooDuration > 0 {
			cfg.Duration = *zooDuration
		}
		for _, name := range strings.Split(*zooPolicies, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			f, err := policy.Lookup(name)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Policies = append(cfg.Policies, f)
		}
		for _, name := range strings.Split(*zooScenarios, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			sc, err := trace.ZooByName(name, cfg.Seed)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Scenarios = append(cfg.Scenarios, sc)
		}
		pols, scs := "all certified sets", "full catalog"
		if len(cfg.Policies) > 0 {
			pols = *zooPolicies
		}
		if len(cfg.Scenarios) > 0 {
			scs = *zooScenarios
		}
		fmt.Fprintf(os.Stderr, "socsim: zoo run — policies %s × scenarios %s, %v per cell (%d workers)...\n",
			pols, scs, cfg.Duration, *workers)
		res, err := experiment.RunZoo(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Format())
		if err := res.Observation().WriteFiles("", "", "", *provOut); err != nil {
			log.Fatal(err)
		}
		if res.Err != nil {
			for _, c := range res.Cells {
				dumpViolations(c.Policy+"×"+c.Scenario, c.Violations)
			}
			log.Fatal(res.Err)
		}
		return
	}

	if *runOversub || *runContention {
		cfg := experiment.DefaultOversubConfig()
		cfg.Seed = *seed
		cfg.Workers = *workers
		if *oversubRatios != "" {
			cfg.Ratios = nil
			for _, f := range strings.Split(*oversubRatios, ",") {
				r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					log.Fatalf("bad -oversub-ratios value %q: %v", f, err)
				}
				cfg.Ratios = append(cfg.Ratios, r)
			}
		}
		failed := false
		if *runOversub {
			fmt.Fprintf(os.Stderr, "socsim: oversubscription sweep — ratios %v, %d arrivals over %v (%d workers)...\n",
				cfg.Ratios, cfg.Arrivals, cfg.Duration, *workers)
			res, err := experiment.RunOversub(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res.Format())
			if res.Err != nil {
				for _, c := range res.Cells {
					dumpViolations(fmt.Sprintf("ratio %.2f", c.Ratio), c.Violations)
				}
				log.Print(res.Err)
				failed = true
			}
		}
		if *runContention {
			fmt.Fprintf(os.Stderr, "socsim: contention sweep — %d overclocking servers vs oversubscribed admission, ratios %v (%d workers)...\n",
				cfg.BaseServers, cfg.Ratios, *workers)
			res, err := experiment.RunContention(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(res.Format())
			if res.Err != nil {
				for _, c := range res.Cells {
					dumpViolations(fmt.Sprintf("ratio %.2f", c.Ratio), c.Violations)
				}
				log.Print(res.Err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	if *runRecovery {
		cfg := experiment.DefaultRecoveryConfig()
		cfg.Seed = *seed
		fmt.Fprintf(os.Stderr, "socsim: recovery run — %d servers, crash at %v for %v, checkpoint staleness %v...\n",
			cfg.Servers, cfg.CrashAt, cfg.DownFor, cfg.Staleness)
		res, err := experiment.RunRecovery(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Format())
		return
	}

	all := !*runTable1 && !*runFig15 && !*runAblations
	fleetCfg := experiment.DefaultFleetSimConfig()
	fleetCfg.RacksPerClass = *racks
	fleetCfg.TrainDays = *trainDays
	fleetCfg.EvalDays = *evalDays
	fleetCfg.Seed = *seed
	fleetCfg.Workers = *workers

	if *runTable1 || all {
		cfg := fleetCfg
		fmt.Fprintf(os.Stderr, "socsim: simulating %d racks/class, %d train + %d eval days (%d workers)...\n",
			cfg.RacksPerClass, cfg.TrainDays, cfg.EvalDays, *workers)
		var tbl *experiment.Table
		var observation *experiment.FleetObservation // nil writes nothing
		var err error
		if observe {
			cfg.TraceOnly = comps
			if *seriesOut != "" {
				cfg.RecordEvery = cmp.Or(*recordEvery, time.Hour)
			}
			tbl, _, observation, err = experiment.RunTable1Observed(cfg)
		} else {
			tbl, _, err = experiment.RunTable1(cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tbl.Format())
		if err := observation.WriteFiles(*metricsOut, *traceOut, *seriesOut, *provOut); err != nil {
			log.Fatal(err)
		}
	}
	if *runFig15 || all {
		tbl, err := experiment.Fig15(*fig15Racks, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tbl.Format())
	}
	if *runAblations || all {
		for _, run := range []func(experiment.FleetSimConfig) (*experiment.Table, error){
			experiment.RunAblationTemplates,
			experiment.RunAblationExploreStep,
			experiment.RunAblationWarnThreshold,
			experiment.RunDatacenterRebalance,
		} {
			tbl, err := run(fleetCfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(tbl.Format())
		}
	}
}
