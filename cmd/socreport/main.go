// Command socreport runs the complete reproduction sweep — every
// characterization figure, the cluster emulation, the fleet simulation,
// the ablations, the chaos experiment and the policy × scenario zoo — and
// writes one markdown report, including the oversubscription and
// contention sweeps.
//
// Usage:
//
//	socreport [-o report.md] [-fast] [-seed S]
//
// -fast shrinks every experiment for a quick end-to-end check (~30 s);
// the default scales match EXPERIMENTS.md (a few minutes).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"smartoclock/internal/causal"
	"smartoclock/internal/experiment"
)

// decisionBreakdown tabulates a provenance log's decision records by
// (component, site, verdict), sorted by key so the report is byte-stable
// across runs of the same seed.
func decisionBreakdown(log_ *causal.Log) string {
	type key struct{ component, site, verdict string }
	counts := make(map[key]int)
	for i := range log_.Records {
		r := &log_.Records[i]
		if r.Kind == causal.KindMessage {
			continue
		}
		k := key{r.Component, r.Site, r.Verdict}
		if k.verdict == "" {
			k.verdict = "-"
		}
		counts[k]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.component != b.component {
			return a.component < b.component
		}
		if a.site != b.site {
			return a.site < b.site
		}
		return a.verdict < b.verdict
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-22s %-12s %s\n", "COMPONENT", "SITE", "VERDICT", "COUNT")
	for _, k := range keys {
		fmt.Fprintf(&b, "%-10s %-22s %-12s %d\n", k.component, k.site, k.verdict, counts[k])
	}
	return b.String()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("socreport: ")

	out := flag.String("o", "", "output file (default stdout)")
	fast := flag.Bool("fast", false, "reduced scales for a quick sweep")
	seed := flag.Int64("seed", 1, "deterministic seed")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	fleetCfg := experiment.DefaultFleetSimConfig()
	fleetCfg.Seed = *seed
	clusterCfg := experiment.DefaultClusterConfig(experiment.SysSmartOClock)
	clusterCfg.Seed = *seed
	fig5Racks, fig8Racks, fig15Racks := 40, 10, 30
	if *fast {
		fleetCfg.RacksPerClass = 1
		fleetCfg.EvalDays = 1
		clusterCfg.Duration = 10 * time.Minute
		clusterCfg.Warmup = 2 * time.Minute
		fig5Racks, fig8Racks, fig15Racks = 8, 4, 6
	}

	section := func(title string) {
		fmt.Fprintf(w, "\n## %s\n\n", title)
	}
	table := func(tbl *experiment.Table, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "```\n%s```\n", tbl.Format())
	}

	// The header stamps the flags, not the wall clock, so a re-run at the
	// same flags reproduces the report byte for byte.
	fmt.Fprintf(w, "# SmartOClock reproduction report\n\ngenerated by socreport -seed %d -fast=%v\n", *seed, *fast)

	section("Characterization (§III)")
	table(experiment.Fig1(), nil)
	fig2, fig3 := experiment.Fig2And3()
	table(fig2, nil)
	table(fig3, nil)
	table(experiment.Fig4(), nil)
	table(experiment.Fig5(fig5Racks, *seed))
	fig6, overFrac, err := experiment.Fig6(*seed)
	table(fig6, err)
	fmt.Fprintf(w, "Naive overclocking exceeds the limit %.1f%% of the time.\n", 100*overFrac)
	table(experiment.Fig7(), nil)
	table(experiment.Fig8(fig8Racks, *seed))
	table(experiment.Fig9(*seed))

	section("Cluster emulation (§V-A)")
	log.Print("running the cluster emulation (4 systems)...")
	fig12, fig13, fig14, _, err := experiment.RunFig12To14(clusterCfg)
	if err != nil {
		log.Fatal(err)
	}
	table(fig12, nil)
	table(fig13, nil)
	table(fig14, nil)
	pc, _, err := experiment.RunPowerConstrained(clusterCfg, 0.80)
	table(pc, err)
	oc, err := experiment.RunOCConstrained(clusterCfg, 0.6)
	table(oc, err)

	section("Fleet simulation (§V-B)")
	log.Print("running the fleet simulation (5 systems x 3 classes)...")
	t1, _, err := experiment.RunTable1(fleetCfg)
	table(t1, err)
	table(experiment.Fig15(fig15Racks, *seed))

	section("Production services (§V-C)")
	table(experiment.Fig16(), nil)
	fig17, reduction := experiment.Fig17()
	table(fig17, nil)
	fmt.Fprintf(w, "Overclocking reduces Service C's 5-minute peaks by %.0f%%.\n", 100*reduction)
	fmt.Fprintf(w, "Overclocking lets Service A VMs serve %.0f%% additional load (paper: 25%%).\n",
		100*experiment.ServiceAExtraLoad())

	section("Ablations")
	log.Print("running the ablations...")
	table(experiment.RunAblationTemplates(fleetCfg))
	table(experiment.RunAblationExploreStep(fleetCfg))
	table(experiment.RunAblationWarnThreshold(fleetCfg))
	table(experiment.RunDatacenterRebalance(fleetCfg))

	section("Chaos and alerts (§VI)")
	log.Print("running the chaos experiment...")
	chaosCfg := experiment.DefaultChaosConfig()
	chaosCfg.Seed = *seed
	if *fast {
		chaosCfg.Duration = time.Hour
		chaosCfg.GOAOutageStart = 20 * time.Minute
		chaosCfg.GOAOutage = 20 * time.Minute
		chaosCfg.SOACrashes = 2
	}
	chaosRes, err := experiment.RunChaos(chaosCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "```\n%s```\n", chaosRes.Format())
	fmt.Fprintf(w, "```\n%s```\n", experiment.FormatAlerts(chaosRes.Alerts).Format())
	if chaosRes.Err != nil {
		log.Fatal(chaosRes.Err)
	}

	section("Oversubscription & contention")
	log.Print("running the oversubscription sweeps...")
	ovCfg := experiment.DefaultOversubConfig()
	ovCfg.Seed = *seed
	if *fast {
		ovCfg.Duration = 40 * time.Minute
		ovCfg.Arrivals = 12
		ovCfg.ArrivalEvery = 3 * time.Minute
	}
	ovRes, err := experiment.RunOversub(ovCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "```\n%s```\n", ovRes.Format())
	ctRes, err := experiment.RunContention(ovCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "```\n%s```\n", ctRes.Format())
	fmt.Fprintf(w, "Predicted-peak admission (q%.0f of the fitted day templates) bets the rack past its provisioned limit; severity-ordered capping backs the bet. The contention table shows what each extra admitted deployment costs in overclocked core-hours on the same headroom.\n",
		100*ovCfg.Quantile)
	if ovRes.Err != nil {
		log.Fatal(ovRes.Err)
	}
	if ctRes.Err != nil {
		log.Fatal(ctRes.Err)
	}

	section("Policy × scenario zoo")
	log.Print("running the policy zoo...")
	zooCfg := experiment.DefaultZooConfig()
	zooCfg.Seed = *seed
	if *fast {
		zooCfg.Duration = 30 * time.Minute
	}
	zooRes, err := experiment.RunZoo(zooCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "```\n%s```\n", zooRes.Format())
	fmt.Fprintf(w, "Every certified policy set ran every adversarial scenario with the invariant checker armed; the violation column must be all zeros.\n")
	if zooRes.Err != nil {
		log.Fatal(zooRes.Err)
	}

	section("Decisions")
	zooObs := zooRes.Observation()
	stats := zooObs.Provenance.Stats()
	fmt.Fprintf(w, "The zoo ran with decision provenance armed: every admission, cap, session stop, alert and invariant verdict above carries a \"why\" record, resolvable by span with `socctl explain -log`.\n\n")
	fmt.Fprintf(w, "%d decisions and %d control-plane messages across %d ticks; the deepest causal chain is %d records (span %s).\n\n",
		stats.Decisions, stats.Messages, stats.Ticks, stats.MaxDepth, stats.DeepSpan)
	fmt.Fprintf(w, "```\n%s```\n", decisionBreakdown(zooObs.Provenance))

	if *out != "" {
		log.Printf("wrote %s", *out)
	}
}
