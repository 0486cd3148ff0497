// Command socctl is the operator CLI of the live-cluster control plane: it
// speaks the authenticated /api/v1 HTTP API a `soccluster -serve -api-tokens`
// process exposes, one subcommand per endpoint.
//
// Usage:
//
//	socctl [-addr http://127.0.0.1:9188] [-token T] [-json] <command> [args]
//
// Commands:
//
//	status                                   cluster control-state snapshot
//	deploy   -name N -server S -cores C [-util U]   register a deployment
//	drain    -name N                         drain and remove a deployment
//	profile  -server S -median W [-requested C] [-granted C] [-core-cost W]
//	budget   -server S -watts W              set a static sOA power budget
//	assign   [-step MINUTES]                 gOA budget templates -> all sOAs
//	severity -server S -class 0..3           reclassify capping severity
//	oc       -server S -vm V [-cores C] [-mhz F] [-duration SECONDS]
//	ocstop   -server S -vm V                 cancel an overclock session
//	chaos    -agent A [-up]                  take an agent down (or back up)
//	checkpoint                               force a durable checkpoint now
//	advance  [-ticks N]                      run N ticks (hold mode only)
//	shutdown                                 end the live run gracefully
//	explain  [-log FILE] [-span] ID          causal chain behind a decision span
//	explain  [-log FILE] -recent N           the N newest provenance records
//
// The address and token fall back to $SOC_API_ADDR and $SOC_API_TOKEN; an
// address without a scheme is taken as http. -json prints the raw response
// body instead of the human rendering. explain -log reads a provenance log
// written by socsim -prov-out instead of the server.
//
// Exit codes: 0 success, 1 usage error, 2 request rejected (4xx) or, for
// explain, span not found, 3 server/transport failure (5xx, unreachable),
// 4 authentication or authorization failure (401/403), 5 rate limited
// (429).
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"smartoclock/internal/api"
)

const (
	exitOK = iota
	exitUsage
	exitRejected
	exitFailure
	exitAuth
	exitRateLimited
)

// exitCodeFor maps an API call error to the documented exit code.
func exitCodeFor(err error) int {
	var re *api.RemoteError
	if errors.As(err, &re) {
		switch {
		case re.StatusCode == 401 || re.StatusCode == 403:
			return exitAuth
		case re.StatusCode == 429:
			return exitRateLimited
		case re.StatusCode >= 400 && re.StatusCode < 500:
			return exitRejected
		default:
			return exitFailure
		}
	}
	var ae *api.Error
	if errors.As(err, &ae) {
		return exitRejected
	}
	return exitFailure
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "socctl: %v\n", err)
	os.Exit(exitCodeFor(err))
}

func usage(fs *flag.FlagSet, msg string) {
	fmt.Fprintf(os.Stderr, "socctl: %s\n", msg)
	if fs != nil {
		fs.Usage()
	}
	os.Exit(exitUsage)
}

// printJSON renders v as indented JSON (the -json output path).
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func main() {
	root := flag.NewFlagSet("socctl", flag.ExitOnError)
	addr := root.String("addr", cmp.Or(os.Getenv("SOC_API_ADDR"), "http://127.0.0.1:9188"), "control-plane base URL ($SOC_API_ADDR)")
	token := root.String("token", os.Getenv("SOC_API_TOKEN"), "bearer token ($SOC_API_TOKEN)")
	asJSON := root.Bool("json", false, "print raw JSON responses")
	timeout := root.Duration("timeout", 30*time.Second, "request timeout")
	root.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: socctl [flags] <command> [args]  (see 'go doc ./cmd/socctl')")
		root.PrintDefaults()
	}
	_ = root.Parse(os.Args[1:])
	if root.NArg() < 1 {
		usage(root, "missing command")
	}
	cmd, args := root.Arg(0), root.Args()[1:]

	base := baseURL(*addr)
	client := api.NewClient(base, *token)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd {
	case "status":
		st, err := client.Status(ctx)
		if err != nil {
			fail(err)
		}
		if *asJSON {
			printJSON(st)
			return
		}
		printStatus(st)

	case "deploy":
		fs := flag.NewFlagSet("deploy", flag.ExitOnError)
		name := fs.String("name", "", "deployment name")
		server := fs.String("server", "", "target server")
		cores := fs.Int("cores", 0, "cores to allocate")
		util := fs.Float64("util", 0.5, "steady-state core utilization [0,1]")
		_ = fs.Parse(args)
		st, err := client.RegisterDeployment(ctx, api.DeploymentSpec{
			Name: *name, Server: *server, Cores: *cores, Util: *util,
		})
		if err != nil {
			fail(err)
		}
		if *asJSON {
			printJSON(st)
			return
		}
		fmt.Printf("deployed %s on %s cores %v at util %.2f\n", st.Name, st.Server, st.Cores, st.Util)

	case "drain":
		fs := flag.NewFlagSet("drain", flag.ExitOnError)
		name := fs.String("name", "", "deployment name")
		_ = fs.Parse(args)
		if err := client.DrainDeployment(ctx, *name); err != nil {
			fail(err)
		}
		ack(*asJSON, "drained %s\n", *name)

	case "profile":
		fs := flag.NewFlagSet("profile", flag.ExitOnError)
		server := fs.String("server", "", "target server")
		median := fs.Float64("median", 0, "median power template level in watts")
		requested := fs.Float64("requested", 0, "requested-cores template level")
		granted := fs.Float64("granted", 0, "granted-cores template level")
		coreCost := fs.Float64("core-cost", 0, "per-core overclock cost in watts (0 uses the host model)")
		_ = fs.Parse(args)
		err := client.SetProfile(ctx, api.ProfileSpec{
			Server: *server, MedianWatts: *median,
			RequestedCores: *requested, GrantedCores: *granted, CoreCostWatts: *coreCost,
		})
		if err != nil {
			fail(err)
		}
		ack(*asJSON, "profiled %s at %.1f W\n", *server, *median)

	case "budget":
		fs := flag.NewFlagSet("budget", flag.ExitOnError)
		server := fs.String("server", "", "target server")
		watts := fs.Float64("watts", 0, "static power budget in watts")
		_ = fs.Parse(args)
		if err := client.SetBudget(ctx, api.BudgetSpec{Server: *server, Watts: *watts}); err != nil {
			fail(err)
		}
		ack(*asJSON, "budget %s = %.1f W\n", *server, *watts)

	case "assign":
		fs := flag.NewFlagSet("assign", flag.ExitOnError)
		step := fs.Int("step", 0, "template slot width in minutes (0 = 60)")
		_ = fs.Parse(args)
		st, err := client.AssignBudgets(ctx, api.AssignSpec{StepMinutes: *step})
		if err != nil {
			fail(err)
		}
		if *asJSON {
			printJSON(st)
			return
		}
		fmt.Printf("assigned budgets to %d servers\n", st.Servers)
		for _, name := range sortedKeys(st.Budgets) {
			fmt.Printf("  %-8s %.1f W\n", name, st.Budgets[name])
		}

	case "severity":
		fs := flag.NewFlagSet("severity", flag.ExitOnError)
		server := fs.String("server", "", "target server")
		class := fs.Int("class", 0, "severity class: 0 critical ... 3 harvest")
		_ = fs.Parse(args)
		if err := client.SetSeverity(ctx, api.SeveritySpec{Server: *server, Severity: *class}); err != nil {
			fail(err)
		}
		ack(*asJSON, "severity %s = %d\n", *server, *class)

	case "oc":
		fs := flag.NewFlagSet("oc", flag.ExitOnError)
		server := fs.String("server", "", "target server")
		vm := fs.String("vm", "", "vm or deployment name")
		cores := fs.Int("cores", 0, "cores to overclock (0 = all the vm owns)")
		mhz := fs.Int("mhz", 0, "target frequency (0 = host maximum)")
		duration := fs.Int("duration", 0, "session bound in simulated seconds (0 = open-ended)")
		_ = fs.Parse(args)
		st, err := client.StartOverclock(ctx, api.OCSpec{
			Server: *server, VM: *vm, Cores: *cores, TargetMHz: *mhz, DurationSec: *duration,
		})
		if err != nil {
			fail(err)
		}
		if *asJSON {
			printJSON(st)
			return
		}
		if st.Granted {
			fmt.Printf("granted: cores %v\n", st.Cores)
		} else {
			fmt.Printf("denied: %s\n", st.Reason)
		}

	case "ocstop":
		fs := flag.NewFlagSet("ocstop", flag.ExitOnError)
		server := fs.String("server", "", "target server")
		vm := fs.String("vm", "", "vm or deployment name")
		_ = fs.Parse(args)
		if err := client.StopOverclock(ctx, api.StopSpec{Server: *server, VM: *vm}); err != nil {
			fail(err)
		}
		ack(*asJSON, "stopped %s on %s\n", *vm, *server)

	case "chaos":
		fs := flag.NewFlagSet("chaos", flag.ExitOnError)
		agent := fs.String("agent", "", `agent: "goa", "soa/<server>" or a bare server name`)
		up := fs.Bool("up", false, "bring the agent back up instead of taking it down")
		_ = fs.Parse(args)
		st, err := client.SetChaos(ctx, api.ChaosSpec{Agent: *agent, Down: !*up})
		if err != nil {
			fail(err)
		}
		if *asJSON {
			printJSON(st)
			return
		}
		state := "down"
		if !st.Down {
			state = "up"
		}
		fmt.Printf("%s is %s; down agents: %v\n", st.Agent, state, st.DownAgents)

	case "checkpoint":
		st, err := client.ForceCheckpoint(ctx)
		if err != nil {
			fail(err)
		}
		if *asJSON {
			printJSON(st)
			return
		}
		fmt.Printf("checkpoint #%d: %d bytes to %s at %s\n",
			st.Writes, st.Bytes, st.Path, st.SavedAt.Format(time.RFC3339))

	case "advance":
		fs := flag.NewFlagSet("advance", flag.ExitOnError)
		ticks := fs.Int("ticks", 1, "ticks to run")
		_ = fs.Parse(args)
		st, err := client.Advance(ctx, api.AdvanceSpec{Ticks: *ticks})
		if err != nil {
			fail(err)
		}
		if *asJSON {
			printJSON(st)
			return
		}
		fmt.Printf("advanced %d ticks to %s\n", st.Ticks, st.Now.Format(time.RFC3339))

	case "shutdown":
		if err := client.Shutdown(ctx); err != nil {
			fail(err)
		}
		ack(*asJSON, "shutdown requested\n")

	case "explain":
		runExplain(args, base, *timeout, *asJSON)

	default:
		usage(root, fmt.Sprintf("unknown command %q", cmd))
	}
}

// baseURL normalizes a control-plane address to a base URL without a
// trailing slash, taking an address without a scheme as http.
func baseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// ack prints a human acknowledgement, or the canonical ok envelope in JSON
// mode.
func ack(asJSON bool, format string, args ...any) {
	if asJSON {
		printJSON(map[string]bool{"ok": true})
		return
	}
	fmt.Printf(format, args...)
}

func printStatus(st *api.ClusterStatus) {
	hold := ""
	if st.Hold {
		hold = " [hold]"
	}
	fmt.Printf("now %s%s  ticks %d  oc %d/%d granted  violations %d\n",
		st.Now.Format(time.RFC3339), hold, st.Ticks, st.Granted, st.Requests, st.Violations)
	fmt.Printf("rack %s: %.1f / %.1f W  cap events %d  warnings %d\n",
		st.Rack.Name, st.Rack.PowerWatts, st.Rack.LimitWatts, st.Rack.CapEvents, st.Rack.Warnings)
	if len(st.ChaosDown) > 0 {
		fmt.Printf("chaos: down %v, %d messages dropped\n", st.ChaosDown, st.ChaosDropped)
	}
	if st.Checkpoint.Path != "" {
		fmt.Printf("checkpoint: %s (%d writes, last %d bytes)\n",
			st.Checkpoint.Path, st.Checkpoint.Writes, st.Checkpoint.LastBytes)
	}
	for _, s := range st.Servers {
		fmt.Printf("  %-8s sev %d/%s cap L%d  %.1f W of %.1f W budget\n",
			s.Name, s.Severity, s.SeverityName, s.CapLevel, s.PowerWatts, s.BudgetWatts)
		for _, d := range s.Deployments {
			fmt.Printf("    deploy %-12s cores %v util %.2f\n", d.Name, d.Cores, d.Util)
		}
		for _, sess := range s.Sessions {
			fmt.Printf("    oc     %-12s cores %v at %d MHz (%s)\n", sess.VM, sess.Cores, sess.MHz, sess.Priority)
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
