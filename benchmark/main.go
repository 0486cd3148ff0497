// Command benchmark is the repository's one benchmark: six workloads run
// through the public entry points of the fleet simulation, the live control
// plane and the cluster emulation, eleven end-to-end metrics per workload,
// and a per-layer ledger measured by timing calls into each package's
// exported functions from outside. See README.md for the tables.
//
// Usage:
//
//	go run ./benchmark -seed 1                     untraced pass, all workloads
//	go run ./benchmark -seed 1 -trace              traced pass: the per-layer ledger
//	go run ./benchmark -compare A.json B.json      regression check of two result files
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                               one workload, result as the last stdout line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// scratchDir holds everything the benchmark writes (checkpoints, span
// files by default): inside the directory it runs from, never /tmp.
const scratchDir = ".bench_build/tmp"

// stamps are the honest-parallelism stamps every result carries, matching
// cmd/socbench's policy: what the host could actually run in parallel, and
// exactly which code and inputs produced the numbers.
type stamps struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Sizes      sizes   `json:"sizes"`
}

// commit names the code under test: the build's VCS stamp when there is
// one (`go build`), else what git says about the working directory (`go
// run` does not stamp), else "unknown" (a checkout that is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// metricResult is one (workload, metric) cell of a result file. Values are
// the per-repetition samples the summary was computed from, kept so
// -compare can tell "every run better" from "medians better".
type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
	summary
	Values []float64 `json:"values,omitempty"`
	Note   string    `json:"note,omitempty"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Why string `json:"why"`
	// ClientThreads is the number of load-generating client goroutines
	// (each on one keep-alive connection); 0 means the workload runs on
	// the benchmark's own goroutine.
	ClientThreads int     `json:"client_threads"`
	Workers       int     `json:"workers"`
	Reps          int     `json:"reps"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	FailedShare   float64 `json:"failed_share"`
	Correct       bool    `json:"correct"`
	Digest        string  `json:"digest"`
	CmdSamples    int     `json:"cmd_samples"`
	ScrapeSamples int     `json:"scrape_samples"`

	Metrics map[string]metricResult `json:"metrics"`
	Errors  []string                `json:"errors,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Stamps    stamps                     `json:"stamps"`
	Workloads map[string]*workloadResult `json:"workloads,omitempty"`
	Ledger    map[string]metricResult    `json:"ledger,omitempty"`
}

func (r *workloadRun) result() *workloadResult {
	res := &workloadResult{
		Why: r.w.Why, ClientThreads: r.w.Clients, Workers: 1,
		Reps: r.reps, Attempted: r.attempted, Failed: r.failed,
		Correct: r.correct(), Digest: r.digest,
		CmdSamples: r.cmdSamples, ScrapeSamples: r.scrapeSamples,
		Metrics: make(map[string]metricResult, len(endToEnd)),
		Errors:  r.errs,
	}
	if r.attempted > 0 {
		res.FailedShare = float64(r.failed) / float64(r.attempted)
	}
	for _, d := range endToEnd {
		vals := r.samples[d.Name]
		res.Metrics[d.Name] = metricResult{Unit: d.Unit, Better: d.Better, Bound: d.Bound, summary: summarize(vals), Values: vals}
	}
	return res
}

// driverLine is the last line of standard output in single-workload mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(correct bool, attempted, failed int, metrics map[string]metricResult) {
	line := driverLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]driverValue, len(metrics))}
	for name, m := range metrics {
		line.Metrics[name] = driverValue{Value: m.Median, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// normalizeArgs lets -trace be both the bare switch of the documented
// command and the "--trace 0|1" pair the driver passes: a 0/1 right after
// it is folded into -trace=0/1 before the flag package sees it.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 15, "how long each workload measures (timed repetitions, set-up excluded)")
	scale := fs.String("scale", "std", "workload sizes: std, or tiny for a smoke run")
	only := fs.String("workload", "", "run one workload and print its result as one JSON line; empty runs all six")
	traced := fs.Bool("trace", false, "run the traced pass (per-layer ledger) instead of the untraced end-to-end pass")
	traceOut := fs.String("trace-out", filepath.Join(scratchDir, "spans.jsonl"), "with -trace: where the span file goes")
	out := fs.String("out", "", "write the full result (stamps, samples, summaries) to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; exits 1 on a regression")
	if err := fs.Parse(normalizeArgs(os.Args[1:])); err != nil {
		fatal(err)
	}

	if *compare {
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files, got %d", fs.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	sz, ok := scales[*scale]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q (want std or tiny)", *scale))
	}
	names := workloadNames
	if *only != "" {
		names = []string{*only}
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatal(err)
	}
	all := buildWorkloads(*seed, sz, scratchDir)
	var ws []*workload
	for _, n := range names {
		w, ok := all[n]
		if !ok {
			fatal(fmt.Errorf("unknown -workload %q (want one of %s)", n, strings.Join(workloadNames, ", ")))
		}
		ws = append(ws, w)
	}

	file := resultFile{Stamps: stamps{
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
		Seed: *seed, Seconds: *seconds, Scale: *scale, Sizes: sz,
	}}
	fmt.Printf("benchmark: seed=%d scale=%s seconds=%g commit=%s %s gomaxprocs=%d nproc=%d\n",
		*seed, *scale, *seconds, file.Stamps.Commit, file.Stamps.GoVersion, file.Stamps.GoMaxProcs, file.Stamps.NProc)

	// What single-workload mode prints as its last line.
	var line struct {
		correct           bool
		attempted, failed int
		metrics           map[string]metricResult
	}
	if *traced {
		led := runLedger(*seed, sz, scratchDir)
		file.Ledger = led.metrics
		line.correct, line.attempted, line.failed, line.metrics = led.correct(), led.attempted, led.failed, led.metrics
		printLedger(os.Stdout, led)
		if err := led.spans.writeJSONL(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %d written to %s\n", len(led.spans.spans), *traceOut)
	} else {
		runs := runWorkloads(ws, *seed, sz, defaultEffort(*seconds), scratchDir)
		file.Workloads = make(map[string]*workloadResult, len(runs))
		line.correct = true
		for _, r := range runs {
			res := r.result()
			file.Workloads[r.w.Name] = res
			line.correct = line.correct && res.Correct
			line.attempted, line.failed, line.metrics = res.Attempted, res.Failed, res.Metrics
		}
		printWorkloads(os.Stdout, names, file.Workloads)
	}

	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !line.correct {
		fmt.Fprintln(os.Stderr, "benchmark: a correctness check failed (see the ERROR lines above)")
	}
	if *only != "" {
		// The driver reads the verdict from the line, not the exit code.
		printDriverLine(line.correct, line.attempted, line.failed, line.metrics)
	} else if !line.correct {
		os.Exit(1)
	}
}

// printWorkloads prints every metric by name with its unit, median, min,
// inter-quartile range and sample count.
func printWorkloads(w io.Writer, names []string, results map[string]*workloadResult) {
	fmt.Fprintf(w, "%-16s %-22s %-6s %14s %14s %12s %4s\n", "workload", "metric", "unit", "median", "min", "iqr", "n")
	for _, name := range names {
		res := results[name]
		for _, d := range endToEnd {
			m := res.Metrics[d.Name]
			fmt.Fprintf(w, "%-16s %-22s %-6s %14.6g %14.6g %12.4g %4d\n", name, d.Name, m.Unit, m.Median, m.Min, m.IQR, m.N)
		}
		fmt.Fprintf(w, "%-16s %-22s %-6s %14.6g %14s %12s %4d  (%d failed of %d attempted)\n",
			name, "failed_share", "share", res.FailedShare, "", "", res.Reps, res.Failed, res.Attempted)
		fmt.Fprintf(w, "%-16s digest=%s reps=%d workers=%d client_threads=%d cmd_samples=%d scrape_samples=%d\n",
			name, res.Digest, res.Reps, res.Workers, res.ClientThreads, res.CmdSamples, res.ScrapeSamples)
		for _, e := range res.Errors {
			fmt.Fprintf(w, "%-16s ERROR %s\n", name, e)
		}
	}
}
