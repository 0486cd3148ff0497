package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smartoclock/internal/stats"
)

// metricDef names one metric with its unit, direction and — for end-to-end
// metrics — the share of the baseline median by which it may worsen before
// a change counts as a regression. BENCHMARK.json repeats this table; a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is every metric a user of the system would see, in print order.
// Every workload reports every one of them (see README.md for what each
// means on a workload it is not the headline of). failed_share is printed
// beside them but lives in the result's attempted/failed counts: it is 0
// on a healthy run and a bound is a share of the baseline.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"racks_per_sec", "1/s", "higher", 0.25},
	{"allocs_per_rack", "count", "lower", 0.05},
	{"alloc_bytes_per_rack", "B", "lower", 0.10},
	{"peak_heap_mb", "MiB", "lower", 0.25},
	{"ticks_per_sec", "1/s", "higher", 0.25},
	{"cmd_p50_us", "us", "lower", 0.25},
	{"scrape_p50_ms", "ms", "lower", 0.25},
	{"sim_min_per_sec", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"sim_digest_stable", "bool", "higher", 0.01},
}

// effort is how much measuring one run does.
type effort struct {
	// Seconds is how long each workload's timed repetitions run in total.
	Seconds float64
	// Setups is how many times each workload is set up; setup_s is their
	// median, so one cold start does not decide it.
	Setups int
	// MinReps is the fewest timed repetitions a workload gets however
	// short the run.
	MinReps int
	// Probes is how many short control sessions supply cmd_p50_us and
	// scrape_p50_ms to a workload that has no control plane of its own.
	Probes int
}

func defaultEffort(seconds float64) effort {
	return effort{Seconds: seconds, Setups: 3, MinReps: 3, Probes: 3}
}

// workloadRun accumulates one workload's repetitions.
type workloadRun struct {
	w        *workload
	setups   []float64
	samples  map[string][]float64 // metric name → one value per repetition
	measured time.Duration
	reps     int

	attempted, failed int
	digest            string // of the first repetition (the warm-up)
	stable            bool
	errs              []string

	cmdSamples, scrapeSamples int // pooled latency sample counts
}

func newWorkloadRun(w *workload) *workloadRun {
	return &workloadRun{w: w, samples: make(map[string][]float64), stable: true}
}

func (r *workloadRun) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// check folds one repetition's verdict into the run: operation counts, and
// the rule that every repetition reproduces the first one's output.
func (r *workloadRun) check(out repOut, err error) {
	r.attempted += out.Attempted
	r.failed += out.Failed
	if err != nil {
		// A run error fails everything the repetition attempted.
		r.failed += out.Attempted - out.Failed
		if out.Attempted == 0 {
			r.attempted++
			r.failed++
		}
		r.errs = append(r.errs, err.Error())
		return
	}
	switch {
	case r.digest == "":
		r.digest = out.Digest
	case out.Digest != r.digest:
		r.stable = false
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("simulated output digest %.12s differs from first repetition's %.12s", out.Digest, r.digest))
	}
}

// setup prepares the workload and runs its untimed warm-up repetition:
// scratch directory, then everything a first repetition pays for once
// (listeners bound, heap grown, lazy tables filled).
func (r *workloadRun) setup(scratch string) {
	start := time.Now()
	if err := os.MkdirAll(filepath.Join(scratch, r.w.Name), 0o755); err != nil {
		r.errs = append(r.errs, err.Error())
	}
	out, err := r.w.rep()
	r.setups = append(r.setups, time.Since(start).Seconds())
	r.check(out, err)
}

// timedRep runs and measures one repetition.
func (r *workloadRun) timedRep() {
	var out repOut
	var err error
	cost := measure(func() { out, err = r.w.rep() })
	r.check(out, err)
	r.reps++
	r.measured += cost.Wall
	if err != nil || out.Racks == 0 {
		return
	}
	wall := cost.Wall.Seconds()
	tickWall := wall
	if out.TickWall > 0 {
		tickWall = out.TickWall.Seconds()
	}
	racks := float64(out.Racks)
	r.add("racks_per_sec", racks/wall)
	r.add("allocs_per_rack", float64(cost.Allocs)/racks)
	r.add("alloc_bytes_per_rack", float64(cost.AllocBytes)/racks)
	r.add("peak_heap_mb", float64(cost.PeakHeap)/(1<<20))
	r.add("ticks_per_sec", float64(out.Ticks)/tickWall)
	r.add("sim_min_per_sec", out.SimMinutes/wall)
	r.add("cpu_s", cost.CPU.Seconds())
	r.latencies(out)
}

// latencies files one session's client-observed latencies: the session's
// own p50s become one sample each.
func (r *workloadRun) latencies(out repOut) {
	if len(out.Cmd) > 0 {
		r.add("cmd_p50_us", stats.Median(micros(out.Cmd)))
		r.cmdSamples += len(out.Cmd)
	}
	if len(out.Scrape) > 0 {
		r.add("scrape_p50_ms", stats.Median(micros(out.Scrape))/1000)
		r.scrapeSamples += len(out.Scrape)
	}
}

// probe gives a workload with no control plane of its own its cmd_p50_us
// and scrape_p50_ms: short idle sessions of the live-control script, so the
// two names mean the same thing on every workload.
func (r *workloadRun) probe(seed int64, sz sizes, sessions int, scratch string) {
	for p := 0; p < sessions; p++ {
		out, err := runControlSession(seed, sz, sz.ProbeRounds, advanceTicks, filepath.Join(scratch, r.w.Name))
		r.attempted += out.Attempted
		r.failed += out.Failed
		if err != nil {
			r.errs = append(r.errs, "probe: "+err.Error())
			continue
		}
		r.latencies(out)
	}
}

// runWorkloads sets every workload up, then interleaves timed repetitions
// round-robin — the host drifts over minutes, and interleaving spreads
// that drift across workloads instead of charging it to whichever ran last
// — until each has measured for at least eff.Seconds.
func runWorkloads(ws []*workload, seed int64, sz sizes, eff effort, scratch string) []*workloadRun {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = newWorkloadRun(w)
		for s := 0; s < eff.Setups; s++ {
			runs[i].setup(scratch)
		}
	}
	for active := true; active; {
		active = false
		for _, r := range runs {
			if r.reps < eff.MinReps || r.measured.Seconds() < eff.Seconds {
				r.timedRep()
				active = true
			}
		}
	}
	for _, r := range runs {
		if len(r.samples["cmd_p50_us"]) == 0 {
			r.probe(seed, sz, eff.Probes, scratch)
		}
		stable := 0.0
		if r.stable {
			stable = 1
		}
		r.samples["sim_digest_stable"] = []float64{stable}
		r.samples["setup_s"] = r.setups
	}
	return runs
}

// correct reports whether every check of the run passed.
func (r *workloadRun) correct() bool {
	return r.failed == 0 && r.stable && len(r.errs) == 0 && r.attempted > 0
}
