package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (a -trace result has none; compare untraced results)", path)
	}
	return &f, nil
}

// worsening is how far b's median is worse than a's, as a share of a's,
// in the metric's own direction; negative means b is better.
func worsening(a, b metricResult) float64 {
	if a.Median == 0 {
		return 0
	}
	d := (b.Median - a.Median) / math.Abs(a.Median)
	if a.Better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every sample of x reads better than every
// sample of y.
func allBetter(x, y metricResult) bool {
	if len(x.Values) == 0 || len(y.Values) == 0 {
		return false
	}
	xs, ys := sorted(x.Values), sorted(y.Values)
	if x.Better == "higher" {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

func relSpread(m metricResult) float64 {
	if m.Median == 0 {
		return 0
	}
	return m.IQR / math.Abs(m.Median)
}

// verdict applies the rule of the choosing-metrics guide: b regresses when
// its median is worse than a's by more than the bound; but where either
// side's run-to-run spread is wider than the bound the medians cannot
// resolve a shift that small, and the pairing is unresolved — unless the
// samples do not overlap at all, which settles it either way.
func verdict(a, b metricResult) string {
	worse := worsening(a, b)
	if math.Max(relSpread(a), relSpread(b)) > a.Bound {
		switch {
		case allBetter(b, a):
			return "ok"
		case allBetter(a, b) && worse > a.Bound:
			return "regressed"
		default:
			return "unresolved"
		}
	}
	if worse > a.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and reports whether any row regressed. A workload that
// failed a correctness check in b is a regression whatever its timings.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s commit=%s seed=%d gomaxprocs=%d\nB: %s commit=%s seed=%d gomaxprocs=%d\n",
		pathA, a.Stamps.Commit, a.Stamps.Seed, a.Stamps.GoMaxProcs, pathB, b.Stamps.Commit, b.Stamps.Seed, b.Stamps.GoMaxProcs)
	fmt.Fprintf(w, "%-16s %-22s %-6s %13s %11s %13s %11s %6s %8s  %s\n",
		"workload", "metric", "unit", "A.median", "A.iqr", "B.median", "B.iqr", "bound", "worse", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			v := verdict(ma, mb)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-22s %-6s %13.6g %11.4g %13.6g %11.4g %5.0f%% %+7.1f%%  %s\n",
				name, d.Name, ma.Unit, ma.Median, ma.IQR, mb.Median, mb.IQR, 100*ma.Bound, 100*worsening(ma, mb), v)
		}
		if !wb.Correct {
			regressed = true
			fmt.Fprintf(w, "%-16s %-22s B failed a correctness check (%d failed of %d)  regressed\n", name, "failed_share", wb.Failed, wb.Attempted)
		}
	}
	return regressed, nil
}
