package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkSpec mirrors BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is the contract later changes are gated on; the names,
// units, directions and bounds it declares must be the ones the binary
// prints.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, binary runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nbinary reports %+v", spec.EndToEnd, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, binary reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, binary reports %+v", i, got, d)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// Every workload, at the tiny scale, must run, pass its own correctness
// checks and report every end-to-end metric with a non-zero value.
func TestTinyWorkloads(t *testing.T) {
	scratch := t.TempDir()
	sz := scales["tiny"]
	all := buildWorkloads(1, sz, scratch)
	var ws []*workload
	for _, name := range workloadNames {
		ws = append(ws, all[name])
	}
	runs := runWorkloads(ws, 1, sz, effort{Seconds: 0, Setups: 1, MinReps: 1, Probes: 1}, scratch)
	for _, r := range runs {
		res := r.result()
		if !res.Correct {
			t.Errorf("%s: not correct: %d failed of %d, errors %v", r.w.Name, res.Failed, res.Attempted, res.Errors)
		}
		if res.Reps != 1 || res.Digest == "" {
			t.Errorf("%s: reps=%d digest=%q", r.w.Name, res.Reps, res.Digest)
		}
		for _, d := range endToEnd {
			m := res.Metrics[d.Name]
			if m.N == 0 || m.Median <= 0 {
				t.Errorf("%s: %s has n=%d median=%v", r.w.Name, d.Name, m.N, m.Median)
			}
		}
	}
}

// The traced pass must fill the whole ledger and leave a well-formed span
// log: every span named, closed, and parented inside its own trace.
func TestTinyLedger(t *testing.T) {
	l := runLedger(1, scales["tiny"], t.TempDir())
	if !l.correct() {
		t.Errorf("ledger not correct: %d failed of %d, errors %v", l.failed, l.attempted, l.errs)
	}
	for _, d := range perLayer {
		if _, ok := l.metrics[d.Name]; !ok {
			t.Errorf("ledger is missing %s", d.Name)
		}
	}
	if len(l.metrics) != len(perLayer) {
		t.Errorf("ledger has %d metrics, want %d", len(l.metrics), len(perLayer))
	}
	if len(l.spans.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range l.spans.spans {
		if s.Name == "" || s.End < s.Start || s.ID == 0 {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent != 0 {
			p := l.spans.spans[s.Parent-1]
			if p.Trace != s.Trace || p.Start > s.Start || p.End < s.End {
				t.Fatalf("span %+v does not nest in parent %+v", s, p)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := l.spans.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v, %v", fi, err)
	}
}

func TestVerdict(t *testing.T) {
	mk := func(better string, bound float64, vals ...float64) metricResult {
		return metricResult{Better: better, Bound: bound, summary: summarize(vals), Values: vals}
	}
	for _, c := range []struct {
		name string
		a, b metricResult
		want string
	}{
		{"same", mk("lower", 0.1, 100, 101, 102, 103), mk("lower", 0.1, 100, 101, 102, 103), "ok"},
		{"worse within bound", mk("lower", 0.1, 100, 101, 102, 103), mk("lower", 0.1, 105, 106, 107, 108), "ok"},
		{"worse beyond bound", mk("lower", 0.1, 100, 101, 102, 103), mk("lower", 0.1, 120, 121, 122, 123), "regressed"},
		{"higher is better, dropped", mk("higher", 0.1, 100, 101, 102, 103), mk("higher", 0.1, 80, 81, 82, 83), "regressed"},
		{"higher is better, rose", mk("higher", 0.1, 100, 101, 102, 103), mk("higher", 0.1, 120, 121, 122, 123), "ok"},
		{"spread wider than bound", mk("lower", 0.1, 80, 100, 120, 140), mk("lower", 0.1, 90, 110, 130, 150), "unresolved"},
		{"wide spread but every run better", mk("lower", 0.1, 80, 100, 120, 140), mk("lower", 0.1, 40, 50, 60, 70), "ok"},
		{"wide spread and every run worse", mk("lower", 0.1, 80, 100, 120, 140), mk("lower", 0.1, 200, 250, 300, 350), "regressed"},
	} {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "table1", "--seed", "3", "--seconds", "12", "--trace", "1"}, []string{"--workload", "table1", "--seed", "3", "--seconds", "12", "--trace=1"}},
		{[]string{"--trace", "0", "--seed", "1"}, []string{"--trace=0", "--seed", "1"}},
		{[]string{"-seed", "1", "-trace"}, []string{"-seed", "1", "-trace"}},
		{[]string{"-trace", "-seed", "1"}, []string{"-trace", "-seed", "1"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
