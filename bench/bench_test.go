package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"assignmentmotion/internal/typeinference"
)

// small is the scale of the tests' smoke runs.
var small = scale{cold: 30, pool: 30, warm: 300, steps: 6, cfg: 20, diamonds: 20, inputs: 2, runs: 200}

// childEnv marks a process the command's all-workloads mode started from
// this test binary: it runs the command at the tests' scale.
const childEnv = "BENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		full = small
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(childEnv, "1")
	os.Exit(m.Run())
}

// TestRunAllWorkloads runs the command as a user does, every workload in
// a fresh process: every workload's result line is relayed, the last line
// of the output is a result, and no request fails.
func TestRunAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts processes")
	}
	t.Parallel()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--seed", "3", "--seconds", "15", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	var results []result
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var r result
		if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &r) == nil {
			results = append(results, r)
		}
	}
	if len(results) != len(workloadNames) {
		t.Fatalf("%d result lines, want %d:\n%s", len(results), len(workloadNames), stdout.String())
	}
	if !strings.HasSuffix(strings.TrimSpace(stdout.String()), "}") {
		t.Errorf("the output does not end with a result line")
	}
	for i, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 || len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: result %+v", workloadNames[i], r)
		}
	}
	if code := run([]string{"--workload", "warm-mix", "--seconds", "5"}, &stdout, &stderr); code == 0 {
		t.Errorf("a run of another length than %d s was accepted", runSeconds)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 1, small)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 1, small)
		c, _ := generate(name, 2, small)
		if !sameRequests(a, b) {
			t.Errorf("%s: seed 1 generated two different request sequences", name)
		}
		if sameRequests(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same request sequence", name)
		}
	}
}

func sameRequests(a, b *workload) bool {
	for c := range a.clients {
		if len(a.clients[c]) != len(b.clients[c]) {
			return false
		}
		for k := range a.clients[c] {
			if string(a.reqs[a.clients[c][k]].body) != string(b.reqs[b.clients[c][k]].body) {
				return false
			}
		}
	}
	return true
}

// TestProgramsParse parses every distinct request of every workload, at
// full program sizes but with fewer programs and edits, in its dialect,
// as the server will.
func TestProgramsParse(t *testing.T) {
	sc := full
	sc.cold, sc.steps = 400, 150
	for _, name := range workloadNames {
		w, err := generate(name, 7, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.reqs {
			if _, err := parseSource(&w.reqs[i]); err != nil {
				t.Fatalf("%s: request %d (%s) does not parse: %v", name, i, w.reqs[i].name, err)
			}
		}
	}
}

// TestEditsChangeOneStatement: every step of every edit-stream session
// differs from the one before in exactly one statement (one line).
func TestEditsChangeOneStatement(t *testing.T) {
	w, err := editStream(3, 30, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]string{}
	kinds := 0
	for _, r := range w.reqs {
		prev, ok := last[r.name]
		last[r.name] = r.source
		if !ok {
			continue
		}
		a, b := strings.Split(prev, "\n"), strings.Split(r.source, "\n")
		if len(a) != len(b) {
			t.Fatalf("%s: an edit changed the line count", r.name)
		}
		changed := 0
		for i := range a {
			if a[i] != b[i] {
				changed++
			}
		}
		if changed != 1 {
			t.Fatalf("%s: an edit changed %d lines:\n%s\n---\n%s", r.name, changed, prev, r.source)
		}
		kinds++
	}
	if kinds != 4*30 {
		t.Errorf("saw %d edits, want %d", kinds, 4*30)
	}
}

func TestFunEditsTypeCheck(t *testing.T) {
	w, err := editStream(5, 40, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.reqs {
		if r.dialect != "fun" {
			continue
		}
		if _, _, err := typeinference.Compile(r.source); err != nil {
			t.Fatalf("%s: edited program does not type-check: %v\n%s", r.name, err, r.source)
		}
	}
}

// countMetrics are the metrics whose values must repeat exactly across
// runs of the same seed: the program's outputs and its own counters.
var countMetrics = []string{"expr_evals_ratio", "instrs_ratio", "identical_ratio", "am.iterations", "dataflow.visits"}

// TestSmokeRuns runs every workload scaled down, twice, untraced and
// traced: no request may fail and the count metrics must repeat.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var seen []map[string]metricValue
			for round := 0; round < 2; round++ {
				timed, err := runTimed(name, 11, small, 0, time.Minute, 6)
				if err != nil {
					t.Fatal(err)
				}
				traced, err := runTraced(name, 11, small, 12, filepath.Join(t.TempDir(), "spans.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				all := map[string]metricValue{}
				for _, r := range []*result{timed, traced} {
					if r.Failed != 0 || r.Attempted == 0 {
						t.Fatalf("%d of %d requests failed: %s", r.Failed, r.Attempted, r.first)
					}
					for _, d := range r.defs {
						if _, ok := r.Metrics[d.name]; !ok {
							t.Errorf("metric %s missing", d.name)
						}
					}
					for k, v := range r.Metrics {
						all[k] = v
					}
				}
				if timed.Attempted != 12 {
					t.Errorf("attempted %d requests, want 12", timed.Attempted)
				}
				seen = append(seen, all)
			}
			for _, m := range countMetrics {
				if seen[0][m] != seen[1][m] {
					t.Errorf("%s differs between runs: %v vs %v", m, seen[0][m].Value, seen[1][m].Value)
				}
			}
			if v := seen[0]["expr_evals_ratio"].Value; v <= 0 {
				t.Errorf("expr_evals_ratio is %v", v)
			}
			if v := seen[0]["identical_ratio"].Value; v != 1 {
				t.Errorf("identical_ratio is %v: a cache tier returned a program the uncached optimization does not", v)
			}
		})
	}
}

// TestQuartilesMatchPython pins median and quartiles to Python's
// statistics.median and statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values         []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q3 := quartiles(c.values)
		if m := median(c.values); math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.median) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: got %v %v %v, want %v %v %v", c.values, q1, m, q3, c.q1, c.median, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	tput, _ := findMetric("throughput_rps")
	runs := func(values ...float64) *metricRuns {
		m := &metricRuns{Values: values, Median: median(values)}
		m.Q1, m.Q3 = quartiles(values)
		m.Spread = (m.Q3 - m.Q1) / m.Median
		return m
	}
	base := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		change *metricRuns
		want   string
	}{
		{runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		{runs(99, 101, 100, 100, 100, 99, 101, 100, 98, 102), "within bound"},
		{runs(70, 71, 69, 70, 72, 68, 70, 71, 69, 70), "regressed"},
	} {
		if got := verdict(tput, base, c.change, pairUp(tput, base.Values, c.change.Values)); got != c.want {
			t.Errorf("change %v: verdict %q, want %q", c.change.Values, got, c.want)
		}
	}
	noisy := runs(60, 140, 80, 120, 100, 70, 130, 90, 110, 100)
	if got := verdict(tput, noisy, base, pairUp(tput, noisy.Values, base.Values)); got != "unresolved" {
		t.Errorf("noisy base: verdict %q, want unresolved", got)
	}
}

// TestCountVerdict: a count metric regresses when any seed reads worse,
// however small the change.
func TestCountVerdict(t *testing.T) {
	evals, _ := findMetric("expr_evals_ratio")
	base := []float64{0.95, 0.96, 0.94}
	for _, c := range []struct {
		change []float64
		paired bool
		want   string
	}{
		{[]float64{0.95, 0.96, 0.94}, true, "within bound"},
		{[]float64{0.95, 0.9601, 0.94}, true, "regressed"},
		{[]float64{0.94, 0.95, 0.93}, true, "improved"},
		{[]float64{0.95, 0.96, 0.94}, false, "unresolved"},
	} {
		if got := countVerdict(pairUp(evals, base, c.change), c.paired); got != c.want {
			t.Errorf("change %v (paired %v): verdict %q, want %q", c.change, c.paired, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json, the
// benchmark's contract, in step with the metrics and workloads the code
// reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int      `json:"run_seconds"`
		Command    []string `json:"command"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, code %d", spec.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] is %+v, code %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] is %+v, code %+v", i, m, d)
		}
	}
}
