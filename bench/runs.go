package main

// Repeatability (-runs) and comparison (-compare) modes.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// metricRuns is one metric of one workload over repeated runs.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"` // one per run, in seed order
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3 - Q1) / Median: the run-to-run spread a bound is
	// judged against.
	Spread float64 `json:"spread"`
}

// runsFile is the output of -runs.
type runsFile struct {
	Date       string                            `json:"date"`
	GoVersion  string                            `json:"goVersion"`
	GOOS       string                            `json:"goos"`
	GOARCH     string                            `json:"goarch"`
	NumCPU     int                               `json:"numCPU"`
	GOMAXPROCS int                               `json:"gomaxprocs"`
	Seeds      []int64                           `json:"seeds"`
	Workloads  map[string]map[string]*metricRuns `json:"workloads"`
}

// repeat runs every workload runs times, each run in a fresh process
// with its own seed, alternating workloads so slow drift of the host
// spreads over all of them.
func repeat(names []string, seed int64, runs int, out string, stdout, stderr io.Writer) error {
	rf := runsFile{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads:  map[string]map[string]*metricRuns{},
	}
	for _, name := range names {
		rf.Workloads[name] = map[string]*metricRuns{}
		for _, d := range endToEnd {
			rf.Workloads[name][d.name] = &metricRuns{Unit: d.unit, Better: d.better, Bound: d.bound}
		}
	}
	for k := 0; k < runs; k++ {
		s := seed + int64(k)
		rf.Seeds = append(rf.Seeds, s)
		for _, name := range names {
			_, res, err := child(name, s, 0, stderr)
			if err != nil {
				return fmt.Errorf("run %d: %w", k, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("run %d: %s: %d of %d requests failed", k, name, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				m := rf.Workloads[name][d.name]
				m.Values = append(m.Values, res.Metrics[d.name].Value)
			}
			fmt.Fprintf(stderr, "bench: run %d/%d %s seed %d done\n", k+1, runs, name, s)
		}
	}
	fmt.Fprintf(stdout, "%-12s %-18s %-8s %14s %14s %14s %8s %6s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			m := rf.Workloads[name][d.name]
			m.Median = median(m.Values)
			m.Q1, m.Q3 = quartiles(m.Values)
			if m.Median != 0 {
				m.Spread = (m.Q3 - m.Q1) / math.Abs(m.Median)
			}
			fmt.Fprintf(stdout, "%-12s %-18s %-8s %14.6g %14.6g %14.6g %8.4f %6.3f\n",
				name, d.name, m.Unit, m.Median, m.Q1, m.Q3, m.Spread, m.Bound)
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func readRuns(path string) (*runsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the share of pairs the change won, and a
// verdict.
func compareFiles(basePath, changePath string, out io.Writer) error {
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	paired := slices.Equal(base.Seeds, change.Seeds)
	if !paired {
		fmt.Fprintf(out, "warning: the two sides ran different seeds; count metrics are unresolved\n")
	}
	fmt.Fprintf(out, "%-12s %-18s %-36s %-36s %-6s %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			b, c := base.Workloads[name][d.name], change.Workloads[name][d.name]
			if b == nil || c == nil {
				continue
			}
			p := pairUp(d, b.Values, c.Values)
			v := verdict(d, b, c, p)
			if d.count {
				v = countVerdict(p, paired)
			}
			fmt.Fprintf(out, "%-12s %-18s %-36s %-36s %-6s %s\n", name, d.name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", b.Median, b.Q1, b.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.Median, c.Q1, c.Q3),
				fmt.Sprintf("%d/%d", p.wins, p.n), v)
		}
	}
	return nil
}

// better reports whether x reads better than y for the metric.
func better(d metricDef, x, y float64) bool {
	if d.better == "higher" {
		return x > y
	}
	return x < y
}

// tally counts the paired runs (same index, so same seed) in which the
// change reads better and worse; ties count for neither side.
type tally struct{ wins, losses, n int }

func pairUp(d metricDef, base, change []float64) tally {
	p := tally{n: min(len(base), len(change))}
	for i := 0; i < p.n; i++ {
		switch {
		case better(d, change[i], base[i]):
			p.wins++
		case better(d, base[i], change[i]):
			p.losses++
		}
	}
	return p
}

// verdict applies the rules of a performance claim: a gain needs at
// least nine tenths of the pairs and a median difference beyond the
// base's own quartile spread; a regression is a median worse by more than
// the bound; a spread wider than the bound leaves the metric unresolved
// unless every change run beats every base run.
func verdict(d metricDef, b, c *metricRuns, p tally) string {
	allBetter := len(b.Values) > 0 && len(c.Values) > 0
	for _, x := range c.Values {
		for _, y := range b.Values {
			allBetter = allBetter && better(d, x, y)
		}
	}
	worse := 0.0 // how much worse the change's median reads, as a share of the base's
	if b.Median != 0 {
		worse = (c.Median - b.Median) / math.Abs(b.Median)
		if d.better == "higher" {
			worse = -worse
		}
	}
	gain := float64(p.wins) >= 0.9*float64(p.n) && p.n > 0 && worse < 0 &&
		math.Abs(c.Median-b.Median) > b.Q3-b.Q1
	switch {
	case allBetter || gain && b.Spread <= d.bound:
		return "improved"
	case b.Spread > d.bound:
		return "unresolved"
	case worse > d.bound:
		return "regressed"
	}
	return "within bound"
}

// countVerdict judges a count metric, which repeats exactly for a seed:
// any pair that reads worse is a regression, whatever the bound.
func countVerdict(p tally, paired bool) string {
	switch {
	case !paired || p.n == 0:
		return "unresolved"
	case p.losses > 0:
		return "regressed"
	case float64(p.wins) >= 0.9*float64(p.n):
		return "improved"
	}
	return "within bound"
}
