package main

// Metric definitions, statistics, and the result line.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef describes one metric. BENCHMARK.json at the repository root
// repeats these definitions; TestBenchmarkJSONMatchesDefinitions keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// count marks a metric of the program's output that repeats exactly
	// for a seed. -compare pairs its runs by seed and calls any pair that
	// reads worse a regression; the bound only has to cover its spread
	// across seeds.
	count bool
}

// endToEnd are the metrics a user of the service sees, measured with
// tracing off. Each bound is at least three times the largest spread
// across ten seeds measured on the reference host (README.md).
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "allocs_per_req", unit: "objects", better: "lower", bound: 0.24},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "expr_evals_ratio", unit: "ratio", better: "lower", bound: 0.035, count: true},
	{name: "instrs_ratio", unit: "ratio", better: "lower", bound: 0.035, count: true},
	{name: "identical_ratio", unit: "ratio", better: "higher", bound: 0.001, count: true},
}

// perLayer are the traced run's metrics. Times and allocations are per
// request, except the pass and dataflow metrics, which are per computed
// request (one that ran the pipeline); a layer a workload does not reach
// reads 0.
var perLayer = []metricDef{
	{name: "server.decode_ms", unit: "ms"},
	{name: "server.encode_ms", unit: "ms"},
	{name: "server.residue_ms", unit: "ms"},
	{name: "parse.ms", unit: "ms"},
	{name: "parse.allocs", unit: "objects"},
	{name: "parse.src_kb", unit: "KB"},
	{name: "ir.fingerprint_ms", unit: "ms"},
	{name: "ir.fingerprint_allocs", unit: "objects"},
	{name: "engine.self_ms", unit: "ms"},
	{name: "engine.allocs", unit: "objects"},
	{name: "engine.memory_hit_ratio", unit: "ratio", better: "higher"},
	{name: "engine.disk_hit_ratio", unit: "ratio", better: "higher"},
	{name: "engine.computed_ratio", unit: "ratio"},
	{name: "incr.region_hit_ratio", unit: "ratio", better: "higher"},
	{name: "incr.regions_reused_ratio", unit: "ratio", better: "higher"},
	{name: "incr.replay_ms", unit: "ms"},
	{name: "incr.manifest_put_kb", unit: "KB"},
	{name: "cachestore.get_ms", unit: "ms"},
	{name: "cachestore.put_ms", unit: "ms"},
	{name: "cachestore.gets", unit: "count"},
	{name: "cachestore.puts", unit: "count"},
	{name: "cachestore.put_kb", unit: "KB"},
	{name: "init.ms", unit: "ms"},
	{name: "am.ms", unit: "ms"},
	{name: "flush.ms", unit: "ms"},
	{name: "init.allocs", unit: "objects"},
	{name: "am.allocs", unit: "objects"},
	{name: "flush.allocs", unit: "objects"},
	{name: "am.iterations", unit: "count"},
	{name: "dataflow.solves", unit: "count"},
	{name: "dataflow.visits", unit: "count"},
	{name: "dataflow.sweeps", unit: "count"},
	{name: "printer.ms", unit: "ms"},
	{name: "printer.allocs", unit: "objects"},
	{name: "printer.out_kb", unit: "KB"},
	{name: "bytecode.compile_ms", unit: "ms"},
	{name: "bytecode.exec_ms", unit: "ms"},
	{name: "bytecode.steps", unit: "count"},
	{name: "bytecode.ns_per_step", unit: "ns"},
	{name: "bytecode.allocs", unit: "objects"},
	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead_pct", unit: "%"},
}

func init() {
	for i := range perLayer {
		if perLayer[i].better == "" {
			perLayer[i].better = "lower"
		}
	}
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one single-workload run: the contract's last output line.
type result struct {
	workload  string
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	defs      []metricDef
	first     string // the first failure
	check     checkStats
}

func newResult(workload string, defs []metricDef) *result {
	return &result{workload: workload, Metrics: map[string]metricValue{}, defs: defs}
}

func (r *result) set(name string, v float64) {
	d, ok := findMetric(name)
	if !ok {
		panic("bench: unknown metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
}

// write prints every metric by name with its unit, then the JSON line.
func (r *result) write(out io.Writer) error {
	r.Correct = r.Failed == 0
	for _, d := range r.defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(out, "%-12s %-26s %16.6f %s\n", r.workload, d.name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%-12s %-26s %16.6f %s (%d of %d attempted)\n", r.workload, "error_rate",
		float64(r.Failed)/float64(max(r.Attempted, 1)), "fraction", r.Failed, r.Attempted)
	if r.first != "" {
		fmt.Fprintf(out, "%-12s first failure: %s\n", r.workload, r.first)
	}
	if c := r.check; c.identical < c.quality {
		fmt.Fprintf(out, "%-12s %d of %d quality requests got a correct program that differs from the uncached optimization; first: %s\n",
			r.workload, c.quality-c.identical, c.quality, c.firstDivergent)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// median and quartiles follow Python's statistics.median and
// statistics.quantiles(values, n=4) (the "exclusive" method), the
// definitions the benchmark's spread is judged by.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		j := max(1, min(i*(m+1)/4, m-1))
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
