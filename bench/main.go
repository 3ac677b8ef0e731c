// Command bench is the repository benchmark. It drives an in-process
// amoptd — internal/server behind net/http/httptest, configured as
// `amoptd -cache-dir <tmpdir>` configures it with every other flag at its
// default — with a closed loop of two client goroutines over at most two
// keep-alive connections. It checks every response against oracles
// independent of the code under test and prints every metric by name with
// its unit. README.md describes the workloads, the metrics, and how to
// read the span file.
//
// Usage, from this directory (bench/run.sh does the same from the
// repository root, keeping all build state in .bench_build/):
//
//	go run . -seed 1                         every workload, each in a fresh process
//	go run . -workload cold-mix -seed 1      one workload, in this process
//	go run . -workload cold-mix -trace 1     the traced run: per-layer metrics
//	go run . -runs 10 -out base.json         ten fresh runs per workload, seeds 1..10
//	go run . -compare base.json change.json  compare two -runs outputs
//
// A workload's run ends its output with one JSON line, {"correct",
// "attempted", "failed", "metrics"}; the all-workloads mode relays each
// workload's line in turn. A run exits non-zero when any request failed
// or any check did not hold.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runSeconds is how long every timed run measures: the run_seconds of
// BENCHMARK.json. It is fixed, so two commits are always measured over
// runs of the same length.
const runSeconds = 15

// warmUp precedes every timed run's measured seconds. The first seconds
// after set-up run up to a third slower than the rest, so the requests
// sent in them are checked but not measured.
const warmUp = 2 * time.Second

// A run sets up at least minSetupRounds times, and more while the
// set-ups so far took under setupBudget (at most maxSetupRounds), so a
// cheap set-up is measured often enough to read steadily. setup_s is the
// median.
const (
	minSetupRounds = 3
	maxSetupRounds = 15
	setupBudget    = 500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload in this process (default: every workload, each in a fresh process)")
		seed     = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", runSeconds, fmt.Sprintf("how long the timed run measures; only %d is accepted", runSeconds))
		trace    = fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
		spans    = fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>.jsonl)")
		runs     = fs.Int("runs", 0, "run each workload this many times, each in a fresh process with seeds seed, seed+1, ...")
		out      = fs.String("out", "", "with -runs: also write the medians, quartiles, and every value as JSON here")
		compare  = fs.Bool("compare", false, "compare two -runs outputs: -compare base.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two -runs outputs: base.json change.json"))
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			return fail(err)
		}
		return 0
	case fs.NArg() > 0:
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	case *seconds != runSeconds:
		return fail(fmt.Errorf("-seconds must be %d, the run length every commit is measured with", runSeconds))
	case *trace != 0 && *trace != 1:
		return fail(errors.New("-trace takes 0 or 1"))
	case *workload != "" && !slices.Contains(workloadNames, *workload):
		return fail(fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames))
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	if *runs > 0 {
		if err := repeat(names, *seed, *runs, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	if *workload == "" {
		return runEach(names, *seed, *trace, stdout, stderr)
	}

	var res *result
	var err error
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = ".bench_build/spans-" + *workload + ".jsonl"
		}
		res, err = runTraced(*workload, *seed, full, tracePrefix[*workload], path)
	} else {
		res, err = runTimed(*workload, *seed, full, warmUp, runSeconds*time.Second, 0)
	}
	if err != nil {
		return fail(err)
	}
	if err := res.write(stdout); err != nil {
		return fail(err)
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// setUp generates the workload's inputs, starts a fresh service, and
// sends the set-up requests.
func setUp(name string, seed int64, sc scale) (*workload, *service, error) {
	w, err := generate(name, seed, sc)
	if err != nil {
		return nil, nil, err
	}
	svc, err := startService()
	if err != nil {
		return nil, nil, err
	}
	if err := svc.prewarm(w); err != nil {
		svc.close()
		return nil, nil, err
	}
	return w, svc, nil
}

// runTimed is one untraced run: set up several times (keeping the last),
// run the closed loop for a warm-up and then d measured (or limit
// requests per client), then check every response.
func runTimed(name string, seed int64, sc scale, warm, d time.Duration, limit int) (*result, error) {
	var (
		w      *workload
		svc    *service
		setups []float64
		total  time.Duration
	)
	for k := 0; k < minSetupRounds || total < setupBudget && k < maxSetupRounds; k++ {
		if svc != nil {
			svc.close()
		}
		start := time.Now()
		var err error
		if w, svc, err = setUp(name, seed, sc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		total += time.Since(start)
	}
	defer svc.close()

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	tr := drive(svc, w, warm, d, limit)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ck := check(w, tr.samples, tr.bodies)

	measured := tr.measured()
	ok := 0
	lats := make([]time.Duration, 0, len(measured))
	for _, s := range measured {
		lats = append(lats, s.lat)
		if s.status >= 200 && s.status < 300 {
			ok++
		}
	}
	slices.Sort(lats)
	res := newResult(name, endToEnd)
	res.Attempted = len(tr.samples)
	res.Failed = ck.failed
	res.first = ck.first
	res.check = ck
	res.set("throughput_rps", float64(ok)/tr.wall.Seconds())
	res.set("latency_p50_ms", ms(percentile(lats, 0.5)))
	res.set("latency_p99_ms", ms(percentile(lats, 0.99)))
	res.set("allocs_per_req", float64(tr.allocs)/float64(max(len(measured), 1)))
	res.set("peak_rss_mb", rss)
	res.set("setup_s", median(setups))
	res.set("expr_evals_ratio", ck.exprEvalsRatio())
	res.set("instrs_ratio", ck.instrsRatio())
	res.set("identical_ratio", ck.identicalRatio())
	return res, nil
}

// resetPeakRSS collects the set-ups' garbage, returns the freed memory to
// the operating system, and restarts Linux's count of the process's peak
// resident set size, so that peak_rss_mb covers the timed run alone and
// the timed run starts with no set-up garbage left to collect.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size since
// resetPeakRSS (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// child runs one workload in a fresh process of this binary and returns
// its standard output and its result line.
func child(name string, seed int64, trace int, stderr io.Writer) ([]byte, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", strconv.Itoa(trace))
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return out, nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return out, nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	res.workload = name
	return out, &res, runErr
}

// runEach runs every workload in its own fresh process and relays the
// output, result lines included.
func runEach(names []string, seed int64, trace int, stdout, stderr io.Writer) int {
	code := 0
	for _, name := range names {
		out, res, err := child(name, seed, trace, stderr)
		stdout.Write(out)
		if err != nil || res == nil || res.Failed > 0 {
			fmt.Fprintf(stderr, "bench: %s failed: %v\n", name, err)
			code = 1
		}
	}
	return code
}
