package main

// Batch mode: amopt pointed at several .fg files or at directories runs
// the concurrent engine (assignmentmotion.OptimizeBatch) instead of the
// single-file loop. Any registry pipeline works: the default is the full
// global algorithm, and -pass/-passes swaps in an arbitrary sequence,
// served by the same worker pool and result cache.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"assignmentmotion"
)

// batchInputs decides whether the positional arguments select batch mode
// (more than one path, or any path that is a directory) and expands
// directories into their .fg files, sorted.
func batchInputs(args []string, figure string, random int64) (bool, []string, error) {
	if figure != "" || random >= 0 {
		return false, nil, nil
	}
	hasDir := false
	for _, a := range args {
		if a == "-" {
			continue
		}
		if info, err := os.Stat(a); err == nil && info.IsDir() {
			hasDir = true
		}
	}
	if len(args) <= 1 && !hasDir {
		return false, nil, nil
	}
	var files []string
	for _, a := range args {
		if a == "-" {
			return true, nil, fmt.Errorf("stdin (\"-\") is not supported in batch mode")
		}
		info, err := os.Stat(a)
		if err != nil {
			return true, nil, err
		}
		if !info.IsDir() {
			files = append(files, a)
			continue
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			return true, nil, err
		}
		var found []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".fg") {
				found = append(found, filepath.Join(a, e.Name()))
			}
		}
		if len(found) == 0 {
			return true, nil, fmt.Errorf("%s: no .fg files", a)
		}
		sort.Strings(found)
		files = append(files, found...)
	}
	return true, files, nil
}

type batchConfig struct {
	passSpec string
	parse    func(string) (*assignmentmotion.Graph, error) // the dialect's front end (sourceParser)
	parallel int
	timeout  time.Duration
	verify   int
	stats    bool
	json     bool
	dot      bool
	run      string
	trace    bool
	recovery assignmentmotion.RecoveryPolicy
}

type batchGraphJSON struct {
	Name         string   `json:"name"`
	File         string   `json:"file"`
	Outcome      string   `json:"outcome"`
	Error        string   `json:"error,omitempty"`
	Failures     []string `json:"failures,omitempty"`
	CacheHit     bool     `json:"cacheHit"`
	CacheTier    string   `json:"cacheTier,omitempty"`
	AMIterations int      `json:"amIterations"`
	Wall         string   `json:"wall"`
	Verified     int      `json:"verifiedInputs,omitempty"`
	Program      string   `json:"program,omitempty"`
}

type batchJSON struct {
	Passes       []assignmentmotion.BatchPassAggregate `json:"passes,omitempty"`
	Graphs       int                                   `json:"graphs"`
	Succeeded    int                                   `json:"succeeded"`
	Degraded     int                                   `json:"degraded"`
	Failed       int                                   `json:"failed"`
	CacheHits    int                                   `json:"cacheHits"`
	CacheMisses  int                                   `json:"cacheMisses"`
	Parallelism  int                                   `json:"parallelism"`
	Wall         string                                `json:"wall"`
	PhaseInit    string                                `json:"phaseInit"`
	PhaseAM      string                                `json:"phaseAm"`
	PhaseFlush   string                                `json:"phaseFlush"`
	AMIterations int                                   `json:"amIterations"`
	MaxAMIters   int                                   `json:"maxAmIterations"`
	Results      []batchGraphJSON                      `json:"results"`
}

func runBatch(files []string, cfg batchConfig, out io.Writer) error {
	if cfg.dot {
		return fmt.Errorf("-dot is not supported in batch mode")
	}
	if cfg.run != "" {
		return fmt.Errorf("-run is not supported in batch mode")
	}
	// The engine's default pipeline IS the global algorithm; anything else
	// is resolved against the registry up front so an unknown name fails
	// once with its did-you-mean message instead of once per graph.
	var pipeline []string
	for _, p := range parsePasses(cfg.passSpec) {
		pipeline = append(pipeline, string(p))
	}
	if len(pipeline) == 1 && pipeline[0] == "globalg" {
		pipeline = nil
	}
	if len(pipeline) > 0 {
		if _, err := assignmentmotion.NewPipeline(parsePasses(cfg.passSpec)...); err != nil {
			return err
		}
	}

	graphs := make([]*assignmentmotion.Graph, len(files))
	for i, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		g, err := cfg.parse(string(data))
		if err != nil {
			return exitf(exitParse, "%s: %v", path, err)
		}
		graphs[i] = g
	}

	opts := assignmentmotion.BatchOptions{
		Parallelism: cfg.parallel,
		Timeout:     cfg.timeout,
		Pipeline:    assignmentmotion.BatchPipeline{Passes: pipeline, Recovery: cfg.recovery},
	}
	if cfg.trace && !cfg.json {
		// Workers report concurrently; serialize the trace lines.
		var mu sync.Mutex
		opts.Hook = func(graph string, ev assignmentmotion.PassEvent) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(out, "# %-24s %s\n", graph, formatPassEvent(ev))
		}
	}
	rep := assignmentmotion.OptimizeBatch(context.Background(), graphs, opts)

	// Optional per-graph differential verification against the originals
	// (the engine never mutates its inputs, so graphs[i] is pristine).
	verified := make([]int, len(files))
	var verr error
	if cfg.verify > 0 {
		for i, r := range rep.Results {
			if r.Err != nil {
				continue
			}
			vrep := assignmentmotion.Equivalent(graphs[i], r.Graph, cfg.verify, 1)
			if !vrep.Equivalent {
				verr = fmt.Errorf("%s: semantics changed: %s", files[i], vrep.Detail)
				break
			}
			verified[i] = vrep.Runs
		}
		if verr != nil {
			return &exitError{code: exitOptimizeFailed, err: verr}
		}
	}

	if cfg.json {
		j := batchJSON{
			Graphs:       rep.Graphs,
			Succeeded:    rep.Succeeded,
			Degraded:     rep.Degraded,
			Failed:       rep.Failed,
			CacheHits:    rep.CacheHits,
			CacheMisses:  rep.CacheMisses,
			Parallelism:  rep.Parallelism,
			Wall:         rep.Wall.String(),
			PhaseInit:    rep.Phase.Init.String(),
			PhaseAM:      rep.Phase.AM.String(),
			PhaseFlush:   rep.Phase.Flush.String(),
			AMIterations: rep.AMIterations,
			MaxAMIters:   rep.MaxAMIterations,
			Passes:       rep.Passes,
		}
		for i, r := range rep.Results {
			gj := batchGraphJSON{
				Name:         r.Name,
				File:         files[i],
				Outcome:      string(r.Outcome),
				CacheHit:     r.CacheHit,
				CacheTier:    r.CacheTier,
				AMIterations: r.Result.AM.Iterations,
				Wall:         r.Timings.Total.String(),
				Verified:     verified[i],
			}
			for _, f := range r.Failures {
				gj.Failures = append(gj.Failures, f.Error())
			}
			if r.Err != nil {
				gj.Error = r.Err.Error()
			} else {
				gj.Program = assignmentmotion.Format(r.Graph)
			}
			j.Results = append(j.Results, gj)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(j); err != nil {
			return err
		}
	} else {
		for i, r := range rep.Results {
			status := string(r.Outcome)
			if r.Err != nil {
				status = "failed: " + r.Err.Error()
			} else if r.Outcome == assignmentmotion.BatchDegraded && len(r.Failures) > 0 {
				status = fmt.Sprintf("degraded (%v)", r.Failures[0])
			}
			cache := "miss"
			if r.CacheHit {
				cache = "hit"
			}
			fmt.Fprintf(out, "# %-24s %-40s %s wall=%v am-iters=%d cache=%s\n",
				r.Name, files[i], status, r.Timings.Total.Round(time.Microsecond), r.Result.AM.Iterations, cache)
		}
		if cfg.stats {
			fmt.Fprintf(out, "# batch: %d graphs, %d ok (%d degraded), %d failed, %d cache hits, %d misses, parallelism %d\n",
				rep.Graphs, rep.Succeeded, rep.Degraded, rep.Failed, rep.CacheHits, rep.CacheMisses, rep.Parallelism)
			fmt.Fprintf(out, "# phase wall: init=%v am=%v flush=%v (sum %v across workers)\n",
				rep.Phase.Init.Round(time.Microsecond), rep.Phase.AM.Round(time.Microsecond),
				rep.Phase.Flush.Round(time.Microsecond), rep.Phase.Total.Round(time.Microsecond))
			for _, a := range rep.Passes {
				fmt.Fprintf(out, "# pass %-13s runs=%-4d changes=%-5d iters=%-4d wall=%-10v solves=%d visits=%d sweeps=%d arena+=(%dw,%di,%dv)\n",
					a.Pass, a.Runs, a.Changes, a.Iterations, a.Wall.Round(time.Microsecond),
					a.Dataflow.Solves, a.Dataflow.Visits, a.Dataflow.Sweeps,
					a.Arena.Words, a.Arena.Ints, a.Arena.Vecs)
			}
			fmt.Fprintf(out, "# am iterations: total=%d max=%d\n", rep.AMIterations, rep.MaxAMIterations)
			fmt.Fprintf(out, "# wall: %v\n", rep.Wall.Round(time.Microsecond))
		}
	}

	return batchExitError(rep.Failed, rep.Degraded, rep.Graphs, cfg.recovery)
}

// batchExitError maps a batch's worst outcome to the process exit code.
// Failure (exit 3) takes precedence over degradation (exit 4): a batch
// with both failed and degraded graphs exits 3, because degraded results
// are still valid programs while failed ones produced nothing.
func batchExitError(failed, degraded, graphs int, recovery assignmentmotion.RecoveryPolicy) error {
	if failed > 0 {
		return exitf(exitOptimizeFailed, "%d of %d graphs failed", failed, graphs)
	}
	if degraded > 0 {
		return exitf(exitDegraded, "%d of %d graphs degraded under -on-error=%s",
			degraded, graphs, recovery)
	}
	return nil
}
