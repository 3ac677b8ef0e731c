// Package engine is the concurrent batch front end to the pass pipeline:
// by default it runs the paper's global algorithm (initialization →
// exhaustive aht/rae assignment-motion fixpoint → final flush, exactly
// core.Optimize) over many flow graphs at once on a bounded worker pool,
// and Options.Passes swaps in any pipeline composed from the pass
// registry.
//
// The engine is built for heavy, untrusted traffic:
//
//   - a worker pool with configurable parallelism (default GOMAXPROCS);
//   - per-graph panic recovery and deadline/cancellation via
//     context.Context, so one pathological graph fails alone instead of
//     taking the batch down;
//   - a content-addressed result cache keyed by ir.Graph.Fingerprint plus
//     the pipeline spec, with single-flight deduplication, so duplicate
//     graphs are optimized once per engine lifetime — and a cached
//     "init,am,flush" result is never served to an "em,copyprop" batch;
//   - per-pass observability: every job runs through an instrumented
//     pipeline threading ONE analysis session end to end, and its
//     pass.Events (wall time, instruction deltas, solver visits/sweeps,
//     arena growth) are aggregated into the batch Report and streamed to
//     Options.Hook.
//
// Inputs are never mutated: each job optimizes a private clone and the
// optimized clone is returned in its GraphResult. That makes the engine
// directly usable as a differential-testing harness (compare the result
// against the untouched input with internal/verify).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"

	// The engine resolves Options.Passes against the pass registry, so it
	// must link every self-registering pass package — not just the ones it
	// calls directly. Without these, a binary embedding the engine but not
	// the root facade (amoptd) silently serves a partial registry: its
	// /v1/passes listing and name resolution miss copyprop, dce, em, emcp,
	// gvn, gvn-emcp, mr, and pde. The facade's own blank imports mask the
	// gap in any test binary that imports assignmentmotion.
	_ "assignmentmotion/internal/aht"
	_ "assignmentmotion/internal/copyprop"
	_ "assignmentmotion/internal/dce"
	_ "assignmentmotion/internal/emcp"
	_ "assignmentmotion/internal/gvn"
	_ "assignmentmotion/internal/lcm"
	_ "assignmentmotion/internal/mr"
	_ "assignmentmotion/internal/pde"
	_ "assignmentmotion/internal/rae"
)

// DefaultCacheSize bounds the result cache when Options.CacheSize is 0.
const DefaultCacheSize = 1024

// Options tune one Engine.
type Options struct {
	// Parallelism is the number of worker goroutines per batch.
	// <= 0 selects runtime.GOMAXPROCS(0).
	Parallelism int
	// Timeout bounds the optimization of a single graph. 0 means no
	// per-graph bound (the batch context still applies). A graph that
	// exceeds its deadline yields a context.DeadlineExceeded result;
	// its abandoned computation finishes in the background and is
	// discarded.
	Timeout time.Duration
	// CacheSize is the maximum number of cached results. 0 selects
	// DefaultCacheSize; negative disables caching entirely.
	CacheSize int
	// Passes names the pipeline every job runs, resolved against the pass
	// registry. Empty selects the global algorithm (init, am, flush —
	// core.Optimize). Unknown names fail each job with a did-you-mean
	// error.
	Passes []string
	// Hook, when non-nil, receives one pass.Event per executed pass of
	// every computed (non-cached) job, tagged with the graph's name. It is
	// called from worker goroutines, possibly concurrently; the callee
	// must synchronize.
	Hook func(graph string, ev pass.Event)
	// Recovery selects the per-pass failure handling inside every job's
	// pipeline: Fail (default — a failing pass fails the whole graph,
	// reported as a typed fault error), Rollback (restore the last-good
	// checkpoint, stop, return the partially optimized graph as a
	// degraded result), or SkipAndContinue (restore, skip the offending
	// pass, run the remainder). Degraded results are never cached.
	Recovery pass.RecoveryPolicy
	// Budget caps each job's per-pass resources (wall time, solver
	// visits, AM fixpoint rounds); violations surface as
	// fault.ErrBudgetExceeded and are subject to Recovery.
	Budget fault.Budget
	// Inject, when non-nil, may replace each pipeline pass immediately
	// before execution (pass.Pipeline.Wrap). It is a test-only seam for
	// the fault-injection harness; production callers leave it nil.
	Inject func(index int, p pass.Pass) pass.Pass
	// Backend, when non-nil, is the persistent second cache tier behind
	// the in-memory cache (see internal/cachestore): consulted on memory
	// misses, written through on clean computations. Requires the
	// in-memory cache (CacheSize >= 0); with caching disabled the backend
	// is ignored. Several engines may share one Backend — the key encodes
	// the full pipeline configuration, so they never cross-contaminate.
	Backend Backend
	// Incremental is inert: the region tier it enabled was removed, and
	// the field stays only because the benchmark module still sets it.
	Incremental bool
	// OutcomeHook, when non-nil, receives every job's final GraphResult —
	// computed, cached, or failed — exactly once, from the worker
	// goroutine that finished it. The daemon's metrics hang off this; the
	// callee must synchronize.
	OutcomeHook func(r GraphResult)
	// SolverWorkers is inert: the parallel solver it bounded was removed,
	// and the field stays only because the benchmark module still sets it.
	SolverWorkers int
}

func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// pipelineSpec is the cache-key component identifying the pipeline: the
// default global algorithm is the empty string, everything else the
// comma-joined pass list.
func (o Options) pipelineSpec() string { return strings.Join(o.Passes, ",") }

// PanicError is the recovered panic of one optimization job. It is the
// fault taxonomy's panic error: errors.Is(err, fault.ErrPassPanic)
// matches it.
type PanicError = fault.PanicError

// Outcome classifies what happened to one graph in a batch.
type Outcome string

const (
	// OutcomeOptimized: the full pipeline ran to completion (or the
	// result was served from the cache, which only ever holds completed
	// runs).
	OutcomeOptimized Outcome = "optimized"
	// OutcomeDegraded: at least one pass failed and the recovery policy
	// absorbed it (rolled back or skipped); the returned graph is valid
	// and semantics preserving but not the pipeline's full fixpoint.
	// Degraded results are never cached.
	OutcomeDegraded Outcome = "degraded"
	// OutcomeFailed: the job produced no graph; Err carries the typed
	// failure.
	OutcomeFailed Outcome = "failed"
)

// PhaseTimings records wall time spent per phase of the global algorithm.
// The Init/AM/Flush split is populated from the pipeline events of the
// passes with those names; a custom pipeline without them only fills
// Total.
type PhaseTimings struct {
	Init  time.Duration `json:"init"`
	AM    time.Duration `json:"am"`
	Flush time.Duration `json:"flush"`
	Total time.Duration `json:"total"`
}

func (t *PhaseTimings) add(u PhaseTimings) {
	t.Init += u.Init
	t.AM += u.AM
	t.Flush += u.Flush
	t.Total += u.Total
}

// record folds one pipeline event into the phase split.
func (t *PhaseTimings) record(ev pass.Event) {
	switch ev.Pass {
	case "init":
		t.Init += ev.Wall
	case "am":
		t.AM += ev.Wall
	case "flush":
		t.Flush += ev.Wall
	}
}

// GraphResult is the outcome of one graph in a batch.
type GraphResult struct {
	// Index is the graph's position in the input slice.
	Index int
	// Name is the input graph's name.
	Name string
	// Graph is the optimized clone of the input; nil when Err is set.
	Graph *ir.Graph
	// Result carries the per-phase statistics of the optimization (or of
	// the cached optimization on a cache hit). It is populated by the
	// default global pipeline; custom Options.Passes report through
	// Passes instead.
	Result core.Result
	// Passes holds one instrumented event per executed pass, in pipeline
	// order. On a cache hit they are the events of the computation that
	// populated the cache.
	Passes []pass.Event
	// Outcome classifies the result: optimized (full pipeline), degraded
	// (recovery policy rolled back or skipped a failing pass), or failed.
	Outcome Outcome
	// Failures holds the typed per-pass failures the recovery policy
	// absorbed when Outcome is degraded (each a *fault.PassError naming
	// the offending pass).
	Failures []error
	// Err is non-nil when the job failed: a typed internal/fault error
	// (*fault.PassError wrapping panic/fixpoint/budget failures),
	// context.DeadlineExceeded / context.Canceled for deadline and
	// cancellation, or a validation error for nil inputs and unknown
	// pass names.
	Err error
	// CacheHit reports that the result was served from the cache.
	CacheHit bool
	// CacheTier names the tier that served a hit: "memory" (the engine's
	// LRU, including single-flight followers) or "disk" (the persistent
	// Backend). Empty for computed results.
	CacheTier string
	// RegionsTotal, RegionsReused, and RegionsRecomputed are inert, always
	// zero: the region tier was removed, and the benchmark module still
	// reads them.
	RegionsTotal      int
	RegionsReused     int
	RegionsRecomputed int
	// Fingerprint is the input's content address ("" if fingerprinting
	// itself failed on a malformed graph).
	Fingerprint string
	// Timings is the wall time of this job's phases (≈ 0 on cache hits).
	Timings PhaseTimings
}

// PassAggregate sums one pass's work across every computed job of a
// batch — the per-pass batch statistics behind amopt -trace-passes.
type PassAggregate struct {
	// Pass is the registry name; Ref its paper anchor.
	Pass string `json:"pass"`
	Ref  string `json:"ref,omitempty"`
	// Runs is the number of jobs that executed the pass.
	Runs int `json:"runs"`
	// Changes and Iterations sum the uniform pass stats.
	Changes    int `json:"changes"`
	Iterations int `json:"iterations"`
	// Wall sums the pass's wall time (CPU-parallel across workers, so the
	// sum may exceed the batch wall time).
	Wall time.Duration `json:"wall"`
	// Dataflow sums the solver work attributed to the pass.
	Dataflow dataflow.SolveStats `json:"dataflow"`
	// Arena sums the growth of the session arenas' peak footprint during
	// the pass — 0 for passes that run entirely inside warmed storage.
	Arena pass.ArenaMarks `json:"arena"`
}

// Report aggregates one batch.
type Report struct {
	Graphs    int `json:"graphs"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	// Degraded counts the succeeded jobs whose recovery policy absorbed
	// at least one pass failure (a subset of Succeeded).
	Degraded    int           `json:"degraded"`
	CacheHits   int           `json:"cacheHits"`
	CacheMisses int           `json:"cacheMisses"`
	Parallelism int           `json:"parallelism"`
	Wall        time.Duration `json:"wall"`
	// Phase sums per-phase wall time across all jobs (CPU-parallel, so
	// the sum may exceed Wall).
	Phase PhaseTimings `json:"phase"`
	// Passes aggregates the pipeline events of every computed job, in
	// pipeline order (cache hits are excluded — their work happened in the
	// job that populated the cache).
	Passes []PassAggregate `json:"passes"`
	// AMIterations sums assignment-motion rounds across all jobs;
	// MaxAMIterations is the worst single graph.
	AMIterations    int `json:"amIterations"`
	MaxAMIterations int `json:"maxAmIterations"`
	// Results holds one entry per input graph, in input order.
	Results []GraphResult `json:"-"`
}

// Engine is a reusable batch optimizer. The zero value is not usable;
// construct with New. An Engine's cache persists across batches, so a
// long-lived engine serves repeated traffic with warm-cache latencies.
type Engine struct {
	opts  Options
	cache *cache // nil when caching is disabled
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	e := &Engine{opts: opts}
	if opts.CacheSize >= 0 {
		size := opts.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		e.cache = newCache(size)
	}
	return e
}

// CacheStats reports the engine's cumulative cache behaviour.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// OptimizeBatch runs the engine's pipeline over every graph, at most
// opts.Parallelism at a time, and returns the aggregated report. Inputs
// are not mutated. The call honours ctx: once ctx is done, unstarted jobs
// are skipped and running jobs are abandoned, all reporting ctx's error.
func (e *Engine) OptimizeBatch(ctx context.Context, graphs []*ir.Graph) Report {
	start := time.Now()
	results := make([]GraphResult, len(graphs))

	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := e.opts.parallelism()
	if workers > len(graphs) {
		workers = len(graphs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = e.optimizeJob(ctx, i, graphs[i])
			}
		}()
	}
feed:
	for i := range graphs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			for j := i; j < len(graphs); j++ {
				results[j] = GraphResult{Index: j, Outcome: OutcomeFailed, Err: ctx.Err()}
				if graphs[j] != nil {
					results[j].Name = graphs[j].Name
				}
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	rep := Report{Graphs: len(graphs), Parallelism: workers, Results: results}
	agg := map[string]int{} // pass name -> index in rep.Passes
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			rep.Failed++
			continue
		}
		rep.Succeeded++
		if r.Outcome == OutcomeDegraded {
			rep.Degraded++
		}
		if r.CacheHit {
			rep.CacheHits++
		} else {
			rep.CacheMisses++
			for _, ev := range r.Passes {
				k, ok := agg[ev.Pass]
				if !ok {
					k = len(rep.Passes)
					agg[ev.Pass] = k
					rep.Passes = append(rep.Passes, PassAggregate{Pass: ev.Pass, Ref: ev.Ref})
				}
				a := &rep.Passes[k]
				a.Runs++
				a.Changes += ev.Stats.Changes
				a.Iterations += ev.Stats.Iterations
				a.Wall += ev.Wall
				a.Dataflow.Solves += ev.Dataflow.Solves
				a.Dataflow.Visits += ev.Dataflow.Visits
				a.Dataflow.Sweeps += ev.Dataflow.Sweeps
				a.Arena.Words += ev.Arena.Words
				a.Arena.Ints += ev.Arena.Ints
				a.Arena.Vecs += ev.Arena.Vecs
			}
		}
		rep.Phase.add(r.Timings)
		it := amIterations(r)
		rep.AMIterations += it
		if it > rep.MaxAMIterations {
			rep.MaxAMIterations = it
		}
	}
	rep.Wall = time.Since(start)
	return rep
}

// amIterations extracts the assignment-motion round count of one job:
// from the typed Result on the default pipeline, from the "am" event of a
// custom one.
func amIterations(r *GraphResult) int {
	if r.Result.AM.Iterations > 0 {
		return r.Result.AM.Iterations
	}
	for _, ev := range r.Passes {
		if ev.Pass == "am" {
			return ev.Stats.Iterations
		}
	}
	return 0
}

// Optimize runs a single graph through the engine (pool of one). It is a
// convenience for callers that want caching, recovery, and timeouts
// without assembling a slice.
func (e *Engine) Optimize(ctx context.Context, g *ir.Graph) GraphResult {
	return e.optimizeJob(ctx, 0, g)
}

// OptimizeBatch is the one-shot form: a fresh Engine with opts, one batch.
func OptimizeBatch(ctx context.Context, graphs []*ir.Graph, opts Options) Report {
	return New(opts).OptimizeBatch(ctx, graphs)
}

// optimizeJob runs one graph with full isolation: fingerprinting, cache
// lookup, single-flight coordination, and the protected computation.
func (e *Engine) optimizeJob(ctx context.Context, idx int, g *ir.Graph) (r GraphResult) {
	// Registered first so it runs last: the hook observes the final r,
	// including errors filled in by the panic-recovery defer below.
	defer func() {
		if e.opts.OutcomeHook != nil {
			e.opts.OutcomeHook(r)
		}
	}()
	r = GraphResult{Index: idx, Outcome: OutcomeFailed}
	if g == nil {
		r.Err = errors.New("engine: nil graph")
		return r
	}
	r.Name = g.Name
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	defer func() {
		// Fingerprinting malformed graphs may itself panic; everything
		// heavier is already recovered in the compute goroutine.
		if rec := recover(); rec != nil {
			r.Err = &fault.PanicError{Value: rec, Stack: debug.Stack()}
			r.Graph = nil
			r.Outcome = OutcomeFailed
		}
	}()
	start := time.Now()
	defer func() { r.Timings.Total = time.Since(start) }()

	if e.cache == nil {
		c := e.compute(ctx, g)
		r.Graph, r.Result, r.Passes, r.Timings, r.Err = c.g, c.res, c.events, c.tm, c.err
		r.Failures = c.failures
		r.Outcome = c.outcome()
		return r
	}

	key := cacheKey{
		fp:       g.Fingerprint(),
		pipeline: e.opts.pipelineSpec(),
		recovery: e.opts.Recovery,
		budget:   e.opts.Budget,
	}
	r.Fingerprint = key.fp.String()
	// await waits for the leader of ent and reports whether that answered
	// r: with the stored result, or with ctx's error.
	await := func(ent *entry) bool {
		if err := ent.wait(ctx); err != nil {
			r.Err = err
			return true
		}
		if !ent.ok {
			return false
		}
		e.cache.hits.Add(1)
		out := ent.graph.Clone()
		out.Name = g.Name // fingerprints ignore names; keep the caller's
		r.Graph, r.Result, r.Passes, r.CacheHit, r.CacheTier = out, ent.result, ent.events, true, "memory"
		r.Outcome = OutcomeOptimized
		return true
	}
	ent, leader := e.cache.get(key)
	if !leader {
		if await(ent) {
			return r
		}
		// The leader failed, and failures are never stored. Its waiters
		// re-enter get once: the first one back leads a second
		// computation, whose clean result is stored, and the others wait
		// on it. If that one fails too, the rest compute for themselves,
		// so a deterministic failure costs them one more computation of
		// latency, and a transient one (a client gone, a deadline
		// passed) costs one computation instead of one per waiter.
		if ent, leader = e.cache.get(key); !leader && await(ent) {
			return r
		}
	}
	if leader {
		defer e.cache.release(ent)
		// The persistent tier answers memory misses: a daemon restarted
		// with a warm cache directory serves previously seen programs
		// without running a single pass. Only the single-flight leader
		// reads the disk, so a thundering herd on one key costs one read.
		if pg, pres, pevents, ok := e.backendGet(key); ok {
			out := pg.Clone()
			out.Name = g.Name
			e.cache.complete(ent, pg, pres, pevents)
			r.Graph, r.Result, r.Passes, r.CacheHit, r.CacheTier = out, pres, pevents, true, "disk"
			r.Outcome = OutcomeOptimized
			return r
		}
	}
	e.cache.misses.Add(1)
	c := e.compute(ctx, g)
	r.Result, r.Passes, r.Timings = c.res, c.events, c.tm
	// Never store a degraded (rolled-back / pass-skipped) result under the
	// clean content-addressed key: a later identical graph must get the
	// full optimization, not the leftovers of this job's recovery. The
	// deferred release frees the key instead.
	if leader && c.err == nil && len(c.failures) == 0 {
		e.cache.complete(ent, c.g.Clone(), c.res, c.events)
		e.backendPut(key, c.g, c.res, c.events)
	}
	r.Graph, r.Err = c.g, c.err
	r.Failures = c.failures
	r.Outcome = c.outcome()
	return r
}

// computation is what the worker goroutine sends back.
type computation struct {
	g        *ir.Graph
	res      core.Result
	events   []pass.Event
	tm       PhaseTimings
	failures []error // per-pass failures absorbed by the recovery policy
	err      error
}

func (c *computation) outcome() Outcome {
	switch {
	case c.err != nil:
		return OutcomeFailed
	case len(c.failures) > 0:
		return OutcomeDegraded
	}
	return OutcomeOptimized
}

// compute runs the engine's pipeline on a private clone of g with ONE
// analysis session threaded through every pass, in a child goroutine so
// the deadline can abandon it. The context is also threaded INTO the
// pipeline (and, through the session, into the fixpoint rounds), so a
// deadline usually stops the computation cooperatively with a typed
// fault.ErrCanceled; the select below is the backstop for a truly stuck
// pass, whose abandoned goroutine drains in the background (all passes
// terminate — the fixpoints are monotone or capped — so abandoned work is
// garbage-collected, not leaked forever).
func (e *Engine) compute(ctx context.Context, g *ir.Graph) computation {
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	ch := make(chan computation, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				ch <- computation{err: &PanicError{Value: rec, Stack: debug.Stack()}}
			}
		}()
		var c computation
		clone := g.Clone()

		// One analysis session for the whole pipeline: every pass shares
		// the pooled arena.
		s := analysis.NewSession()
		defer s.Close()

		hook := func(ev pass.Event) {
			c.events = append(c.events, ev)
			c.tm.record(ev)
			if e.opts.Hook != nil {
				e.opts.Hook(g.Name, ev)
			}
		}

		// One pipeline shape for both the default global algorithm and a
		// custom pass list, so the recovery policy, the budget, and the
		// cancellation context apply uniformly at every pass boundary.
		var pl *pass.Pipeline
		if len(e.opts.Passes) == 0 {
			pl = pass.New(core.Phases(&c.res)...)
		} else {
			var err error
			pl, err = pass.FromNames(e.opts.Passes...)
			if err != nil {
				ch <- computation{err: fmt.Errorf("engine: %w", err)}
				return
			}
		}
		pl.Hook = hook
		pl.Recovery = e.opts.Recovery
		pl.Budget = e.opts.Budget
		pl.Wrap = e.opts.Inject
		rep, err := pl.RunWith(ctx, clone, s)
		c.failures = rep.Failures
		if err != nil {
			ch <- computation{events: c.events, tm: c.tm, err: err}
			return
		}

		c.g = clone
		ch <- c
	}()
	select {
	case c := <-ch:
		return c
	case <-ctx.Done():
		return computation{err: ctx.Err()}
	}
}
