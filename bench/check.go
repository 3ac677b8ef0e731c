package main

// The output checker. It runs after the timed run, untimed, and verifies
// every response against oracles independent of the code under test: the
// tree-walking interpreter (not the bytecode executor the server runs)
// and, for the quality requests, an uncached in-process optimization.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/server"
	"assignmentmotion/internal/typeinference"
)

// checkEnvs is the number of seeded environments each optimized program
// is compared with its source on (Theorem 5.1 as trace equivalence).
const checkEnvs = 3

// checkStats is what the checker found over one run's samples.
type checkStats struct {
	failed int    // samples that were not 2xx or failed a check
	first  string // the first failure, for the report
	// quality counts the quality requests (request.quality) answered
	// correctly, and identical those whose every response is
	// byte-identical to an uncached optimization of the same source: the
	// contract of every cache tier. A correct program that breaks it is
	// not a failure; identical_ratio reports it.
	quality, identical int
	firstDivergent     string
	// Sums over the distinct quality responses: dynamic expression
	// evaluations and static instruction counts of the sources and of the
	// returned programs.
	srcEvals, optEvals   int64
	srcInstrs, optInstrs int64
}

func (c *checkStats) exprEvalsRatio() float64 { return ratio(c.optEvals, c.srcEvals) }
func (c *checkStats) instrsRatio() float64    { return ratio(c.optInstrs, c.srcInstrs) }
func (c *checkStats) identicalRatio() float64 {
	return ratio(int64(c.identical), int64(c.quality))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pairCheck is the verdict on one distinct (request, response) pair.
type pairCheck struct {
	err                  error
	divergent            bool
	srcEvals, optEvals   int64
	srcInstrs, optInstrs int64
}

type checker struct {
	uncached *engine.Engine
	mu       sync.Mutex
	proven   map[string]bool   // /v1/run source and optimized pairs already checked on checkEnvs
	cold     map[string]string // source -> its uncached optimization, printed
}

// check verifies every sample. Each distinct (request, response) pair is
// checked once, by nClients goroutines that each take the next unchecked
// pair; a failed pair fails every sample that received it.
func check(w *workload, samples []sample, b *bodies) checkStats {
	type pair struct{ req, body int32 }
	index := map[pair]int{}
	var pairs []pair
	for _, s := range samples {
		p := pair{s.req, s.body}
		if _, ok := index[p]; !ok && s.status == http.StatusOK && s.body >= 0 {
			index[p] = len(pairs)
			pairs = append(pairs, p)
		}
	}
	ck := &checker{
		uncached: engine.New(engine.Options{CacheSize: -1, Parallelism: 1, SolverWorkers: 1}),
		proven:   map[string]bool{},
		cold:     map[string]string{},
	}
	results := make([]pairCheck, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pairs); i = int(next.Add(1) - 1) {
				results[i] = ck.pair(&w.reqs[pairs[i].req], b.list[pairs[i].body])
			}
		}()
	}
	wg.Wait()

	var st checkStats
	fail := func(format string, args ...any) {
		st.failed++
		if st.first == "" {
			st.first = fmt.Sprintf(format, args...)
		}
	}
	// Report failures in request order, so the first one is deterministic.
	ordered := slices.Clone(samples)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].req < ordered[j].req })
	for _, s := range ordered {
		switch {
		case s.body < 0:
			fail("request %d: no response", s.req)
		case s.status != http.StatusOK:
			fail("request %d: status %d: %.300s", s.req, s.status, b.list[s.body])
		default:
			switch pc := results[index[pair{s.req, s.body}]]; {
			case pc.err != nil:
				fail("request %d (%s): %v", s.req, w.reqs[s.req].name, pc.err)
			case pc.divergent && st.firstDivergent == "":
				st.firstDivergent = fmt.Sprintf("request %d (%s)", s.req, w.reqs[s.req].name)
			}
		}
	}
	identical := map[int32]bool{} // per quality request: every response identical so far
	for i, p := range pairs {
		r := results[i]
		if r.err != nil || !w.reqs[p.req].quality {
			continue
		}
		same, seen := identical[p.req]
		identical[p.req] = (same || !seen) && !r.divergent
		st.srcEvals += r.srcEvals
		st.optEvals += r.optEvals
		st.srcInstrs += r.srcInstrs
		st.optInstrs += r.optInstrs
	}
	for _, same := range identical {
		st.quality++
		if same {
			st.identical++
		}
	}
	return st
}

// parseSource parses a request's program in its dialect, as the server
// does.
func parseSource(r *request) (*ir.Graph, error) {
	var g *ir.Graph
	var err error
	if r.dialect == "fun" {
		g, _, err = typeinference.Compile(r.source)
	} else {
		g, err = parse.Parse(r.source)
	}
	if err != nil {
		return nil, err
	}
	g.Name = r.name
	return g, nil
}

// parseOptimized re-parses a returned program; optimized programs contain
// generated temporaries.
func parseOptimized(text string) (*ir.Graph, error) {
	g, err := parse.ParseWith(text, parse.Options{AllowTemps: true})
	if err != nil {
		return nil, fmt.Errorf("returned program does not parse: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("returned program is invalid: %w", err)
	}
	return g, nil
}

func (ck *checker) pair(r *request, body []byte) pairCheck {
	if r.path == "/v1/run" {
		return ck.run(r, body)
	}
	return ck.optimize(r, body)
}

func (ck *checker) optimize(r *request, body []byte) pairCheck {
	var resp server.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return pairCheck{err: fmt.Errorf("undecodable response: %w", err)}
	}
	if resp.Outcome != string(engine.OutcomeOptimized) {
		return pairCheck{err: fmt.Errorf("outcome %q: %s", resp.Outcome, resp.Error)}
	}
	src, err := parseSource(r)
	if err != nil {
		return pairCheck{err: err}
	}
	opt, err := parseOptimized(resp.Program)
	if err != nil {
		return pairCheck{err: err}
	}
	pc := pairCheck{srcInstrs: int64(src.InstrCount()), optInstrs: int64(opt.InstrCount())}
	pc.srcEvals, pc.optEvals, pc.err = equivalent(src, opt)
	if pc.err == nil && r.quality {
		pc.divergent, pc.err = ck.diverges(r, src, resp.Program)
	}
	return pc
}

// diverges reports whether program, returned for r, differs from the
// uncached optimization of r's source src.
func (ck *checker) diverges(r *request, src *ir.Graph, program string) (bool, error) {
	ck.mu.Lock()
	want, ok := ck.cold[r.source]
	ck.mu.Unlock()
	if !ok {
		cold := ck.uncached.Optimize(context.Background(), src)
		if cold.Err != nil {
			return false, fmt.Errorf("uncached optimization failed: %w", cold.Err)
		}
		want = printer.String(cold.Graph)
		ck.mu.Lock()
		ck.cold[r.source] = want
		ck.mu.Unlock()
	}
	return want != program, nil
}

// equivalent runs src and opt on checkEnvs seeded environments with the
// tree-walking interpreter. It requires equal traces and, per execution,
// ExprEvals(opt) <= ExprEvals(src); it returns the summed evaluations of
// the executions that ran to completion.
func equivalent(src, opt *ir.Graph) (srcEvals, optEvals int64, err error) {
	vars := src.SourceVars()
	for _, v := range opt.SourceVars() {
		if !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	for i, env := range metrics.RandomEnvs(vars, checkEnvs, 1) {
		a := interp.Run(src, env, 0)
		b := interp.Run(opt, env, 0)
		if !interp.TraceEqual(a, b) {
			return 0, 0, fmt.Errorf("env %d: traces differ: %v vs %v", i, head(a.Trace), head(b.Trace))
		}
		if a.Truncated || b.Truncated {
			continue
		}
		if b.Counts.ExprEvals > a.Counts.ExprEvals {
			return 0, 0, fmt.Errorf("env %d: ExprEvals rose from %d to %d", i, a.Counts.ExprEvals, b.Counts.ExprEvals)
		}
		srcEvals += int64(a.Counts.ExprEvals)
		optEvals += int64(b.Counts.ExprEvals)
	}
	return srcEvals, optEvals, nil
}

func head(t []int64) []int64 { return t[:min(len(t), 8)] }

func runCounts(c interp.Counts) server.RunCounts {
	return server.RunCounts{
		Steps:           c.Steps,
		Blocks:          c.Blocks,
		ExprEvals:       c.ExprEvals,
		AssignExecs:     c.AssignExecs,
		TempAssignExecs: c.TempAssignExecs,
	}
}

func (ck *checker) run(r *request, body []byte) pairCheck {
	var resp server.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return pairCheck{err: fmt.Errorf("undecodable response: %w", err)}
	}
	if resp.Outcome != "ran" || !resp.TraceMatch {
		return pairCheck{err: fmt.Errorf("outcome %q, traceMatch %v: %s", resp.Outcome, resp.TraceMatch, resp.Error)}
	}
	src, err := parseSource(r)
	if err != nil {
		return pairCheck{err: err}
	}
	opt, err := parseOptimized(resp.Optimized)
	if err != nil {
		return pairCheck{err: err}
	}
	init := make(map[ir.Var]int64, len(r.inputs))
	for v, x := range r.inputs {
		init[ir.Var(v)] = x
	}
	before := interp.Run(src, init, runMaxSteps)
	after := interp.Run(opt, init, runMaxSteps)
	switch {
	case before.Truncated || after.Truncated:
		return pairCheck{err: fmt.Errorf("interpreter ran out of steps")}
	case !slices.Equal(before.Trace, after.Trace) || !slices.Equal(after.Trace, resp.Trace):
		return pairCheck{err: fmt.Errorf("trace %v, interpreter says %v then %v", head(resp.Trace), head(before.Trace), head(after.Trace))}
	case runCounts(before.Counts) != resp.Before || runCounts(after.Counts) != resp.After:
		return pairCheck{err: fmt.Errorf("counts %+v/%+v, interpreter says %+v/%+v", resp.Before, resp.After, before.Counts, after.Counts)}
	case resp.Delta.ExprEvals != resp.After.ExprEvals-resp.Before.ExprEvals:
		return pairCheck{err: fmt.Errorf("delta %+v does not match the counts", resp.Delta)}
	case after.Counts.ExprEvals > before.Counts.ExprEvals:
		return pairCheck{err: fmt.Errorf("ExprEvals rose from %d to %d", before.Counts.ExprEvals, after.Counts.ExprEvals)}
	}
	key := r.source + "\x00" + resp.Optimized
	ck.mu.Lock()
	proven := ck.proven[key]
	ck.proven[key] = true
	ck.mu.Unlock()
	if !proven {
		if _, _, err := equivalent(src, opt); err != nil {
			return pairCheck{err: err}
		}
	}
	pc := pairCheck{
		srcEvals:  int64(before.Counts.ExprEvals),
		optEvals:  int64(after.Counts.ExprEvals),
		srcInstrs: int64(src.InstrCount()),
		optInstrs: int64(opt.InstrCount()),
	}
	if r.quality {
		pc.divergent, pc.err = ck.diverges(r, src, resp.Optimized)
	}
	return pc
}
