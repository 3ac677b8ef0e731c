package server

// POST /v1/run — the execution service. One program comes in (any
// dialect, including the typed "fun" front-end), gets optimized through
// the same engine path as /v1/optimize, and then BOTH the source graph
// and the optimized graph are executed on the caller's inputs by the
// compiled executor (internal/bytecode). The response carries the
// out-trace plus before/after cost counters, so a caller observes the
// paper's cost theorems directly: identical traces, ExprEvals(after) <=
// ExprEvals(before).
//
// Execution results are never cached: only the optimization step behind
// the run consults the engine's result cache (which is keyed on the
// graph alone and stays correct for any inputs). Trapped and truncated
// executions answer 422 with a typed errorKind and still carry the
// partial trace and counters produced so far.

import (
	"fmt"
	"net/http"
	"slices"

	"assignmentmotion/internal/bytecode"
	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
)

// defaultMaxRunSteps is the server-side ceiling on one execution's step
// budget when Config.MaxRunSteps is unset. Requests may ask for less,
// never for more.
const defaultMaxRunSteps = 1_000_000

// RunRequest is the body of POST /v1/run. Pipeline selection (Passes,
// OnError, Budget) and DeadlineMs match /v1/optimize: the deadline bounds
// the request from its arrival, queue wait included (a run never
// forwards). The rest configures the two executions.
type RunRequest struct {
	Name    string `json:"name,omitempty"`
	Program string `json:"program"`
	// Dialect selects the parser: "fg" (default), "nested", or "fun" (the
	// typed front-end with functions); "prog" is another spelling of
	// "fun".
	Dialect    string      `json:"dialect,omitempty"`
	Passes     []string    `json:"passes,omitempty"`
	OnError    string      `json:"onError,omitempty"`
	Budget     *BudgetSpec `json:"budget,omitempty"`
	DeadlineMs int64       `json:"deadlineMs,omitempty"`
	// Inputs binds source variables for both executions; unbound
	// variables read as 0.
	Inputs map[string]int64 `json:"inputs,omitempty"`
	// MaxSteps bounds each execution; <= 0 selects the interpreter
	// default, and the server clamps to Config.MaxRunSteps either way.
	MaxSteps int `json:"maxSteps,omitempty"`
	// TrapDivZero makes division/remainder by zero abort the execution
	// (422 errorKind "trapped") instead of yielding 0.
	TrapDivZero bool `json:"trapDivZero,omitempty"`
}

// RunCounts is the JSON form of interp.Counts.
type RunCounts struct {
	Steps           int `json:"steps"`
	Blocks          int `json:"blocks"`
	ExprEvals       int `json:"exprEvals"`
	AssignExecs     int `json:"assignExecs"`
	TempAssignExecs int `json:"tempAssignExecs"`
}

func runCounts(c interp.Counts) RunCounts {
	return RunCounts{
		Steps:           c.Steps,
		Blocks:          c.Blocks,
		ExprEvals:       c.ExprEvals,
		AssignExecs:     c.AssignExecs,
		TempAssignExecs: c.TempAssignExecs,
	}
}

// RunDeltas is after minus before for the paper's three cost measures
// (Theorems 5.2–5.4): negative numbers mean the optimizer saved work on
// this input.
type RunDeltas struct {
	ExprEvals       int `json:"exprEvals"`
	AssignExecs     int `json:"assignExecs"`
	TempAssignExecs int `json:"tempAssignExecs"`
}

// RunResponse is the body of a POST /v1/run answer.
type RunResponse struct {
	Name string `json:"name,omitempty"`
	// Outcome is "ran", "trapped", or "truncated" (of the optimized
	// execution when the two disagree on flags, which admissible motion
	// never causes).
	Outcome string `json:"outcome"`
	// Trace is the out() value sequence of the optimized execution; the
	// source execution produced the identical sequence whenever
	// TraceMatch is true.
	Trace []int64 `json:"trace"`
	// Env is the final environment of the optimized execution, restricted
	// to non-temporary variables.
	Env        map[string]int64 `json:"env,omitempty"`
	Before     RunCounts        `json:"before"`
	After      RunCounts        `json:"after"`
	Delta      RunDeltas        `json:"delta"`
	TraceMatch bool             `json:"traceMatch"`
	MaxSteps   int              `json:"maxSteps"`
	// Optimized is the optimized program text (fg encoding).
	Optimized   string `json:"optimized,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// CacheHit reports whether the optimization step (never the
	// execution) was served from the result cache.
	CacheHit  bool   `json:"cacheHit"`
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"errorKind,omitempty"`
}

// runMaxSteps clamps a request's step budget to the server's ceiling.
func (s *Server) runMaxSteps(req int) int {
	cap := s.cfg.MaxRunSteps
	if cap <= 0 {
		cap = defaultMaxRunSteps
	}
	steps := req
	if steps <= 0 {
		steps = interp.DefaultMaxSteps
	}
	if steps > cap {
		steps = cap
	}
	return steps
}

func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, req *RunRequest) string {
	one := OptimizeRequest{Name: req.Name, Program: req.Program, Dialect: req.Dialect, Passes: req.Passes, OnError: req.OnError, Budget: req.Budget, DeadlineMs: req.DeadlineMs}
	return s.serveOne(w, r, &one, false, func(g *ir.Graph, res engine.GraphResult) string {
		if res.Err != nil {
			s.refuse(w, res.Err)
			return string(res.Outcome)
		}
		return s.run(w, req, g, res)
	})
}

// run executes the source graph g and the optimized graph of res on the
// request's inputs, still inside the request's worker slot, and answers
// the trace with the before/after counters.
func (s *Server) run(w http.ResponseWriter, req *RunRequest, g *ir.Graph, res engine.GraphResult) string {
	init := make(map[ir.Var]int64, len(req.Inputs))
	for name, v := range req.Inputs {
		init[ir.Var(name)] = v
	}
	maxSteps := s.runMaxSteps(req.MaxSteps)
	opts := interp.Options{TrapOnDivZero: req.TrapDivZero}

	before, err := bytecode.Execute(g, init, maxSteps, opts)
	var after interp.Result
	if err == nil {
		after, err = bytecode.Execute(res.Graph, init, maxSteps, opts)
	}
	if err != nil {
		return s.refuse(w, &refusal{http.StatusInternalServerError, "internal-error", err.Error()})
	}

	resp := RunResponse{
		Name:        g.Name,
		Outcome:     "ran",
		Trace:       after.Trace,
		Env:         visibleEnv(after.Env),
		Before:      runCounts(before.Counts),
		After:       runCounts(after.Counts),
		MaxSteps:    maxSteps,
		Optimized:   printer.String(res.Graph),
		Fingerprint: res.Fingerprint,
		CacheHit:    res.CacheHit,
	}
	resp.Delta = RunDeltas{
		ExprEvals:       resp.After.ExprEvals - resp.Before.ExprEvals,
		AssignExecs:     resp.After.AssignExecs - resp.Before.AssignExecs,
		TempAssignExecs: resp.After.TempAssignExecs - resp.Before.TempAssignExecs,
	}
	resp.TraceMatch = slices.Equal(before.Trace, after.Trace)
	if resp.Trace == nil {
		resp.Trace = []int64{}
	}

	status := http.StatusOK
	switch {
	case before.Trapped || after.Trapped:
		status, resp.Outcome, resp.Error = http.StatusUnprocessableEntity, "trapped", "execution trapped on division or remainder by zero"
	case before.Truncated || after.Truncated:
		status, resp.Outcome, resp.Error = http.StatusUnprocessableEntity, "truncated", fmt.Sprintf("execution exceeded the %d-step budget", maxSteps)
	case !resp.TraceMatch:
		// Admissible motion preserves traces; a mismatch is an optimizer
		// bug and must never masquerade as a successful run.
		status, resp.Outcome, resp.Error = http.StatusInternalServerError, "trace-mismatch", "optimized program produced a different trace than the source program"
	}
	if status != http.StatusOK {
		resp.ErrorKind = resp.Outcome
	}
	writeJSON(w, status, resp)
	return resp.Outcome
}

// visibleEnv strips compiler temporaries from a final environment and
// re-keys it for JSON.
func visibleEnv(env map[ir.Var]int64) map[string]int64 {
	out := make(map[string]int64, len(env))
	for v, x := range env {
		if ir.IsTempName(v) {
			continue
		}
		out[string(v)] = x
	}
	return out
}
