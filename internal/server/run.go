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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"assignmentmotion/internal/bytecode"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
)

// defaultMaxRunSteps is the server-side ceiling on one execution's step
// budget when Config.MaxRunSteps is unset. Requests may ask for less,
// never for more.
const defaultMaxRunSteps = 1_000_000

// RunRequest is the body of POST /v1/run. Pipeline selection (Passes,
// OnError, Budget, DeadlineMs) matches /v1/optimize; the rest configures
// the two executions.
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

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	outcome := "bad-request"
	defer func() { s.met.request("run", outcome, time.Since(start)) }()

	if s.isDraining() {
		outcome = "draining"
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining", ErrorKind: "draining"})
		return
	}
	var req RunRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error(), ErrorKind: "bad-request"})
		return
	}
	if strings.TrimSpace(req.Program) == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty program", ErrorKind: "bad-request"})
		return
	}
	cfg, err := requestConfig(req.Passes, req.OnError, req.Budget)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), ErrorKind: "bad-request"})
		return
	}
	if err := checkName(req.Name); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), ErrorKind: "bad-request"})
		return
	}
	g, err := parseProgram(req.Dialect, req.Name, req.Program)
	if err != nil {
		outcome = "parse-error"
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), ErrorKind: "parse-error"})
		return
	}

	if err := s.adm.tryAcquire(r.Context()); err != nil {
		if errors.Is(err, errOverloaded) {
			outcome = "shed"
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", s.retryAfter())
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: errOverloaded.Error(), ErrorKind: "overloaded"})
			return
		}
		outcome = "canceled"
		writeJSON(w, fault.HTTPStatus(err), errorBody{Error: err.Error(), ErrorKind: fault.Name(err)})
		return
	}
	defer s.adm.release()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMs))
	defer cancel()
	res := s.engineFor(cfg).Optimize(ctx, g)
	if res.Err != nil {
		outcome = string(res.Outcome)
		writeJSON(w, fault.HTTPStatus(res.Err), errorBody{Error: res.Err.Error(), ErrorKind: fault.Name(res.Err)})
		return
	}

	init := make(map[ir.Var]int64, len(req.Inputs))
	for name, v := range req.Inputs {
		init[ir.Var(name)] = v
	}
	maxSteps := s.runMaxSteps(req.MaxSteps)
	opts := interp.Options{TrapOnDivZero: req.TrapDivZero}

	before, err := bytecode.Execute(g, init, maxSteps, opts)
	if err != nil {
		outcome = "internal-error"
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), ErrorKind: "internal-error"})
		return
	}
	after, err := bytecode.Execute(res.Graph, init, maxSteps, opts)
	if err != nil {
		outcome = "internal-error"
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), ErrorKind: "internal-error"})
		return
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

	switch {
	case before.Trapped || after.Trapped:
		outcome = "trapped"
		resp.Outcome = "trapped"
		resp.Error = "execution trapped on division or remainder by zero"
		resp.ErrorKind = "trapped"
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	case before.Truncated || after.Truncated:
		outcome = "truncated"
		resp.Outcome = "truncated"
		resp.Error = fmt.Sprintf("execution exceeded the %d-step budget", maxSteps)
		resp.ErrorKind = "truncated"
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	case !resp.TraceMatch:
		// Admissible motion preserves traces; a mismatch is an optimizer
		// bug and must never masquerade as a successful run.
		outcome = "trace-mismatch"
		resp.Outcome = "trace-mismatch"
		resp.Error = "optimized program produced a different trace than the source program"
		resp.ErrorKind = "trace-mismatch"
		writeJSON(w, http.StatusInternalServerError, resp)
	default:
		outcome = "ran"
		writeJSON(w, http.StatusOK, resp)
	}
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
