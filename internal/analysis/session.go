package analysis

import (
	"context"
	"time"

	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
)

// Session carries the run state of one optimization run over one graph:
// the solver arena, the solver-work tally, and the run's context and
// budget. The assignment-motion fixpoint (internal/am) re-runs aht and rae
// many times over the same graph; the arena lets every round carve its
// vectors from storage the previous rounds released. Nothing derived from
// a graph lives here: the block geometry belongs to the encoding of the
// phase that reads it (Code.View, NewBlockView), and the pattern universe
// is built from the graph each time an analysis encodes it (NewUniverse).
//
// Every pass and analysis takes a non-nil session; the pass pipeline
// supplies one per run. A Session must not be shared between goroutines.
type Session struct {
	ar *arena.Arena
	df dataflow.SolveStats

	// Fault-tolerance state: the run's context and budget, plus the
	// per-pass baselines the budget is measured against. See CheckBudget.
	ctx        context.Context
	budget     fault.Budget
	passStart  time.Time
	passVisits int
}

// NewSession returns a session backed by a pooled arena. Callers must
// Close it to return the arena to the pool.
func NewSession() *Session {
	return &Session{ar: arena.Get(), ctx: context.Background()}
}

// Close releases the session's arena back to the pool. The session (and
// any analysis result carved from its arena) must not be used afterwards.
func (s *Session) Close() {
	arena.Put(s.ar)
	s.ar = nil
}

// Arena returns the session's arena. Passes bracket each round with
// Mark/Release on it so that the steady state of a fixpoint allocates
// nothing.
func (s *Session) Arena() *arena.Arena { return s.ar }

// DataflowStats returns the session's solver-work tally, which every
// analysis run under this session points its dataflow.Problem.Stats at.
// The pass pipeline snapshots it around each pass to report per-pass
// Visits/Sweeps.
func (s *Session) DataflowStats() *dataflow.SolveStats { return &s.df }

// DataflowSnapshot returns a copy of the current solver-work tally, for
// delta computations with SolveStats.Delta.
func (s *Session) DataflowSnapshot() dataflow.SolveStats { return s.df }

// SetContext attaches the run's cancellation context to the session, so
// fixpoint procedures observe engine deadlines between rounds (through
// CheckBudget), not only between graphs.
func (s *Session) SetContext(ctx context.Context) { s.ctx = ctx }

// Context returns the attached context: context.Background until
// SetContext attaches another.
func (s *Session) Context() context.Context { return s.ctx }

// SetBudget attaches a resource budget to the session. The pass pipeline
// sets it from Pipeline.Budget.
func (s *Session) SetBudget(b fault.Budget) { s.budget = b }

// BeginPass marks a pass boundary for budget accounting: the per-pass
// wall clock and solver-visit baselines reset here. The pipeline calls it
// immediately before running each pass.
func (s *Session) BeginPass() {
	s.passVisits = s.df.Visits
	if !s.budget.Zero() {
		s.passStart = time.Now()
	}
}

// CheckBudget reports the first violated constraint of the session's
// budget or context as a typed fault error, or nil. Every fixpoint pass
// calls it once per round, which turns runaway fixpoints and expired
// engine deadlines into typed failures at the next round boundary instead
// of hangs. amIters is the caller's current round for the loops that
// MaxAMIterations caps (am, am-restricted, em, emcp, gvn-emcp, pde), and 0
// from gvn, dce and copyprop, which only observe the context and the
// other caps.
func (s *Session) CheckBudget(amIters int) error {
	select {
	case <-s.ctx.Done():
		return &fault.CanceledError{Err: s.ctx.Err()}
	default:
	}
	b := s.budget
	if b.Zero() {
		return nil
	}
	if b.MaxAMIterations > 0 && amIters > b.MaxAMIterations {
		return &fault.BudgetError{Resource: "am iterations", Used: int64(amIters), Limit: int64(b.MaxAMIterations)}
	}
	if b.MaxSolverVisits > 0 {
		if used := s.df.Visits - s.passVisits; used > b.MaxSolverVisits {
			return &fault.BudgetError{Resource: "solver visits", Used: int64(used), Limit: int64(b.MaxSolverVisits)}
		}
	}
	if b.MaxPassWall > 0 && !s.passStart.IsZero() {
		if used := time.Since(s.passStart); used > b.MaxPassWall {
			return &fault.BudgetError{Resource: "pass wall time", Used: int64(used), Limit: int64(b.MaxPassWall)}
		}
	}
	return nil
}

// RoundLimit bounds the rounds of a fixpoint over g (am, em, pde). §4.5
// shows the number of procedure applications is at most quadratic in the
// program size; the limit is well above that and only exists to turn a
// termination bug into a *fault.NoFixpointError instead of a hang.
func RoundLimit(g *ir.Graph) int {
	n := g.InstrCount() + len(g.Blocks)
	return 4*n*n + 64
}
