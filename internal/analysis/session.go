package analysis

import (
	"context"
	"time"

	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
)

// Session carries the reusable analysis state of one optimization run over
// one graph: the solver arena, the assignment-pattern universe with its
// PatternIndex and per-instruction occurrence table, and the block-level
// iteration orders. The assignment-motion fixpoint (internal/am) re-runs
// aht and rae many times over the same graph; without a session every
// round rebuilt all of this from scratch, which dominated the allocation
// profile of Optimize (PR-1 baseline: ~3.6M allocs per 100 small graphs).
//
// Caches revalidate against the graph's version counters (ir.Graph.Version
// / StructVersion): the universe is re-scanned — map hits only, IDs stay
// stable — when the graph mutated, and the iteration orders are recomputed
// only when the block/edge structure changed, which inside a motion
// fixpoint is never (edges are split up front).
//
// A nil *Session is valid everywhere one is accepted and means "no
// caching, no arena": every helper falls back to fresh allocation. A
// Session must not be shared between goroutines.
type Session struct {
	ar *arena.Arena
	df dataflow.SolveStats

	// Fault-tolerance state: the run's context and budget, plus the
	// per-pass baselines the budget is measured against. See CheckBudget.
	ctx        context.Context
	budget     fault.Budget
	passStart  time.Time
	passVisits int

	g        *ir.Graph
	u        *ir.PatternSet
	px       *PatternIndex
	occ      Occurrences
	uVersion uint64
	uValid   bool

	fwdOrder    []int
	bwdOrder    []int
	succsInt    [][]int
	predsInt    [][]int
	orderStruct uint64
	orderValid  bool

	solverWorkers int
}

// parallelSolveMinNodes is the graph size below which intra-graph
// parallel solving is never worth the scheduling overhead: a solve over a
// few dozen blocks finishes in microseconds, well under the cost of
// fanning components out to goroutines. Large generated or inlined flow
// graphs (thousands of blocks) are where the condensation has enough
// independent regions to occupy a pool.
const parallelSolveMinNodes = 512

// NewSession returns a session backed by a pooled arena. Callers must
// Close it to return the arena to the pool.
func NewSession() *Session {
	return &Session{ar: arena.Get()}
}

// Close releases the session's arena back to the pool. The session (and
// any analysis result carved from its arena) must not be used afterwards.
func (s *Session) Close() {
	if s == nil {
		return
	}
	arena.Put(s.ar)
	s.ar = nil
}

// Arena returns the session's arena (nil for a nil session). Passes
// bracket each round with Mark/Release on it so that the steady state of a
// fixpoint allocates nothing.
func (s *Session) Arena() *arena.Arena {
	if s == nil {
		return nil
	}
	return s.ar
}

// DataflowStats returns the session's solver-work tally, which every
// analysis run under this session points its dataflow.Problem.Stats at.
// The pass pipeline snapshots it around each pass to report per-pass
// Visits/Sweeps. Nil for a nil session (and dataflow treats a nil tally as
// "don't count").
func (s *Session) DataflowStats() *dataflow.SolveStats {
	if s == nil {
		return nil
	}
	return &s.df
}

// DataflowSnapshot returns a copy of the current solver-work tally (zero
// for a nil session), for delta computations with SolveStats.Delta.
func (s *Session) DataflowSnapshot() dataflow.SolveStats {
	if s == nil {
		return dataflow.SolveStats{}
	}
	return s.df
}

// SetContext attaches the run's cancellation context to the session, so
// fixpoint procedures observe engine deadlines between rounds (through
// CheckBudget), not only between graphs. Nil-safe no-op.
func (s *Session) SetContext(ctx context.Context) {
	if s == nil {
		return
	}
	s.ctx = ctx
}

// Context returns the attached context, or context.Background when none
// was set (or the session is nil).
func (s *Session) Context() context.Context {
	if s == nil || s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// SetBudget attaches a resource budget to the session. The pass pipeline
// sets it from Pipeline.Budget; a nil session accepts (and ignores) it.
func (s *Session) SetBudget(b fault.Budget) {
	if s == nil {
		return
	}
	s.budget = b
}

// Budget returns the attached budget (zero for a nil session).
func (s *Session) Budget() fault.Budget {
	if s == nil {
		return fault.Budget{}
	}
	return s.budget
}

// BeginPass marks a pass boundary for budget accounting: the per-pass
// wall clock and solver-visit baselines reset here. The pipeline calls it
// immediately before running each pass. Nil-safe no-op.
func (s *Session) BeginPass() {
	if s == nil {
		return
	}
	s.passVisits = s.df.Visits
	if !s.budget.Zero() {
		s.passStart = time.Now()
	}
}

// CheckBudget reports the first violated constraint of the session's
// budget or context as a typed fault error, or nil. Fixpoint procedures
// (the AM phase, the EM/CP interleaving) call it once per round with
// their current round count, which turns runaway fixpoints and expired
// engine deadlines into typed failures at the next round boundary instead
// of hangs. amIters is the caller's current fixpoint round (pass 0 from
// non-iterating contexts). Nil-safe: a nil session has no budget and no
// context, so the check is free and always passes.
func (s *Session) CheckBudget(amIters int) error {
	if s == nil {
		return nil
	}
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			return &fault.CanceledError{Err: s.ctx.Err()}
		default:
		}
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

// SetSolverWorkers sets the worker-pool bound for intra-graph parallel
// dataflow solving. 0 or 1 keeps every solve serial; n > 1 lets solves
// over sufficiently large graphs (see SolverWorkersFor) condense the CFG
// into SCC regions and solve independent regions on up to n goroutines.
// Nil-safe no-op, so nil-session call sites stay serial.
func (s *Session) SetSolverWorkers(n int) {
	if s == nil {
		return
	}
	s.solverWorkers = n
}

// SolverWorkersFor returns the dataflow.Problem.Workers value for a solve
// over n nodes: the configured pool bound when the graph is large enough
// for region-level parallelism to pay, otherwise 0 (serial). This is the
// policy half of the mechanism/policy split — the solver itself obeys
// whatever it is told, so tests can force parallel solves on small graphs
// by setting Workers directly.
func (s *Session) SolverWorkersFor(n int) int {
	if s == nil || s.solverWorkers <= 1 || n < parallelSolveMinNodes {
		return 0
	}
	return s.solverWorkers
}

// Universe returns the assignment-pattern universe of g, its
// PatternIndex, and the pattern ID of every instruction of g's current
// version, cached across calls. On a graph mutation one scan re-syncs the
// universe in place (stable IDs, see ir.PatternSet.Intern) and refills the
// occurrence table, so each instruction's pattern is hashed once per graph
// version however many analyses read it. The index is rebuilt only when a
// genuinely new pattern appeared — which inside an aht/rae fixpoint never
// happens, since hoisting re-inserts existing patterns and elimination
// only removes occurrences; patterns that no longer occur keep their IDs
// and simply set no bit in any local predicate.
//
// The occurrence table is session-owned storage reused across versions
// (not arena-carved: it must outlive the Mark/Release bracket of the
// analysis that filled it). It is valid until g's next mutation.
func (s *Session) Universe(g *ir.Graph) (*ir.PatternSet, *PatternIndex, *Occurrences) {
	if s == nil {
		u, occ := &ir.PatternSet{}, &Occurrences{}
		occ.scan(g, u)
		return u, NewPatternIndex(u), occ
	}
	if s.g != g || !s.uValid {
		s.invalidate(g)
		s.u = &ir.PatternSet{}
		s.occ.scan(g, s.u)
		s.px = NewPatternIndex(s.u)
		s.uVersion = g.Version()
		s.uValid = true
		return s.u, s.px, &s.occ
	}
	if v := g.Version(); v != s.uVersion {
		if s.occ.scan(g, s.u) {
			s.px = NewPatternIndex(s.u)
		}
		s.uVersion = v
	}
	return s.u, s.px, &s.occ
}

// BlockView is the cached block-level solver geometry of one graph: int
// adjacency (so the solver's hot loop does not convert NodeIDs per visit)
// and the two iteration orders — reverse postorder from the entry along
// successors for forward problems, reverse postorder from the exit along
// predecessors for backward ones.
type BlockView struct {
	Preds func(i int) []int
	Succs func(i int) []int
	// FwdOrder / BwdOrder are nil when no session caches them (the solver
	// then derives its own order).
	FwdOrder []int
	BwdOrder []int
}

// Blocks returns the solver geometry for g's basic blocks, cached until
// the graph's block/edge structure changes — which inside a motion
// fixpoint is never, since critical edges are split up front. Works on a
// nil session (no caching, per-call adjacency conversion).
func (s *Session) Blocks(g *ir.Graph) BlockView {
	if s == nil {
		return BlockView{
			Preds: func(i int) []int { return nodeInts(g.Blocks[i].Preds) },
			Succs: func(i int) []int { return nodeInts(g.Blocks[i].Succs) },
		}
	}
	if s.g != g {
		s.invalidate(g)
	}
	if sv := g.StructVersion(); !s.orderValid || sv != s.orderStruct || len(s.succsInt) != len(g.Blocks) {
		n := len(g.Blocks)
		s.succsInt = make([][]int, n)
		s.predsInt = make([][]int, n)
		for i, b := range g.Blocks {
			s.succsInt[i] = nodeInts(b.Succs)
			s.predsInt[i] = nodeInts(b.Preds)
		}
		succs := func(i int) []int { return s.succsInt[i] }
		preds := func(i int) []int { return s.predsInt[i] }
		s.fwdOrder = dataflow.FlowOrder(n, []int{int(g.Entry)}, succs)
		s.bwdOrder = dataflow.FlowOrder(n, []int{int(g.Exit)}, preds)
		s.orderStruct = sv
		s.orderValid = true
	}
	return BlockView{
		Preds:    func(i int) []int { return s.predsInt[i] },
		Succs:    func(i int) []int { return s.succsInt[i] },
		FwdOrder: s.fwdOrder,
		BwdOrder: s.bwdOrder,
	}
}

// invalidate rebinds the session to a new graph, dropping all caches.
func (s *Session) invalidate(g *ir.Graph) {
	s.g = g
	s.uValid = false
	s.orderValid = false
}

// nodeInts converts a NodeID adjacency list to int indices without
// allocation beyond the result slice.
func nodeInts(ids []ir.NodeID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}
