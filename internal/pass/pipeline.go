package pass

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/verify"
)

// RecoveryPolicy selects what a Pipeline does when a pass fails — panics,
// overruns its fixpoint backstop, exhausts the budget, or produces an
// invalid graph.
type RecoveryPolicy int

const (
	// Fail stops at the first failure and returns it from RunWith. No
	// pre-pass checkpoints are taken, so a pass that failed mid-mutation
	// may leave the graph in the state of its last completed sub-step
	// (with Debug on, checkpoints exist and the graph is rolled back even
	// under Fail).
	Fail RecoveryPolicy = iota
	// Rollback takes a checkpoint before every pass; on failure the graph
	// is restored to the last-good checkpoint, the run stops, and the
	// typed failure is recorded in the Report (RunWith returns a nil
	// error — the caller asked for degradation, and the returned graph is
	// the valid result of the passes that succeeded).
	Rollback
	// SkipAndContinue is Rollback that does not stop: the offending pass
	// is skipped and the remainder of the pipeline runs.
	SkipAndContinue
)

func (p RecoveryPolicy) String() string {
	switch p {
	case Fail:
		return "fail"
	case Rollback:
		return "rollback"
	case SkipAndContinue:
		return "skip"
	}
	return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
}

// ParseRecoveryPolicy maps the amopt -on-error spelling to a policy.
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) {
	switch s {
	case "fail":
		return Fail, nil
	case "rollback":
		return Rollback, nil
	case "skip":
		return SkipAndContinue, nil
	}
	return Fail, fmt.Errorf("unknown recovery policy %q (want fail, rollback, or skip)", s)
}

// Outcomes of one executed pass (Event.Outcome).
const (
	// OutcomeOK: the pass ran to completion.
	OutcomeOK = "ok"
	// OutcomeRolledBack: the pass failed and the graph was restored to
	// the pre-pass checkpoint; the run stopped.
	OutcomeRolledBack = "rolled-back"
	// OutcomeSkipped: the pass failed, the graph was restored, and the
	// pipeline continued with the next pass (SkipAndContinue).
	OutcomeSkipped = "skipped"
	// OutcomeFailed: the pass failed under the Fail policy (or failed in
	// a way no policy absorbs, e.g. cancellation); the failure was
	// returned from RunWith.
	OutcomeFailed = "failed"
)

// ArenaMarks is the growth of the session arena's high-water marks during
// one pass: how much additional peak storage (vector words, ints, vector
// headers) the pass forced the arena to hold. Inside a warmed-up fixpoint
// all three are zero — the arena serves every round from storage already
// carved — which is exactly the allocation-free steady state the arena
// exists for, now observable per pass.
type ArenaMarks struct {
	Words int `json:"words"`
	Ints  int `json:"ints"`
	Vecs  int `json:"vecs"`
}

// Event is the instrumentation record of one executed pass within a
// pipeline run, delivered to the pipeline's Hook and collected in its
// Report.
type Event struct {
	// Index is the pass's position in the pipeline.
	Index int `json:"index"`
	// Pass and Ref identify the pass (registry name and paper anchor).
	Pass string `json:"pass"`
	Ref  string `json:"ref,omitempty"`
	// Outcome records how the pass ended: "ok", "rolled-back", "skipped",
	// or "failed" (see the Outcome* constants).
	Outcome string `json:"outcome"`
	// Stats is the pass's uniform change/iteration report.
	Stats Stats `json:"stats"`
	// Wall is the pass's wall-clock time.
	Wall time.Duration `json:"wall"`
	// Instruction and block counts around the pass. After a rollback they
	// describe the restored graph, not the aborted mutation.
	InstrsBefore int `json:"instrsBefore"`
	InstrsAfter  int `json:"instrsAfter"`
	BlocksBefore int `json:"blocksBefore"`
	BlocksAfter  int `json:"blocksAfter"`
	// Dataflow is the solver work (solves, node visits, order sweeps)
	// performed during the pass under the pipeline's session.
	Dataflow dataflow.SolveStats `json:"dataflow"`
	// Arena is the growth of the session arena's peak footprint.
	Arena ArenaMarks `json:"arena"`
	// Err is the typed failure of this pass (nil when Outcome is "ok"):
	// a *fault.PassError wrapping the taxonomy error, or an
	// *InvariantError in Debug mode.
	Err error `json:"-"`
	// Error is Err rendered as text for serialization — JSON reports, the
	// daemon's responses, the persistent result cache — where the typed
	// error itself cannot travel. Empty when the pass succeeded.
	Error string `json:"error,omitempty"`
}

// Report aggregates one pipeline run.
type Report struct {
	// Events holds one entry per executed pass, in execution order.
	Events []Event
	// Wall is the whole run's wall-clock time.
	Wall time.Duration
	// Failures collects the typed failures absorbed by the recovery
	// policy (Rollback stops after its first entry; SkipAndContinue may
	// accumulate several). Failures the policy did not absorb are
	// returned from RunWith instead and do not appear here.
	Failures []error
}

// Degraded reports whether the run completed only by rolling back or
// skipping failed passes. A degraded result is valid and semantics
// preserving but must not be treated (or cached) as the pipeline's true
// fixpoint output.
func (r *Report) Degraded() bool { return len(r.Failures) > 0 }

// InvariantError reports that a pass broke an inter-pass invariant in
// Debug mode: it names the offending pass and wraps the underlying
// validation or trace-divergence detail.
type InvariantError struct {
	// Pass and Index identify the offending pass.
	Pass  string
	Index int
	// Err is the underlying violation.
	Err error
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("pass %q (pipeline step %d) broke an invariant: %v", e.Pass, e.Index, e.Err)
}

func (e *InvariantError) Unwrap() error { return e.Err }

// Pipeline is an executable pass sequence. Construct with New or
// FromNames; the zero value runs no passes.
type Pipeline struct {
	passes []Pass
	// Hook, when non-nil, receives one Event per executed pass,
	// immediately after the pass (and its Debug check) finishes. Used by
	// internal/engine for batch statistics and by amopt -trace-passes.
	Hook func(Event)
	// Recovery selects the failure handling: Fail (default, stop and
	// return the typed error), Rollback (restore the last-good
	// checkpoint and stop), or SkipAndContinue (restore, skip, run the
	// remainder). Rollback and SkipAndContinue take a pre-pass graph
	// checkpoint (one Clone per pass, the same cost Debug already pays).
	Recovery RecoveryPolicy
	// Budget caps the run's per-pass resources; violations surface as
	// fault.ErrBudgetExceeded and are subject to Recovery. The budget is
	// threaded through the analysis session, so fixpoint passes (am, em,
	// emcp) enforce it between rounds, not just at pass boundaries.
	Budget fault.Budget
	// Debug enables inter-pass invariant checking: after every pass the
	// graph is validated and spot-checked for trace equivalence against
	// the pre-pass program on four random inputs (debugRuns). Roughly doubles the
	// cost of a run (one clone per pass plus the interpreter runs).
	Debug bool
	// Wrap, when non-nil, may replace each pass immediately before
	// execution. It is a test-only seam for fault injection
	// (internal/fault/inject): the injector substitutes pass bodies that
	// panic, corrupt the graph, or exhaust budgets at deterministic,
	// seed-selected pipeline positions. Production callers leave it nil.
	Wrap func(index int, p Pass) Pass
}

// debugRuns is the number of random environments of the Debug spot check.
const debugRuns = 4

// New returns a pipeline over the given passes.
func New(passes ...Pass) *Pipeline {
	return &Pipeline{passes: passes}
}

// FromNames resolves names against the registry and returns the pipeline.
// Unknown names fail with a did-you-mean suggestion.
func FromNames(names ...string) (*Pipeline, error) {
	passes, err := Resolve(names...)
	if err != nil {
		return nil, err
	}
	return New(passes...), nil
}

// Names returns the pipeline's pass names, in execution order.
func (pl *Pipeline) Names() []string {
	names := make([]string, len(pl.passes))
	for i, p := range pl.passes {
		names[i] = p.Name
	}
	return names
}

// Run executes the pipeline on g in place under a fresh session.
func (pl *Pipeline) Run(g *ir.Graph) (Report, error) {
	s := analysis.NewSession()
	defer s.Close()
	return pl.RunWith(context.Background(), g, s)
}

// RunWith executes the pipeline on g in place, threading ONE session
// through every pass: the arena warmed by one pass is reused by the next.
// The returned Report carries the per-pass instrumentation.
//
// Failure semantics: every pass runs under panic recovery, and with
// Recovery != Fail (or Debug on) a pre-pass checkpoint of the graph is
// taken and the post-pass graph is validated. A failing pass — recovered
// panic, *fault* taxonomy error, budget violation, invalid result, or
// Debug invariant violation — is handled per the Recovery policy; in
// every policy the graph the caller observes is either the pipeline's
// true output or an exact restoration of a checkpoint, never a
// half-mutated intermediate state (under plain Fail without Debug there
// are no checkpoints, which is exactly today's fast path, and the pass's
// own error-state contract applies).
//
// ctx cancels the run between passes (and, through the session, between
// fixpoint rounds inside a pass); cancellation is returned as
// fault.ErrCanceled naming the in-flight pass and is never absorbed by
// the recovery policy, but the checkpoint restoration still applies. A
// nested pipeline (the "globalg" pass) passes s.Context() to inherit the
// outer run's context.
func (pl *Pipeline) RunWith(ctx context.Context, g *ir.Graph, s *analysis.Session) (Report, error) {
	var rep Report
	start := time.Now()
	defer func() { rep.Wall = time.Since(start) }()

	s.SetContext(ctx)
	// A nested pipeline (the "globalg" pass) must not clobber the outer
	// run's budget with its own zero value.
	if !pl.Budget.Zero() {
		s.SetBudget(pl.Budget)
	}
	checkpointing := pl.Debug || pl.Recovery != Fail

	for i, p := range pl.passes {
		if pl.Wrap != nil {
			p = pl.Wrap(i, p)
		}
		if err := ctx.Err(); err != nil {
			return rep, fault.In(p.Name, i, &fault.CanceledError{Err: err})
		}
		ev := Event{Index: i, Pass: p.Name, Ref: p.Ref, Outcome: OutcomeOK}
		var checkpoint *ir.Graph
		if checkpointing {
			checkpoint = g.Clone()
		}
		ev.InstrsBefore, ev.BlocksBefore = g.InstrCount(), len(g.Blocks)
		df0 := s.DataflowSnapshot()
		w0, i0, v0 := s.Arena().HighWater()
		s.BeginPass()

		t0 := time.Now()
		st, err := runProtected(p, g, s)
		ev.Wall = time.Since(t0)
		ev.Stats = st

		ev.Dataflow = s.DataflowSnapshot().Delta(df0)
		w1, i1, v1 := s.Arena().HighWater()
		ev.Arena = ArenaMarks{Words: w1 - w0, Ints: i1 - i0, Vecs: v1 - v0}

		if err == nil {
			err = pl.checkPassBudget(&ev)
		}
		if err == nil && checkpointing {
			err = pl.check(p, i, checkpoint, g)
		}
		if err != nil {
			// An InvariantError already names its pass; everything else
			// gets the fault wrapper.
			if _, isInv := err.(*InvariantError); !isInv {
				err = fault.In(p.Name, i, err)
			}
			ev.Err = err
			ev.Error = err.Error()
			if checkpoint != nil {
				// Restore the last-good graph so callers never observe a
				// half-optimized or invariant-breaking intermediate state.
				// The checkpoint's storage is adopted; it is not used again.
				g.Restore(checkpoint)
			}
			ev.InstrsAfter, ev.BlocksAfter = g.InstrCount(), len(g.Blocks)

			absorb := pl.Recovery != Fail && !fault.IsCancellation(err)
			switch {
			case !absorb:
				ev.Outcome = OutcomeFailed
				if checkpoint != nil {
					ev.Outcome = OutcomeRolledBack
				}
				pl.emit(&rep, ev)
				return rep, err
			case pl.Recovery == Rollback:
				ev.Outcome = OutcomeRolledBack
				rep.Failures = append(rep.Failures, err)
				pl.emit(&rep, ev)
				return rep, nil
			default: // SkipAndContinue
				ev.Outcome = OutcomeSkipped
				rep.Failures = append(rep.Failures, err)
				pl.emit(&rep, ev)
				continue
			}
		}

		ev.InstrsAfter, ev.BlocksAfter = g.InstrCount(), len(g.Blocks)
		pl.emit(&rep, ev)
	}
	return rep, nil
}

// emit records the event and delivers it to the hook.
func (pl *Pipeline) emit(rep *Report, ev Event) {
	rep.Events = append(rep.Events, ev)
	if pl.Hook != nil {
		pl.Hook(ev)
	}
}

// runProtected executes one pass body, converting a panic into a typed
// *fault.PanicError carrying the recovered value and stack.
func runProtected(p Pass, g *ir.Graph, s *analysis.Session) (st Stats, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &fault.PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	return p.RunWith(g, s)
}

// checkPassBudget enforces the per-pass budget dimensions after the fact,
// from the event's own measurements. Fixpoint passes additionally enforce
// the budget between rounds through Session.CheckBudget — this check
// catches single-sweep passes that overran, where "stop earlier" was
// never an option.
func (pl *Pipeline) checkPassBudget(ev *Event) error {
	b := pl.Budget
	if b.MaxPassWall > 0 && ev.Wall > b.MaxPassWall {
		return &fault.BudgetError{Resource: "pass wall time", Used: int64(ev.Wall), Limit: int64(b.MaxPassWall)}
	}
	if b.MaxSolverVisits > 0 && ev.Dataflow.Visits > b.MaxSolverVisits {
		return &fault.BudgetError{Resource: "solver visits", Used: int64(ev.Dataflow.Visits), Limit: int64(b.MaxSolverVisits)}
	}
	return nil
}

// check validates the post-pass graph; in Debug mode it additionally
// spot-checks trace equivalence against the pre-pass checkpoint. The spot
// check uses the interpreter's default total semantics (division by zero
// yields 0), under which even the opt-in dce/pde passes are
// observation-preserving, so it applies to every registered pass.
func (pl *Pipeline) check(p Pass, idx int, before, after *ir.Graph) error {
	if err := after.Validate(); err != nil {
		return &fault.InvalidGraphError{Err: err}
	}
	if !pl.Debug {
		return nil
	}
	rep := verify.Equivalent(before, after, debugRuns, 1)
	if !rep.Equivalent {
		return &InvariantError{Pass: p.Name, Index: idx, Err: fmt.Errorf("trace divergence: %s", rep.Detail)}
	}
	return nil
}
