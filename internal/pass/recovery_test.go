package pass_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
)

const recoverySrc = `
graph recovery {
  entry b0
  exit b2
  block b0 {
    x := a + b
    y := a + b
    if x < y then b1 else b2
  }
  block b1 {
    z := a + b
    goto b2
  }
  block b2 { out(x, y, z) }
}
`

func recoveryGraph(t *testing.T) *ir.Graph {
	t.Helper()
	return parse.MustParse(recoverySrc)
}

// prependConst returns a valid, semantics-visible mutation: it prepends
// v := c to the entry block.
func prependConst(name string, v ir.Var, c int64) pass.Pass {
	return pass.Pass{
		Name: name,
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			b := g.EntryBlock()
			b.Instrs = append([]ir.Instr{ir.NewAssign(v, ir.ConstTerm(c))}, b.Instrs...)
			return pass.Stats{Changes: 1, Iterations: 1}, nil
		},
	}
}

func panicking(name string) pass.Pass {
	return pass.Pass{
		Name: name,
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			panic("boom: " + name)
		},
	}
}

func TestFaultPanicUnderFail(t *testing.T) {
	g := recoveryGraph(t)
	pl := pass.New(prependConst("good", "w", 1), panicking("bad"))

	rep, err := pl.Run(g)
	if err == nil {
		t.Fatal("want error from panicking pass under Fail")
	}
	if !errors.Is(err, fault.ErrPassPanic) {
		t.Errorf("error does not match fault.ErrPassPanic: %v", err)
	}
	name, idx, ok := fault.PassOf(err)
	if !ok || name != "bad" || idx != 1 {
		t.Errorf("PassOf = %q, %d, %v; want bad, 1, true", name, idx, ok)
	}
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no *fault.PanicError in chain: %v", err)
	}
	if pe.Value != "boom: bad" || len(pe.Stack) == 0 {
		t.Errorf("panic value/stack not captured: %q, %d stack bytes", pe.Value, len(pe.Stack))
	}
	if rep.Degraded() {
		t.Error("unabsorbed failure must not be recorded as degradation")
	}
	if n := len(rep.Events); n != 2 || rep.Events[1].Outcome != pass.OutcomeFailed {
		t.Errorf("events: %d, last outcome %q; want 2, failed", n, rep.Events[n-1].Outcome)
	}
}

func TestFaultRollbackRestoresByteIdentical(t *testing.T) {
	// The last-good checkpoint is the state after "good" — compute it by
	// running the good prefix alone.
	want := recoveryGraph(t)
	if _, err := pass.New(prependConst("good", "w", 1)).Run(want); err != nil {
		t.Fatal(err)
	}

	g := recoveryGraph(t)
	pl := pass.New(prependConst("good", "w", 1), panicking("bad"), prependConst("never", "v", 2))
	pl.Recovery = pass.Rollback

	rep, err := pl.Run(g)
	if err != nil {
		t.Fatalf("Rollback must absorb the failure, got %v", err)
	}
	if !rep.Degraded() || len(rep.Failures) != 1 {
		t.Fatalf("want exactly one absorbed failure, got %v", rep.Failures)
	}
	if !errors.Is(rep.Failures[0], fault.ErrPassPanic) {
		t.Errorf("absorbed failure is not ErrPassPanic: %v", rep.Failures[0])
	}
	if got := g.Encode(); got != want.Encode() {
		t.Errorf("graph not byte-identical to last-good checkpoint\n--- got\n%s--- want\n%s", got, want.Encode())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("restored graph invalid: %v", err)
	}
	// Rollback stops: the third pass never ran.
	if len(rep.Events) != 2 || rep.Events[1].Outcome != pass.OutcomeRolledBack {
		t.Errorf("events %d, last outcome %q; want 2, rolled-back", len(rep.Events), rep.Events[len(rep.Events)-1].Outcome)
	}
}

func TestFaultSkipAndContinue(t *testing.T) {
	want := recoveryGraph(t)
	if _, err := pass.New(prependConst("good", "w", 1), prependConst("after", "v", 2)).Run(want); err != nil {
		t.Fatal(err)
	}

	g := recoveryGraph(t)
	pl := pass.New(prependConst("good", "w", 1), panicking("bad"), prependConst("after", "v", 2))
	pl.Recovery = pass.SkipAndContinue

	rep, err := pl.Run(g)
	if err != nil {
		t.Fatalf("SkipAndContinue must absorb the failure, got %v", err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("want one absorbed failure, got %v", rep.Failures)
	}
	if g.Encode() != want.Encode() {
		t.Errorf("skipping the poisoned pass must preserve the rest of the pipeline\n--- got\n%s--- want\n%s", g.Encode(), want.Encode())
	}
	outcomes := make([]string, len(rep.Events))
	for i, ev := range rep.Events {
		outcomes[i] = ev.Outcome
	}
	if len(outcomes) != 3 || outcomes[0] != pass.OutcomeOK || outcomes[1] != pass.OutcomeSkipped || outcomes[2] != pass.OutcomeOK {
		t.Errorf("outcomes = %v; want [ok skipped ok]", outcomes)
	}
}

func TestFaultInvalidGraphRolledBack(t *testing.T) {
	g := recoveryGraph(t)
	before := g.Encode()
	corrupting := pass.Pass{
		Name: "corrupting",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			g.EntryBlock().Instrs = nil // Validate: block is empty
			return pass.Stats{Changes: 1, Iterations: 1}, nil
		},
	}
	pl := pass.New(corrupting)
	pl.Recovery = pass.Rollback

	rep, err := pl.Run(g)
	if err != nil {
		t.Fatalf("Rollback must absorb the invalid-graph failure, got %v", err)
	}
	if len(rep.Failures) != 1 || !errors.Is(rep.Failures[0], fault.ErrInvalidGraph) {
		t.Fatalf("want one ErrInvalidGraph failure, got %v", rep.Failures)
	}
	if g.Encode() != before {
		t.Errorf("corrupted graph not rolled back to input\n--- got\n%s--- want\n%s", g.Encode(), before)
	}
}

// TestFaultDebugInvariantRestores is the regression test for the Debug-mode
// bug where an invariant violation returned the mutated graph: a pass that
// produces a valid but semantically different program must fail the trace
// spot check AND leave the caller's graph in the pre-pass state.
func TestFaultDebugInvariantRestores(t *testing.T) {
	g := recoveryGraph(t)
	before := g.Encode()
	diverging := pass.Pass{
		Name: "diverging",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			// x := a + b becomes x := a - b: structurally valid, trace-visible.
			g.EntryBlock().Instrs[0] = ir.NewAssign("x", ir.BinTerm(ir.OpSub, ir.VarOp("a"), ir.VarOp("b")))
			return pass.Stats{Changes: 1, Iterations: 1}, nil
		},
	}
	pl := pass.New(diverging)
	pl.Debug = true

	_, err := pl.Run(g)
	var inv *pass.InvariantError
	if !errors.As(err, &inv) {
		t.Fatalf("want *InvariantError, got %v", err)
	}
	if inv.Pass != "diverging" || inv.Index != 0 {
		t.Errorf("InvariantError names %q/%d; want diverging/0", inv.Pass, inv.Index)
	}
	if g.Encode() != before {
		t.Errorf("graph left mutated after invariant violation\n--- got\n%s--- want\n%s", g.Encode(), before)
	}
}

func TestFaultBudgetPassWall(t *testing.T) {
	slow := pass.Pass{
		Name: "slow",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			time.Sleep(5 * time.Millisecond)
			return pass.Stats{Iterations: 1}, nil
		},
	}
	pl := pass.New(slow)
	pl.Budget = fault.Budget{MaxPassWall: time.Microsecond}

	_, err := pl.Run(recoveryGraph(t))
	if !errors.Is(err, fault.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *fault.BudgetError
	if !errors.As(err, &be) || be.Resource != "pass wall time" {
		t.Errorf("want pass-wall BudgetError, got %v", err)
	}
}

// TestFaultBudgetThreadedThroughSession checks the mid-pass enforcement
// path: a fixpoint-style pass consults Session.CheckBudget between rounds
// and surfaces the typed budget error through the pipeline.
func TestFaultBudgetThreadedThroughSession(t *testing.T) {
	fixpointish := pass.Pass{
		Name: "fixpointish",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			for round := 1; ; round++ {
				if err := s.CheckBudget(round); err != nil {
					return pass.Stats{Iterations: round - 1}, err
				}
			}
		},
	}
	pl := pass.New(fixpointish)
	pl.Budget = fault.Budget{MaxAMIterations: 7}

	_, err := pl.Run(recoveryGraph(t))
	if !errors.Is(err, fault.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded from session budget, got %v", err)
	}
	var be *fault.BudgetError
	if !errors.As(err, &be) || be.Resource != "am iterations" || be.Limit != 7 {
		t.Errorf("want am-iterations BudgetError with limit 7, got %v", err)
	}
}

// TestFaultCancellationMidPipeline cancels the context from inside the
// second pass and checks the contract: the run stops before the next pass,
// the error is ErrCanceled naming the in-flight pass, it unwraps to
// context.Canceled, it is NOT absorbed by the recovery policy, and the
// completed prefix's work is intact (no partial third-pass mutation).
func TestFaultCancellationMidPipeline(t *testing.T) {
	want := recoveryGraph(t)
	if _, err := pass.New(prependConst("good", "w", 1), prependConst("canceler", "c", 9)).Run(want); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceler := prependConst("canceler", "c", 9)
	inner := canceler.RunWith
	canceler.RunWith = func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
		st, err := inner(g, s)
		cancel()
		return st, err
	}

	g := recoveryGraph(t)
	pl := pass.New(prependConst("good", "w", 1), canceler, prependConst("never", "v", 2))
	pl.Recovery = pass.Rollback // must NOT absorb cancellation

	s := analysis.NewSession()
	defer s.Close()
	rep, err := pl.RunWith(ctx, g, s)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, fault.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("error must match ErrCanceled and context.Canceled: %v", err)
	}
	if !fault.IsCancellation(err) {
		t.Errorf("IsCancellation = false for %v", err)
	}
	name, idx, ok := fault.PassOf(err)
	if !ok || name != "never" || idx != 2 {
		t.Errorf("cancellation names pass %q/%d; want never/2 (the in-flight pass)", name, idx)
	}
	if rep.Degraded() {
		t.Error("cancellation must not be absorbed into Report.Failures")
	}
	if len(rep.Events) != 2 {
		t.Errorf("want 2 completed events before cancellation, got %d", len(rep.Events))
	}
	if g.Encode() != want.Encode() {
		t.Errorf("completed prefix's work must be intact after cancellation\n--- got\n%s--- want\n%s", g.Encode(), want.Encode())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("graph invalid after cancellation: %v", err)
	}
}

// TestFaultNoFixpointFromAM drives the real am pass into its iteration
// backstop via the session budget's MaxAMIterations and checks the typed
// error (legacy panic converted to fault.ErrNoFixpoint is exercised by the
// am package's own tests; here we check pipeline integration end to end).
func TestFaultNoFixpointSurfacesTyped(t *testing.T) {
	overrunning := pass.Pass{
		Name: "overrunning",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			return pass.Stats{}, &fault.NoFixpointError{Proc: "am", Iterations: 64, Limit: 64}
		},
	}
	_, err := pass.New(overrunning).Run(recoveryGraph(t))
	if !errors.Is(err, fault.ErrNoFixpoint) {
		t.Fatalf("want ErrNoFixpoint, got %v", err)
	}
	if !strings.Contains(err.Error(), "overrunning") || !strings.Contains(err.Error(), "64") {
		t.Errorf("error should name the pass and the limit: %v", err)
	}
}

// TestFaultEventErrAndHook checks that failures are visible through the
// Hook path the engine and amopt -trace-passes use.
func TestFaultEventErrAndHook(t *testing.T) {
	g := recoveryGraph(t)
	pl := pass.New(panicking("bad"))
	pl.Recovery = pass.SkipAndContinue
	var hooked []pass.Event
	pl.Hook = func(ev pass.Event) { hooked = append(hooked, ev) }

	if _, err := pl.Run(g); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0].Outcome != pass.OutcomeSkipped || hooked[0].Err == nil {
		t.Fatalf("hook saw %+v; want one skipped event with Err set", hooked)
	}
}

func TestRecoveryPolicyRoundTrip(t *testing.T) {
	for _, p := range []pass.RecoveryPolicy{pass.Fail, pass.Rollback, pass.SkipAndContinue} {
		got, err := pass.ParseRecoveryPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip of %v: got %v, %v", p, got, err)
		}
	}
	if _, err := pass.ParseRecoveryPolicy("explode"); err == nil {
		t.Error("ParseRecoveryPolicy must reject unknown spellings")
	}
}
