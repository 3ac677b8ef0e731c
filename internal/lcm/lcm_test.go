package lcm

import (
	"context"
	"errors"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
)

// Figure 1: 1 → {2,3} → 4.
const fig01 = `
graph fig01 {
  entry n1
  exit n4
  block n1 { if c < 0 then n2 else n3 }
  block n2 {
    z := a + b
    x := a + b
    goto n4
  }
  block n3 {
    x := a + b
    y := x + y
    goto n4
  }
  block n4 { out(x, y, z) }
}
`

// run is Run on a fresh session, failing t on an error.
func run(t *testing.T, g *ir.Graph) Stats {
	t.Helper()
	s := analysis.NewSession()
	defer s.Close()
	st, err := Run(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFigure01ExpressionMotion(t *testing.T) {
	g := parse.MustParse(fig01)
	orig := g.Clone()
	run(t, g)
	g.MustValidate()

	envs := []map[ir.Var]int64{
		{"c": -1, "a": 2, "b": 3, "y": 1},
		{"c": 1, "a": 2, "b": 3, "y": 1},
	}
	for _, env := range envs {
		r1 := interp.Run(orig, env, 0)
		r2 := interp.Run(g, env, 0)
		if !interp.TraceEqual(r1, r2) {
			t.Fatalf("trace changed: %v -> %v\n%s", r1.Trace, r2.Trace, printer.String(g))
		}
	}
	// Left path: a+b was evaluated twice, now once.
	left := interp.Run(g, envs[0], 0)
	if left.Counts.ExprEvals != 1 {
		t.Errorf("left path expr evals = %d, want 1\n%s", left.Counts.ExprEvals, printer.String(g))
	}
}

const running = `
graph running {
  entry b1
  exit b4
  block b1 {
    y := c + d
    goto b2
  }
  block b2 {
    if x + z > y + i then b3 else b4
  }
  block b3 {
    y := c + d
    x := y + z
    i := i + x
    goto b2
  }
  block b4 {
    x := y + z
    x := c + d
    out(i, x, y)
  }
}
`

func runningEnvLoop() map[ir.Var]int64 {
	return map[ir.Var]int64{"x": 100, "z": 0, "y": 0, "i": 1, "c": 2, "d": 3}
}

func TestFigure06aSeparateEM(t *testing.T) {
	g := parse.MustParse(running)
	orig := g.Clone()
	run(t, g)
	g.MustValidate()

	// EM alone must keep the loop-invariant *assignment* x := y+z (as
	// x := h4 with an in-loop initialization h4 := y+z): the blockade by
	// y's redefinition and the use of x in the loop condition is an
	// assignment-level problem EM cannot see past (§1.2).
	b3 := g.BlockByName("b3")
	computesYZ := false
	for _, in := range b3.Instrs {
		if in.Kind == ir.KindAssign && in.RHS.Key() == "y+z" {
			computesYZ = true
		}
	}
	if !computesYZ {
		t.Errorf("EM alone removed y+z from the loop — it must not:\n%s", printer.String(g))
	}

	// c+d must be computed only outside the loop: y := c+d in b3 becomes
	// a temp use.
	for _, in := range b3.Instrs {
		if in.Kind == ir.KindAssign && in.RHS.Key() == "c+d" {
			t.Errorf("c+d still computed in the loop:\n%s", printer.String(g))
		}
	}

	env := runningEnvLoop()
	r1 := interp.Run(orig, env, 0)
	r2 := interp.Run(g, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Fatalf("trace changed: %v -> %v", r1.Trace, r2.Trace)
	}
	if r2.Counts.ExprEvals >= r1.Counts.ExprEvals {
		t.Errorf("EM gave no improvement: %d -> %d", r1.Counts.ExprEvals, r2.Counts.ExprEvals)
	}
}

func TestGlobAlgStrictlyBeatsEMOnRunningExample(t *testing.T) {
	gEM := parse.MustParse(running)
	gGlob := parse.MustParse(running)
	run(t, gEM)
	s := analysis.NewSession()
	defer s.Close()
	if _, err := core.Optimize(gGlob, s); err != nil {
		t.Fatal(err)
	}

	env := runningEnvLoop()
	rEM := interp.Run(gEM, env, 0)
	rGlob := interp.Run(gGlob, env, 0)
	if !interp.TraceEqual(rEM, rGlob) {
		t.Fatalf("EM and GlobAlg disagree: %v vs %v", rEM.Trace, rGlob.Trace)
	}
	if rGlob.Counts.ExprEvals >= rEM.Counts.ExprEvals {
		t.Errorf("GlobAlg (%d expr evals) not strictly better than EM (%d) on the loop",
			rGlob.Counts.ExprEvals, rEM.Counts.ExprEvals)
	}
	// Theorem 5.2 is about expression evaluations; for assignments the
	// guarantee is relative optimality, so only require no regression.
	if rGlob.Counts.AssignExecs > rEM.Counts.AssignExecs {
		t.Errorf("GlobAlg (%d assign execs) worse than EM (%d)",
			rGlob.Counts.AssignExecs, rEM.Counts.AssignExecs)
	}
}

func TestLoopInvariantHoisting(t *testing.T) {
	// A do-while-shaped loop: the body executes at least once, so a+b is
	// down-safe at the preheader and the invariant hoists out. (In a
	// zero-trip while-loop neither LCM nor AM may hoist it — the exit
	// path never computes a+b; see TestZeroTripLoopStaysPut.)
	g := parse.MustParse(`
graph loopinv {
  entry pre
  exit post
  block pre { goto body }
  block body {
    x := a + b
    i := i + 1
    if i < 10 then body else post
  }
  block post { out(x, i) }
}
`)
	orig := g.Clone()
	run(t, g)
	g.MustValidate()
	env := map[ir.Var]int64{"a": 3, "b": 4, "i": 0}
	r1 := interp.Run(orig, env, 0)
	r2 := interp.Run(g, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Fatalf("trace changed\n%s", printer.String(g))
	}
	// Original: 10 evaluations of a+b + 10 of i+1. Optimized: 1 + 10.
	if want := r1.Counts.ExprEvals - 9; r2.Counts.ExprEvals != want {
		t.Errorf("expr evals = %d, want %d\n%s", r2.Counts.ExprEvals, want, printer.String(g))
	}
}

func TestZeroTripLoopStaysPut(t *testing.T) {
	// Hoisting a+b above the while-header would compute it on executions
	// that never enter the loop — unsafe, so LCM must leave it inside.
	g := parse.MustParse(`
graph whileloop {
  entry pre
  exit post
  block pre { goto hdr }
  block hdr { if i < 10 then body else post }
  block body {
    x := a + b
    i := i + 1
    goto hdr
  }
  block post { out(x, i) }
}
`)
	run(t, g)
	g.MustValidate()
	// Zero-trip execution must not evaluate a+b.
	r := interp.Run(g, map[ir.Var]int64{"a": 3, "b": 4, "i": 99}, 0)
	if r.Counts.ExprEvals != 0 {
		t.Errorf("zero-trip execution evaluates %d expressions, want 0\n%s",
			r.Counts.ExprEvals, printer.String(g))
	}
}

func TestEMDoesNotTouchPlainAssignments(t *testing.T) {
	// A program with only trivial right-hand sides is EM-invariant up to
	// the (identity) decomposition.
	g := parse.MustParse(`
graph plain {
  entry a
  exit e
  block a {
    x := y
    z := x
    x := y
    goto e
  }
  block e { out(x, z) }
}
`)
	st := run(t, g)
	g.MustValidate()
	if st.Decomposed != 0 {
		t.Errorf("decomposed %d trivial sites", st.Decomposed)
	}
	// The redundant copy x := y survives EM (it is an assignment-level
	// redundancy).
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Key() == "x:=y" {
				n++
			}
		}
	}
	if n != 2 {
		t.Errorf("x := y occurs %d times, want 2 (EM must not eliminate assignments)", n)
	}
}

func TestNoSafetyViolation(t *testing.T) {
	// a+b occurs on one branch only; EM must not compute it on the other.
	g := parse.MustParse(`
graph safety {
  entry s
  exit e
  block s { if c < 0 then l else r }
  block l {
    x := a + b
    goto e
  }
  block r {
    x := 1
    goto e
  }
  block e { out(x) }
}
`)
	run(t, g)
	g.MustValidate()
	r := interp.Run(g, map[ir.Var]int64{"c": 1, "a": 1, "b": 2}, 0)
	if r.Counts.ExprEvals != 0 {
		t.Errorf("safety violated: %d evaluations on the a+b-free path\n%s",
			r.Counts.ExprEvals, printer.String(g))
	}
}

func TestRunIdempotent(t *testing.T) {
	g := parse.MustParse(running)
	run(t, g)
	enc := g.Encode()
	run(t, g)
	if g.Encode() != enc {
		t.Errorf("lcm not idempotent:\n%s\nvs\n%s", enc, g.Encode())
	}
}

// TestRunWithHonoursBudgetAndContext: on a graph whose hoist+eliminate
// loop needs more than one round, a round cap and a canceled context stop
// it with typed errors between rounds, leaving a valid graph.
func TestRunWithHonoursBudgetAndContext(t *testing.T) {
	base := cfggen.Structured(2, cfggen.Config{Size: 40})
	st := run(t, base.Clone())
	if st.Iterations < 2 {
		t.Fatalf("base graph needs %d round(s); the test needs more than one", st.Iterations)
	}

	runWith := func(setup func(*analysis.Session)) (*ir.Graph, error) {
		g := base.Clone()
		s := analysis.NewSession()
		defer s.Close()
		setup(s)
		_, err := Run(g, s)
		if verr := g.Validate(); verr != nil {
			t.Errorf("graph left invalid: %v", verr)
		}
		return g, err
	}
	_, err := runWith(func(s *analysis.Session) { s.SetBudget(fault.Budget{MaxAMIterations: 1}) })
	var be *fault.BudgetError
	if !errors.As(err, &be) || be.Resource != "am iterations" || be.Used != 2 || be.Limit != 1 {
		t.Errorf("round cap: err = %v, want budget exceeded: am iterations 2 > 1", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = runWith(func(s *analysis.Session) { s.SetContext(ctx) })
	if !errors.Is(err, fault.ErrCanceled) {
		t.Errorf("canceled context: err = %v, want %v", err, fault.ErrCanceled)
	}
}
