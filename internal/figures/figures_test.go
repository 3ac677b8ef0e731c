package figures

import (
	"reflect"
	"testing"

	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/verify"

	// Registers the passes the tests run by name: emcp, and through its
	// imports em, am, globalg and copyprop.
	_ "assignmentmotion/internal/emcp"
)

// apply runs the registered passes on g in order through one pipeline.
// It panics on an error: the graphs here run without a budget or
// deadline, so only a fixpoint bug can fail.
func apply(g *ir.Graph, names ...string) {
	pl, err := pass.FromNames(names...)
	if err == nil {
		_, err = pl.Run(g)
	}
	if err != nil {
		panic(err)
	}
}

func TestAllFiguresParseValidateRoundTrip(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("only %d figures embedded: %v", len(names), names)
	}
	for _, name := range names {
		g := Load(name)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		g2, err := parse.ParseWith(printer.String(g), parse.Options{AllowTemps: true})
		if err != nil {
			t.Errorf("%s: round trip failed: %v", name, err)
			continue
		}
		if g.Encode() != g2.Encode() {
			t.Errorf("%s: round trip changed graph", name)
		}
	}
}

// checkPreserved asserts semantics preservation on random inputs.
func checkPreserved(t *testing.T, name string, orig, xform *ir.Graph) {
	t.Helper()
	rep := verify.Equivalent(orig, xform, 16, 42)
	if !rep.Equivalent {
		t.Fatalf("%s: semantics changed: %s\n%s", name, rep.Detail, printer.String(xform))
	}
}

func count(g *ir.Graph, key string) int {
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Key() == key {
				n++
			}
		}
	}
	return n
}

func hasInstr(b *ir.Block, key string) bool {
	for _, in := range b.Instrs {
		if in.Key() == key {
			return true
		}
	}
	return false
}

// F7 — Figure 7: motion across an irreducible loop; no motion into the
// first loop; residual partial redundancy at n6.
func TestFigure07Loops(t *testing.T) {
	g := Load("fig07")
	orig := g.Clone()
	apply(g, "am")
	g.MustValidate()

	// n11's occurrence is absorbed across the irreducible loop.
	if hasInstr(g.BlockByName("n11"), "x:=y+z") {
		t.Errorf("x := y+z not moved out of n11:\n%s", printer.String(g))
	}
	// The irreducible loop itself must stay clean.
	for _, name := range []string{"la", "lb"} {
		if hasInstr(g.BlockByName(name), "x:=y+z") {
			t.Errorf("x := y+z moved INTO irreducible loop node %s", name)
		}
	}
	// n6's occurrence remains (partially redundant, but eliminating it
	// would require motion into loop1).
	if !hasInstr(g.BlockByName("n6"), "x:=y+z") {
		t.Errorf("n6 lost its occurrence:\n%s", printer.String(g))
	}
	// loop1's body keeps its (blocked) occurrence and gains nothing.
	body := g.BlockByName("body1")
	if !hasInstr(body, "x:=y+z") || count(g, "x:=y+z") != 2 {
		t.Errorf("loop1 disturbed; occurrences=%d:\n%s", count(g, "x:=y+z"), printer.String(g))
	}
	checkPreserved(t, "fig07", orig, g)
}

// F16 — Figures 16/17: the goals "expression-optimal" and "minimal
// temporary lifetimes / assignment counts" genuinely conflict, so full
// assignment-/temporary-optimality is impossible. GlobAlg picks the
// expression-optimal solution; shortening h1's lifetime by recomputing
// c+d at n6 would cost an extra expression evaluation.
func TestFigure16OptimalityTradeoff(t *testing.T) {
	g := Load("fig16")
	orig := g.Clone()
	apply(g, "globalg")
	g.MustValidate()
	checkPreserved(t, "fig16", orig, g)

	// GlobAlg's result: both n6-paths execute 4 assignments and evaluate
	// 2 expressions; h1 stays live across n3/n4.
	envP1 := map[ir.Var]int64{"p": -1, "q": 5, "a": 1, "b": 2, "c": 3, "d": 4}
	envP2 := map[ir.Var]int64{"p": 5, "q": 5, "a": 1, "b": 2, "c": 3, "d": 4}
	envP5 := map[ir.Var]int64{"p": -1, "q": -5, "a": 1, "b": 2, "c": 3, "d": 4}
	for _, env := range []map[ir.Var]int64{envP1, envP2} {
		r := interp.Run(g, env, 0)
		if r.Counts.ExprEvals != 2 {
			t.Errorf("env %v: expr evals = %d, want 2\n%s", env, r.Counts.ExprEvals, printer.String(g))
		}
		if r.Counts.AssignExecs != 4 {
			t.Errorf("env %v: assign execs = %d, want 4\n%s", env, r.Counts.AssignExecs, printer.String(g))
		}
	}
	// The n5 path must stay lean: one evaluation (c+d), three assignments.
	r5 := interp.Run(g, envP5, 0)
	if r5.Counts.ExprEvals != 1 || r5.Counts.AssignExecs != 3 {
		t.Errorf("n5 path: evals=%d assigns=%d, want 1/3\n%s",
			r5.Counts.ExprEvals, r5.Counts.AssignExecs, printer.String(g))
	}

	// The short-lifetime alternative: keep a := c+d late and direct.
	// It is semantically equal and has strictly smaller temp lifetime,
	// but is NOT expression-optimal — demonstrating the conflict.
	alt := parse.MustParseTemps(`
graph fig16alt {
  entry s
  exit e
  block s { if p < 0 then n1 else n2 }
  block n1 {
    h1 := c + d
    a := h1
    goto n3
  }
  block n2 {
    h1 := c + d
    b := h1
    goto n3
  }
  block n3 { goto n4 }
  block n4 { if q < 0 then n5 else n6 }
  block n5 {
    x := 1
    goto e
  }
  block n6 {
    x := a + b
    a := c + d
    goto e
  }
  block e { out(a, b, x) }
}
`)
	checkPreserved(t, "fig16-alt", orig, alt)
	mGlob, mAlt := metrics.Measure(g), metrics.Measure(alt)
	if mAlt.TempLifetime >= mGlob.TempLifetime {
		t.Errorf("alternative does not shorten lifetimes: %d vs %d", mAlt.TempLifetime, mGlob.TempLifetime)
	}
	rAlt := interp.Run(alt, envP1, 0)
	if rAlt.Counts.ExprEvals <= 2 {
		t.Errorf("alternative unexpectedly expression-optimal (evals=%d); tradeoff demo broken", rAlt.Counts.ExprEvals)
	}
}

// F18/19/20 — Section 6 pragmatics: EM stuck on 3-address code, EM+CP
// recovers the expressions, uniform EM&AM empties the loop and beats both.
func TestFigure18Pragmatics(t *testing.T) {
	base := Load("fig18")
	env := map[ir.Var]int64{"a": 1, "b": 2, "c": 3, "k": 0}

	em := base.Clone()
	apply(em, "em")
	em.MustValidate()

	emcp := base.Clone()
	apply(emcp, "emcp")
	emcp.MustValidate()

	glob := base.Clone()
	apply(glob, "globalg")
	glob.MustValidate()

	for name, g := range map[string]*ir.Graph{"em": em, "emcp": emcp, "glob": glob} {
		checkPreserved(t, "fig18-"+name, base, g)
	}

	rOrig := interp.Run(base, env, 0)
	rEM := interp.Run(em, env, 0)
	rEMCP := interp.Run(emcp, env, 0)
	rGlob := interp.Run(glob, env, 0)

	// Figure 19(b): EM alone leaves t+c in the loop — strictly more
	// evaluations than EM+CP (Figure 20(a)).
	if !(rEM.Counts.ExprEvals < rOrig.Counts.ExprEvals) {
		t.Errorf("EM gave no improvement: %d vs %d", rEM.Counts.ExprEvals, rOrig.Counts.ExprEvals)
	}
	if !(rEMCP.Counts.ExprEvals < rEM.Counts.ExprEvals) {
		t.Errorf("EM+CP (%d evals) not better than EM (%d)", rEMCP.Counts.ExprEvals, rEM.Counts.ExprEvals)
	}
	// Figure 20(b): the uniform algorithm matches EM+CP on expressions
	// and strictly beats it on assignments (the loop is emptied).
	if rGlob.Counts.ExprEvals > rEMCP.Counts.ExprEvals {
		t.Errorf("GlobAlg (%d evals) worse than EM+CP (%d)", rGlob.Counts.ExprEvals, rEMCP.Counts.ExprEvals)
	}
	if !(rGlob.Counts.AssignExecs < rEMCP.Counts.AssignExecs) {
		t.Errorf("GlobAlg (%d assigns) not strictly better than EM+CP (%d)",
			rGlob.Counts.AssignExecs, rEMCP.Counts.AssignExecs)
	}
	if !(rGlob.Counts.AssignExecs < rEM.Counts.AssignExecs) {
		t.Errorf("GlobAlg (%d assigns) not strictly better than EM (%d)",
			rGlob.Counts.AssignExecs, rEM.Counts.AssignExecs)
	}

	// Figure 20(b) literally: the loop body holds only the counter
	// update and the condition.
	n2 := glob.BlockByName("n2")
	for _, in := range n2.Instrs {
		switch in.Key() {
		case "k:=k+1", "k<5", "skip":
		default:
			t.Errorf("loop body not emptied, contains %q:\n%s", in.Key(), printer.String(glob))
		}
	}
}

// TestFiguresGlobAlgAlwaysSafeAndStable covers every embedded figure with
// the full pipeline.
func TestFiguresGlobAlgAlwaysSafeAndStable(t *testing.T) {
	for _, name := range Names() {
		orig := Load(name)
		g := orig.Clone()
		apply(g, "globalg")
		g.MustValidate()
		checkPreserved(t, name, orig, g)
		rep := verify.Equivalent(orig, g, 12, 7)
		if rep.B.ExprEvals > rep.A.ExprEvals {
			t.Errorf("%s: GlobAlg increased expression evaluations %d -> %d",
				name, rep.A.ExprEvals, rep.B.ExprEvals)
		}
	}
}

func TestSourceAndNames(t *testing.T) {
	want := []string{"fig01", "fig02", "fig07", "fig08", "fig10", "fig16", "fig18", "running"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	if src := Source("running"); len(src) == 0 {
		t.Error("empty source")
	}
	defer func() {
		if recover() == nil {
			t.Error("Source on unknown figure did not panic")
		}
	}()
	Source("nope")
}
