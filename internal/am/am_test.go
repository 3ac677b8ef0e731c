package am

import (
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
)

// run applies f to g on a fresh session and fails t on an error.
func run(t *testing.T, f func(*ir.Graph, *analysis.Session) (Stats, error), g *ir.Graph) Stats {
	t.Helper()
	s := analysis.NewSession()
	defer s.Close()
	st, err := f(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// bounded is Run with its rounds capped at k by the session budget (§7:
// "limit the number of allowed hoisting and elimination steps
// heuristically"). When the cap bites, Run stops with
// fault.ErrBudgetExceeded and leaves g at round k.
func bounded(g *ir.Graph, k int) Stats {
	s := analysis.NewSession()
	defer s.Close()
	s.SetBudget(fault.Budget{MaxAMIterations: k})
	st, _ := Run(g, s)
	return st
}

func hasInstr(b *ir.Block, key string) bool {
	for _, in := range b.Instrs {
		if in.Key() == key {
			return true
		}
	}
	return false
}

func countInstr(g *ir.Graph, key string) int {
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

// checkSemantics runs original and transformed on a few environments and
// compares out-traces.
func checkSemantics(t *testing.T, orig, xform *ir.Graph, envs []map[ir.Var]int64) {
	t.Helper()
	for i, env := range envs {
		r1 := interp.Run(orig, env, 0)
		r2 := interp.Run(xform, env, 0)
		if !interp.TraceEqual(r1, r2) {
			t.Errorf("env %d: trace changed: %v vs %v\n%s", i, r1.Trace, r2.Trace, printer.String(xform))
		}
	}
}

const fig02 = `
graph fig02 {
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
    if y < 100 then n3 else n4
  }
  block n4 { out(x, y, z) }
}
`

func TestFigure02FullAM(t *testing.T) {
	g := parse.MustParse(fig02)
	orig := g.Clone()
	st := run(t, Run, g)
	g.MustValidate()

	if !hasInstr(g.BlockByName("n1"), "x:=a+b") {
		t.Errorf("x := a+b not hoisted to n1:\n%s", printer.String(g))
	}
	if got := countInstr(g, "x:=a+b"); got != 1 {
		t.Errorf("x := a+b occurs %d times, want exactly 1 (loop copy must be eliminated as redundant):\n%s",
			got, printer.String(g))
	}
	if !hasInstr(g.BlockByName("n2"), "z:=a+b") {
		t.Error("z := a+b must stay in n2")
	}
	if st.Iterations < 2 {
		t.Errorf("expected at least 2 iterations (hoist enables elimination), got %d", st.Iterations)
	}

	checkSemantics(t, orig, g, []map[ir.Var]int64{
		{"c": -1, "a": 2, "b": 3},
		{"c": 1, "a": 2, "b": 3, "y": 0},
		{"c": 1, "a": 5, "b": 7, "y": 90},
	})

	// Dynamic win: on the loop path, x := a+b now executes once instead of
	// once per iteration.
	env := map[ir.Var]int64{"c": 1, "a": 2, "b": 3, "y": 0}
	before := interp.Run(orig, env, 0)
	after := interp.Run(g, env, 0)
	if after.Counts.ExprEvals >= before.Counts.ExprEvals {
		t.Errorf("expr evals %d -> %d; expected a strict decrease", before.Counts.ExprEvals, after.Counts.ExprEvals)
	}
}

// Figures 8 and 9: second-order effect that Dhamdhere's restricted AM
// misses. 1 → {2,3} → 4 with
//
//	n2: x := y+z          n3: a := x+y        n4: a := x+y; x := y+z; out(a,x)
const fig08 = `
graph fig08 {
  entry n1
  exit n4
  block n1 { if c < 0 then n2 else n3 }
  block n2 {
    x := y + z
    goto n4
  }
  block n3 {
    a := x + y
    goto n4
  }
  block n4 {
    a := x + y
    x := y + z
    out(a, x)
  }
}
`

func TestFigure08RestrictedAMGetsStuck(t *testing.T) {
	g := parse.MustParse(fig08)
	orig := g.Clone()
	run(t, RunRestricted, g)
	g.MustValidate()

	// Hoisting a := x+y is not immediately profitable (it removes no
	// occurrence of a := x+y), so restricted AM must refuse it, leaving
	// the partially redundant x := y+z in n4 (Figure 8).
	if !hasInstr(g.BlockByName("n4"), "x:=y+z") {
		t.Errorf("restricted AM removed x := y+z from n4 — too aggressive:\n%s", printer.String(g))
	}
	if !hasInstr(g.BlockByName("n4"), "a:=x+y") {
		t.Errorf("restricted AM removed a := x+y from n4:\n%s", printer.String(g))
	}
	checkSemantics(t, orig, g, []map[ir.Var]int64{
		{"c": -1, "x": 1, "y": 2, "z": 3},
		{"c": 1, "x": 1, "y": 2, "z": 3},
	})
}

func TestFigure09UnrestrictedAMSucceeds(t *testing.T) {
	g := parse.MustParse(fig08)
	orig := g.Clone()
	run(t, Run, g)
	g.MustValidate()

	// Figure 9(b): n2 = [x := y+z; a := x+y], n3 = [a := x+y; x := y+z],
	// n4 = [out(a,x)].
	n4 := g.BlockByName("n4")
	if hasInstr(n4, "x:=y+z") || hasInstr(n4, "a:=x+y") {
		t.Errorf("n4 still holds moved assignments:\n%s", printer.String(g))
	}
	n2, n3 := g.BlockByName("n2"), g.BlockByName("n3")
	if !hasInstr(n2, "x:=y+z") || !hasInstr(n2, "a:=x+y") {
		t.Errorf("n2 = %v, want both assignments", n2.Instrs)
	}
	if !hasInstr(n3, "a:=x+y") || !hasInstr(n3, "x:=y+z") {
		t.Errorf("n3 = %v, want both assignments", n3.Instrs)
	}
	if got := countInstr(g, "a:=x+y"); got != 2 {
		t.Errorf("a := x+y occurs %d times, want 2", got)
	}
	if got := countInstr(g, "x:=y+z"); got != 2 {
		t.Errorf("x := y+z occurs %d times, want 2", got)
	}

	envs := []map[ir.Var]int64{
		{"c": -1, "x": 1, "y": 2, "z": 3},
		{"c": 1, "x": 1, "y": 2, "z": 3},
	}
	checkSemantics(t, orig, g, envs)
	// Each path now executes 2 assignments instead of 3.
	for _, env := range envs {
		before := interp.Run(orig, env, 0)
		after := interp.Run(g, env, 0)
		if after.Counts.AssignExecs != 2 || before.Counts.AssignExecs != 3 {
			t.Errorf("assign execs %d -> %d, want 3 -> 2", before.Counts.AssignExecs, after.Counts.AssignExecs)
		}
	}
}

// Figure 10: the partially redundant assignment below a critical edge can
// only be eliminated after the edge is split.
const fig10 = `
graph fig10 {
  entry n0
  exit n4
  block n0 { if d < 0 then n1 else n2 }
  block n1 {
    x := a + b
    goto n3
  }
  block n2 { if d < 10 then n3 else n4 }
  block n3 {
    x := a + b
    goto n4
  }
  block n4 { out(x) }
}
`

func TestFigure10CriticalEdgeSplitting(t *testing.T) {
	g := parse.MustParse(fig10)
	orig := g.Clone()
	st := run(t, Run, g)
	g.MustValidate()
	if st.SplitEdges == 0 {
		t.Error("no critical edges split")
	}
	// n3 must no longer recompute on the path through n1.
	if hasInstr(g.BlockByName("n3"), "x:=a+b") {
		t.Errorf("x := a+b still in n3:\n%s", printer.String(g))
	}
	// The synthetic node on the former critical edge n2→n3 carries it.
	synth := g.BlockByName("sn2_n3")
	if synth == nil || !hasInstr(synth, "x:=a+b") {
		t.Errorf("synthetic node missing the assignment:\n%s", printer.String(g))
	}
	envs := []map[ir.Var]int64{
		{"d": -5, "a": 1, "b": 2},
		{"d": 5, "a": 1, "b": 2},
		{"d": 50, "a": 1, "b": 2},
	}
	checkSemantics(t, orig, g, envs)
	// Path through n1: previously 2 evaluations of a+b, now 1.
	before := interp.Run(orig, map[ir.Var]int64{"d": -5, "a": 1, "b": 2}, 0)
	after := interp.Run(g, map[ir.Var]int64{"d": -5, "a": 1, "b": 2}, 0)
	if before.Counts.ExprEvals != 2 || after.Counts.ExprEvals != 1 {
		t.Errorf("expr evals %d -> %d, want 2 -> 1", before.Counts.ExprEvals, after.Counts.ExprEvals)
	}
	// Path avoiding both assignments must not compute a+b at all.
	after2 := interp.Run(g, map[ir.Var]int64{"d": 50, "a": 1, "b": 2}, 0)
	if after2.Counts.ExprEvals != 0 {
		t.Errorf("unrelated path computes a+b %d times — motion was unsafe", after2.Counts.ExprEvals)
	}
}

func TestRunIsIdempotent(t *testing.T) {
	for _, src := range []string{fig02, fig08, fig10} {
		g := parse.MustParse(src)
		run(t, Run, g)
		enc := g.Encode()
		st := run(t, Run, g)
		if g.Encode() != enc {
			t.Errorf("%s: second Run changed the program", g.Name)
		}
		if st.Eliminated != 0 {
			t.Errorf("%s: second Run eliminated %d", g.Name, st.Eliminated)
		}
	}
}

func TestRestrictedNeverBeatsUnrestricted(t *testing.T) {
	for _, src := range []string{fig02, fig08, fig10} {
		gu := parse.MustParse(src)
		gr := parse.MustParse(src)
		run(t, Run, gu)
		run(t, RunRestricted, gr)
		envs := []map[ir.Var]int64{
			{"c": -1, "d": -5, "a": 1, "b": 2, "x": 3, "y": 4, "z": 5},
			{"c": 1, "d": 5, "a": 1, "b": 2, "x": 3, "y": 4, "z": 5},
			{"c": 1, "d": 50, "a": 1, "b": 2, "x": 3, "y": 90, "z": 5},
		}
		for _, env := range envs {
			ru := interp.Run(gu, env, 0)
			rr := interp.Run(gr, env, 0)
			if ru.Counts.AssignExecs > rr.Counts.AssignExecs {
				t.Errorf("%s env %v: unrestricted executes more assignments (%d > %d)",
					gu.Name, env, ru.Counts.AssignExecs, rr.Counts.AssignExecs)
			}
		}
	}
}
