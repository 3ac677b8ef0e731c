package mr

import (
	"strings"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/lcm"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/verify"
)

func hasInstr(g *ir.Graph, name, key string) bool {
	for _, in := range g.BlockByName(name).Instrs {
		if in.Key() == key {
			return true
		}
	}
	return false
}

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

// run is Run on a fresh session.
func run(g *ir.Graph) Stats {
	s := analysis.NewSession()
	defer s.Close()
	return Run(g, s)
}

func TestFigure01BusyPlacement(t *testing.T) {
	g := parse.MustParse(fig01)
	orig := g.Clone()
	st := run(g)
	g.MustValidate()
	if st.Inserted != 1 || st.Reloaded != 3 {
		t.Errorf("stats = %+v\n%s", st, printer.String(g))
	}
	// MR realizes exactly the paper's Figure 1(b): h := a+b in node 1.
	if !hasInstr(g, "n1", "h1:=a+b") {
		t.Errorf("no insertion in n1:\n%s", printer.String(g))
	}
	for _, name := range []string{"n2", "n3"} {
		for _, in := range g.BlockByName(name).Instrs {
			if in.Kind == ir.KindAssign && in.RHS.Key() == "a+b" {
				t.Errorf("%s still computes a+b:\n%s", name, printer.String(g))
			}
		}
	}
	rep := verify.Equivalent(orig, g, 12, 3)
	if !rep.Equivalent {
		t.Fatalf("semantics changed: %s", rep.Detail)
	}
	if rep.B.ExprEvals > rep.A.ExprEvals {
		t.Errorf("MR increased evaluations %d -> %d", rep.A.ExprEvals, rep.B.ExprEvals)
	}
	// The left path drops from 2 evaluations to 1.
	left := interp.Run(g, map[ir.Var]int64{"c": -1, "a": 2, "b": 3}, 0)
	if left.Counts.ExprEvals != 1 {
		t.Errorf("left path evals = %d, want 1", left.Counts.ExprEvals)
	}
}

func TestFigure10CriticalEdgeStopsMR(t *testing.T) {
	// MR cannot place code on edges; the partial redundancy behind the
	// critical edge n2->n3 is beyond it, while LCM (with edge splitting)
	// removes it.
	src := `
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
	gMR := parse.MustParse(src)
	gLCM := parse.MustParse(src)
	orig := parse.MustParse(src)
	run(gMR)
	gMR.MustValidate()
	s := analysis.NewSession()
	defer s.Close()
	if _, err := lcm.Run(gLCM, s); err != nil {
		t.Fatal(err)
	}

	envN1 := map[ir.Var]int64{"d": -5, "a": 1, "b": 2} // path n0->n1->n3
	rOrig := interp.Run(orig, envN1, 0)
	rMR := interp.Run(gMR, envN1, 0)
	rLCM := interp.Run(gLCM, envN1, 0)
	if rOrig.Counts.ExprEvals != 2 {
		t.Fatalf("original evals = %d, want 2", rOrig.Counts.ExprEvals)
	}
	if rMR.Counts.ExprEvals != 2 {
		t.Errorf("MR evals = %d, want 2 (stuck on the critical edge)\n%s",
			rMR.Counts.ExprEvals, printer.String(gMR))
	}
	if rLCM.Counts.ExprEvals != 1 {
		t.Errorf("LCM evals = %d, want 1", rLCM.Counts.ExprEvals)
	}
}

func TestZeroTripSafety(t *testing.T) {
	// MR is down-safe: nothing may be computed on the zero-trip path.
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
	run(g)
	g.MustValidate()
	r := interp.Run(g, map[ir.Var]int64{"i": 99, "a": 1, "b": 2}, 0)
	if r.Counts.ExprEvals != 0 {
		t.Errorf("zero-trip path evaluates %d expressions\n%s", r.Counts.ExprEvals, printer.String(g))
	}
}

func TestDoWhileLoopInvariant(t *testing.T) {
	// In a do-while loop MR hoists the invariant like everyone else.
	g := parse.MustParse(`
graph dowhile {
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
	run(g)
	g.MustValidate()
	env := map[ir.Var]int64{"a": 3, "b": 4, "i": 0}
	r1, r2 := interp.Run(orig, env, 0), interp.Run(g, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Fatal("trace changed")
	}
	if want := r1.Counts.ExprEvals - 9; r2.Counts.ExprEvals != want {
		t.Errorf("evals = %d, want %d\n%s", r2.Counts.ExprEvals, want, printer.String(g))
	}
}

func TestSaveAtDownwardExposed(t *testing.T) {
	// The kill forces a save at the recomputation so later uses read h.
	g := parse.MustParse(`
graph save {
  entry a
  exit e
  block a {
    x := p + q
    p := 1
    y := p + q
    goto m
  }
  block m {
    z := p + q
    goto e
  }
  block e { out(x, y, z) }
}
`)
	orig := g.Clone()
	st := run(g)
	g.MustValidate()
	if st.Saved == 0 {
		t.Errorf("no save performed: %+v\n%s", st, printer.String(g))
	}
	rep := verify.Equivalent(orig, g, 12, 7)
	if !rep.Equivalent {
		t.Fatalf("semantics changed: %s\n%s", rep.Detail, printer.String(g))
	}
	// m must no longer recompute p+q.
	for _, in := range g.BlockByName("m").Instrs {
		if in.Kind == ir.KindAssign && !in.RHS.Trivial() {
			t.Errorf("m still computes: %v\n%s", in, printer.String(g))
		}
	}
}

func TestMRSafeOnUnstructuredPrograms(t *testing.T) {
	// Irreducible control flow and critical edges everywhere: MR must stay
	// semantics preserving and never pessimize expression counts.
	for seed := int64(0); seed < 25; seed++ {
		orig := cfggen.Unstructured(seed, cfggen.Config{Size: 12})
		g := orig.Clone()
		run(g)
		g.MustValidate()
		rep := verify.Equivalent(orig, g, 6, seed+9)
		if !rep.Equivalent {
			t.Fatalf("seed %d: MR changed semantics: %s\n%s", seed, rep.Detail, printer.String(g))
		}
		if rep.B.ExprEvals > rep.A.ExprEvals {
			t.Errorf("seed %d: MR increased evaluations %d -> %d", seed, rep.A.ExprEvals, rep.B.ExprEvals)
		}
	}
}

func TestMRBetweenOriginalAndLCM(t *testing.T) {
	// Sampled ordering: LCM <= MR <= original in expression evaluations,
	// everything semantics preserving.
	s := analysis.NewSession()
	defer s.Close()
	for seed := int64(0); seed < 25; seed++ {
		orig := cfggen.Structured(seed, cfggen.Config{Size: 10})
		gMR := orig.Clone()
		run(gMR)
		gMR.MustValidate()
		rep := verify.Equivalent(orig, gMR, 6, seed+1)
		if !rep.Equivalent {
			t.Fatalf("seed %d: MR changed semantics: %s\n%s", seed, rep.Detail, printer.String(gMR))
		}
		if rep.B.ExprEvals > rep.A.ExprEvals {
			t.Errorf("seed %d: MR increased evaluations %d -> %d", seed, rep.A.ExprEvals, rep.B.ExprEvals)
		}

		gLCM := orig.Clone()
		if _, err := lcm.Run(gLCM, s); err != nil {
			t.Fatal(err)
		}
		repL := verify.Equivalent(gMR, gLCM, 6, seed+2)
		if !repL.Equivalent {
			t.Fatalf("seed %d: MR and LCM disagree semantically: %s", seed, repL.Detail)
		}
		if repL.B.ExprEvals > repL.A.ExprEvals {
			t.Errorf("seed %d: LCM (%d evals) worse than MR (%d)", seed, repL.B.ExprEvals, repL.A.ExprEvals)
		}

		gGlob := orig.Clone()
		if _, err := core.Optimize(gGlob, s); err != nil {
			t.Fatal(err)
		}
		repG := verify.Equivalent(gMR, gGlob, 6, seed+3)
		if !repG.Equivalent {
			t.Fatalf("seed %d: MR and GlobAlg disagree semantically: %s", seed, repG.Detail)
		}
		if repG.B.ExprEvals > repG.A.ExprEvals {
			t.Errorf("seed %d: GlobAlg (%d evals) worse than MR (%d)", seed, repG.B.ExprEvals, repG.A.ExprEvals)
		}
	}
}

// TestAvailabilityJustifiedReloadGetsSave is the regression test for the
// demand-analysis fix: the reload in j is justified purely by the
// availability of v2+v2 at p's exit (computed by p's branch condition),
// while PPOUT_p is false because the other arm has no use — the
// PPOUT-based textbook save criterion would leave h uninitialized.
func TestAvailabilityJustifiedReloadGetsSave(t *testing.T) {
	g := parse.MustParse(`
graph avreload {
  entry p
  exit e
  block p { if v2 + v2 == w then j else k }
  block j {
    x := v2 + v2
    goto e
  }
  block k {
    x := 1
    goto e
  }
  block e { out(x) }
}
`)
	orig := g.Clone()
	st := run(g)
	g.MustValidate()
	rep := verify.Equivalent(orig, g, 16, 11)
	if !rep.Equivalent {
		t.Fatalf("miscompiled: %s\n%s", rep.Detail, printer.String(g))
	}
	// If MR performed the reload it must have saved at p.
	if st.Reloaded > 0 && st.Saved == 0 {
		t.Errorf("reload without save: %+v\n%s", st, printer.String(g))
	}
	// And the j path must now evaluate v2+v2 once, not twice.
	r := interp.Run(g, map[ir.Var]int64{"v2": 3, "w": 6}, 0)
	if r.Counts.ExprEvals != 1 {
		t.Errorf("j path evals = %d, want 1\n%s", r.Counts.ExprEvals, printer.String(g))
	}
}

func TestIdempotentOnRedundancyFreeInput(t *testing.T) {
	g := parse.MustParse(`
graph plain {
  entry a
  exit e
  block a {
    x := p + q
    goto e
  }
  block e { out(x) }
}
`)
	enc := g.Encode()
	st := run(g)
	if st.Inserted+st.Reloaded+st.Saved != 0 || g.Encode() != enc {
		t.Errorf("MR changed a redundancy-free program: %+v\n%s", st, printer.String(g))
	}
}

// TestBothConditionSidesSaved is the regression test for a condition both
// of whose sides are saved: b1 and b2 reload a+b and c+d, which b0's
// branch condition computes. The two saves of one instruction are resolved
// together, left side first, so the condition reads both temporaries and
// the output does not depend on map iteration order. Resolved one at a
// time, the second save read the initialization just inserted instead of
// the condition, and the condition kept recomputing that side.
func TestBothConditionSidesSaved(t *testing.T) {
	const src = `
graph tie {
  entry b0
  exit b3
  block b0 { if a + b < c + d then b1 else b2 }
  block b1 {
    x := a + b
    y := c + d
    goto b3
  }
  block b2 {
    x := c + d
    y := a + b
    goto b3
  }
  block b3 { out(x, y) }
}
`
	var first string
	for i := 0; i < 50; i++ {
		orig := parse.MustParse(src)
		g := orig.Clone()
		run(g)
		g.MustValidate()
		out := printer.String(g)
		if i > 0 {
			if out != first {
				t.Fatalf("run %d differs from run 0:\n%s\n--- run 0\n%s", i, out, first)
			}
			continue
		}
		first = out
		var keys []string
		for _, in := range g.BlockByName("b0").Instrs {
			keys = append(keys, in.Key())
		}
		if got, want := strings.Join(keys, "; "), "h1:=a+b; h2:=c+d; h1<h2"; got != want {
			t.Errorf("b0 = %s, want %s\n%s", got, want, out)
		}
		rep := verify.Equivalent(orig, g, 16, 5)
		if !rep.Equivalent {
			t.Fatalf("miscompiled: %s\n%s", rep.Detail, out)
		}
		for _, env := range []map[ir.Var]int64{{"a": 1, "b": 2, "c": 3, "d": 4}, {"a": 5, "b": 2, "c": 3, "d": 1}} {
			if r := interp.Run(g, env, 0); r.Counts.ExprEvals != 2 {
				t.Errorf("env %v: %d evaluations, want 2\n%s", env, r.Counts.ExprEvals, out)
			}
		}
	}
}
