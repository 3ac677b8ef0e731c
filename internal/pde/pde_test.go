package pde

import (
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/verify"
)

func blockKeys(g *ir.Graph, name string) []string {
	var out []string
	for _, in := range g.BlockByName(name).Instrs {
		out = append(out, in.Key())
	}
	return out
}

func hasInstr(g *ir.Graph, name, key string) bool {
	for _, k := range blockKeys(g, name) {
		if k == key {
			return true
		}
	}
	return false
}

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

// sinkStep is one sinking step on a fresh session and reports whether it
// changed g.
func sinkStep(g *ir.Graph) bool {
	s := analysis.NewSession()
	defer s.Close()
	before := g.Encode()
	sink(g, analysis.NewBlockView(g), s)
	return g.Encode() != before
}

func TestClassicPartiallyDead(t *testing.T) {
	// x := a+b is used on the left arm only and overwritten on the right:
	// pde sinks it into the left arm and dce kills the right-arm copy.
	g := parse.MustParse(`
graph g {
  entry s
  exit e
  block s {
    x := a + b
    if c < 0 then l else r
  }
  block l {
    out(x)
    goto e
  }
  block r {
    x := 1
    goto e
  }
  block e { out(x) }
}
`)
	orig := g.Clone()
	st := run(t, g)
	g.MustValidate()
	if hasInstr(g, "s", "x:=a+b") {
		t.Errorf("assignment not sunk out of s:\n%s", printer.String(g))
	}
	if !hasInstr(g, "l", "x:=a+b") {
		t.Errorf("assignment missing from the using arm:\n%s", printer.String(g))
	}
	if hasInstr(g, "r", "x:=a+b") {
		t.Errorf("dead copy survived on the right arm:\n%s", printer.String(g))
	}
	if st.Removed == 0 {
		t.Errorf("stats = %+v, expected dead removals", st)
	}
	// The right path no longer computes a+b.
	right := interp.Run(g, map[ir.Var]int64{"c": 1, "a": 3, "b": 4}, 0)
	if right.Counts.ExprEvals != 0 {
		t.Errorf("right path evaluates %d expressions, want 0", right.Counts.ExprEvals)
	}
	rep := verify.Equivalent(orig, g, 12, 5)
	if !rep.Equivalent {
		t.Errorf("semantics changed (total semantics): %s", rep.Detail)
	}
}

func TestSinkStopsAtUse(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := a0 + b0
    q := 1
    out(x)
    goto e
  }
  block e { out(q) }
}
`)
	sinkStep(g)
	g.MustValidate()
	keys := blockKeys(g, "a")
	// x := a0+b0 may move past q := 1 but not past out(x).
	idxAssign, idxOut := -1, -1
	for i, k := range keys {
		if k == "x:=a0+b0" {
			idxAssign = i
		}
		if k == "out(x)" {
			idxOut = i
		}
	}
	if idxAssign == -1 || idxOut == -1 || idxAssign > idxOut {
		t.Errorf("a = %v", keys)
	}
}

func TestSinkAcrossTransparentBlocks(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := a0 + b0
    goto m
  }
  block m {
    q := 1
    goto u
  }
  block u {
    out(x)
    goto e
  }
  block e { out(q) }
}
`)
	orig := g.Clone()
	for sinkStep(g) {
	}
	g.MustValidate()
	if hasInstr(g, "a", "x:=a0+b0") || hasInstr(g, "m", "x:=a0+b0") {
		t.Errorf("not sunk to the use:\n%s", printer.String(g))
	}
	if got := blockKeys(g, "u"); got[0] != "x:=a0+b0" {
		t.Errorf("u = %v", got)
	}
	rep := verify.Equivalent(orig, g, 10, 3)
	if !rep.Equivalent {
		t.Errorf("semantics changed: %s", rep.Detail)
	}
}

func TestSinkStopsBeforeJoinWithForeignPath(t *testing.T) {
	// The join j is reached from r without the assignment; sinking must
	// stop at l's exit, not enter j.
	g := parse.MustParse(`
graph g {
  entry s
  exit e
  block s { if c < 0 then l else r }
  block l {
    x := a0 + b0
    out(w)
    goto j
  }
  block r {
    x := 2
    goto j
  }
  block j {
    out(x)
    goto e
  }
  block e { out(w) }
}
`)
	orig := g.Clone()
	for sinkStep(g) {
	}
	g.MustValidate()
	if hasInstr(g, "j", "x:=a0+b0") {
		t.Errorf("assignment pushed into the join:\n%s", printer.String(g))
	}
	// out(w) cannot move, so the sunk assignment must land after it, at
	// the arm exit.
	if got := blockKeys(g, "l"); got[len(got)-1] != "x:=a0+b0" || got[0] != "out(w)" {
		t.Errorf("l = %v (assignment should sink to the arm exit)", got)
	}
	rep := verify.Equivalent(orig, g, 10, 3)
	if !rep.Equivalent {
		t.Errorf("semantics changed: %s", rep.Detail)
	}
}

func TestSinkIntoBranchArms(t *testing.T) {
	// The assignment is used in both arms; sinking distributes it onto
	// both (post-split) edges.
	g := parse.MustParse(`
graph g {
  entry s
  exit e
  block s {
    x := a0 + b0
    if c < 0 then l else r
  }
  block l {
    out(x)
    goto e
  }
  block r {
    y := x
    goto e
  }
  block e { out(y) }
}
`)
	orig := g.Clone()
	g.SplitCriticalEdges()
	for sinkStep(g) {
	}
	g.MustValidate()
	if hasInstr(g, "s", "x:=a0+b0") {
		t.Errorf("assignment stayed above the branch:\n%s", printer.String(g))
	}
	total := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Key() == "x:=a0+b0" {
				total++
			}
		}
	}
	if total != 2 {
		t.Errorf("assignment occurs %d times, want 2 (one per arm)\n%s", total, printer.String(g))
	}
	rep := verify.Equivalent(orig, g, 10, 3)
	if !rep.Equivalent {
		t.Errorf("semantics changed: %s", rep.Detail)
	}
}

func TestNoSinkIntoLoop(t *testing.T) {
	// The dual of fatal hoisting into loops: sinking an assignment from
	// above a loop into its body would re-execute it per iteration; the
	// all-paths condition must keep it above.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := a0 + b0
    k := 0
    goto hdr
  }
  block hdr { if k < 3 then body else after }
  block body {
    k := k + 1
    out(x)
    goto hdr
  }
  block after { goto e }
  block e { out(x, k) }
}
`)
	orig := g.Clone()
	st := run(t, g)
	g.MustValidate()
	env := map[ir.Var]int64{"a0": 2, "b0": 3}
	r1, r2 := interp.Run(orig, env, 0), interp.Run(g, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Fatalf("trace changed:\n%s", printer.String(g))
	}
	if r2.Counts.ExprEvals > r1.Counts.ExprEvals {
		t.Errorf("pde increased evaluations %d -> %d (sank into loop?)\niters=%d\n%s",
			r1.Counts.ExprEvals, r2.Counts.ExprEvals, st.Iterations, printer.String(g))
	}
}

func TestRunStableAndSafeOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		orig := cfggen.Structured(seed, cfggen.Config{Size: 10})
		g := orig.Clone()
		run(t, g)
		g.MustValidate()
		// Under total semantics pde must preserve traces.
		rep := verify.Equivalent(orig, g, 6, seed+2)
		if !rep.Equivalent {
			t.Fatalf("seed %d: semantics changed: %s\n%s", seed, rep.Detail, printer.String(g))
		}
		// And never increase dynamic cost.
		if rep.B.AssignExecs > rep.A.AssignExecs {
			t.Errorf("seed %d: assignments increased %d -> %d", seed, rep.A.AssignExecs, rep.B.AssignExecs)
		}
		// Stability.
		enc := g.Encode()
		run(t, g)
		if g.Encode() != enc {
			t.Errorf("seed %d: pde not idempotent", seed)
		}
	}
}
