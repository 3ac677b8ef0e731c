package gvn

import (
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/verify"
)

func instrKeys(g *ir.Graph, name string) []string {
	var out []string
	for _, in := range g.BlockByName(name).Instrs {
		out = append(out, in.Key())
	}
	return out
}

func checkTraces(t *testing.T, orig, xform *ir.Graph) {
	t.Helper()
	if rep := verify.Equivalent(orig, xform, 4, 1); !rep.Equivalent {
		t.Errorf("semantics changed: %s\n%s", rep.Detail, printer.String(xform))
	}
}

// run is Run on a fresh session, failing t on an error.
func run(t *testing.T, g *ir.Graph) int {
	t.Helper()
	s := analysis.NewSession()
	defer s.Close()
	n, _, err := Run(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRecomputationBecomesCopy(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := a + b
    y := a + b
    goto e
  }
  block e { out(x, y) }
}
`)
	orig := g.Clone()
	if n := run(t, g); n == 0 {
		t.Fatal("nothing rewritten")
	}
	if keys := instrKeys(g, "a"); keys[1] != "y:=x" {
		t.Errorf("a = %v", keys)
	}
	checkTraces(t, orig, g)
}

func TestRecomputationIntoSameVarBecomesSkip(t *testing.T) {
	// The second x := a+b cannot change anything: x already holds that value.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := a + b
    out(x)
    x := a + b
    goto e
  }
  block e { out(x) }
}
`)
	orig := g.Clone()
	run(t, g)
	count := 0
	for _, k := range instrKeys(g, "a") {
		if k == "x:=a+b" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("want exactly one computation left, got %d: %v", count, instrKeys(g, "a"))
	}
	checkTraces(t, orig, g)
}

func TestOperandKillBlocksEquivalence(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := a + b
    a := a + 1
    y := a + b
    goto e
  }
  block e { out(x, y) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "a"); keys[2] != "y:=a+b" {
		t.Errorf("unsound rewrite past kill of a: %v", keys)
	}
	checkTraces(t, orig, g)
}

func TestCrossBlockEquivalence(t *testing.T) {
	// The value flows across a block boundary — the availability is global,
	// not per-block.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := a + b
    goto m
  }
  block m {
    out(x)
    y := a + b
    goto e
  }
  block e { out(y) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "m"); keys[1] != "y:=x" {
		t.Errorf("m = %v", keys)
	}
	checkTraces(t, orig, g)
}

func TestDiamondBothSidesCompute(t *testing.T) {
	// Both branches establish x = a+b, so below the join y := a+b is a
	// recomputation — the cross-path case block-local value numbering misses.
	g := parse.MustParse(`
graph g {
  entry s0
  exit e
  block s0 { if c < 0 then l else r }
  block l { x := a + b
    goto j }
  block r { x := a + b
    out(x)
    goto j }
  block j { y := a + b
    goto e }
  block e { out(x, y) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "j"); keys[0] != "y:=x" {
		t.Errorf("join equivalence missed: %v", keys)
	}
	checkTraces(t, orig, g)
}

func TestDiamondOneSideComputes(t *testing.T) {
	// Only one branch computes a+b: the join must drop the equivalence.
	g := parse.MustParse(`
graph g {
  entry s0
  exit e
  block s0 { if c < 0 then l else r }
  block l { x := a + b
    goto j }
  block r { x := 0
    goto j }
  block j { y := a + b
    goto e }
  block e { out(x, y) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "j"); keys[0] != "y:=a+b" {
		t.Errorf("unsound rewrite below one-sided availability: %v", keys)
	}
	checkTraces(t, orig, g)
}

func TestCopyMakesOperandsEquivalent(t *testing.T) {
	// b := a puts a and b in one class, so a+1 and b+1 are the same value —
	// the equivalence syntactic availability (rae, lcm) cannot see.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    b := a
    x := a + 1
    y := b + 1
    goto e
  }
  block e { out(x, y) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "a"); keys[2] != "y:=x" {
		t.Errorf("copy-induced equivalence missed: %v", keys)
	}
	checkTraces(t, orig, g)
}

func TestLoopBackEdgeJoin(t *testing.T) {
	// x := a+b inside the loop with a killed each trip: the back edge join
	// must not pretend the value survives the kill.
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre { goto body }
  block body {
    x := a + b
    a := a + 1
    y := a + b
    if a < 4 then body else e
  }
  block e { out(x, y, a) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "body"); keys[2] != "y:=a+b" {
		t.Errorf("unsound loop rewrite: %v", keys)
	}
	checkTraces(t, orig, g)
}

func TestLoopInvariantValueStable(t *testing.T) {
	// a and b are loop-invariant; x := a+b recomputed each trip after the
	// first is redundant only if the analysis proves x still holds it on the
	// back edge — which it does, so the body copy collapses to skip.
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre {
    x := a + b
    goto body
  }
  block body {
    x := a + b
    i := i + 1
    if i < 4 then body else e
  }
  block e { out(x, i) }
}
`)
	orig := g.Clone()
	run(t, g)
	for _, k := range instrKeys(g, "body") {
		if k == "x:=a+b" {
			t.Errorf("loop-invariant recomputation kept: %v", instrKeys(g, "body"))
		}
	}
	checkTraces(t, orig, g)
}

func TestDeterministicRepresentative(t *testing.T) {
	// Two variables hold the value; the alphabetically first one is chosen,
	// independent of map iteration order.
	src := `
graph g {
  entry a
  exit e
  block a {
    w := a + b
    q := w
    z := a + b
    goto e
  }
  block e { out(w, q, z) }
}
`
	want := ""
	for i := 0; i < 32; i++ {
		g := parse.MustParse(src)
		run(t, g)
		enc := g.Encode()
		if want == "" {
			want = enc
		} else if enc != want {
			t.Fatalf("run %d: nondeterministic output\n--- first\n%s\n--- now\n%s", i, want, enc)
		}
	}
	g := parse.MustParse(src)
	run(t, g)
	if keys := instrKeys(g, "a"); keys[2] != "z:=q" {
		t.Errorf("want alphabetically first representative q, got %v", keys)
	}
}

func TestIdempotentOnGeneratedCorpus(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := cfggen.Structured(seed, cfggen.Config{Size: 12})
		run(t, g)
		enc := g.Encode()
		n := run(t, g)
		if n != 0 {
			t.Errorf("seed %d: second run rewrote %d instructions", seed, n)
		}
		if g.Encode() != enc {
			t.Errorf("seed %d: second run changed the graph", seed)
		}
	}
}

func TestSessionCountersTallied(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := a + b
    y := a + b
    goto e
  }
  block e { out(x, y) }
}
`)
	s := analysis.NewSession()
	defer s.Close()
	replaced, sweeps, err := Run(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if replaced != 1 || sweeps == 0 {
		t.Errorf("replaced=%d sweeps=%d", replaced, sweeps)
	}
	st := s.DataflowStats()
	if st.Solves != 1 || st.Sweeps == 0 || st.Visits == 0 {
		t.Errorf("solver counters not tallied: %+v", st)
	}
}
