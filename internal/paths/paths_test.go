package paths

import (
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"

	// Registers the passes the tests run by name: mr, and em with, through
	// its imports, init, am, am-restricted and globalg.
	_ "assignmentmotion/internal/lcm"
	_ "assignmentmotion/internal/mr"
)

const diamond = `
graph d {
  entry s
  exit e
  block s { if c < 0 then l else r }
  block l {
    x := a + b
    z := a + b
    goto e
  }
  block r {
    x := 1
    goto e
  }
  block e { out(x, z) }
}
`

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

func TestWalkCountsPerPath(t *testing.T) {
	g := parse.MustParse(diamond)
	left, ok := Walk(g, []bool{true}, 0)
	if !ok {
		t.Fatal("walk bound hit")
	}
	if left.Expressions != 2 || left.Assignments != 2 || left.Blocks != 3 {
		t.Errorf("left = %+v", left)
	}
	right, _ := Walk(g, []bool{false}, 0)
	if right.Expressions != 0 || right.Assignments != 1 {
		t.Errorf("right = %+v", right)
	}
	// Missing decisions default to false (the right arm).
	def, _ := Walk(g, nil, 0)
	if def != right {
		t.Errorf("default walk = %+v, want %+v", def, right)
	}
}

func TestWalkBoundOnCycle(t *testing.T) {
	g := parse.MustParse(`
graph loop {
  entry a
  exit e
  block a { goto b }
  block b { if x < 1 then b else e }
  block e { out(x) }
}
`)
	// Always taking the first successor loops forever; the bound fires.
	if _, ok := Walk(g, []bool{true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true}, 8); ok {
		t.Error("cyclic walk terminated unexpectedly")
	}
	// Exiting immediately works.
	if _, ok := Walk(g, []bool{false}, 8); !ok {
		t.Error("exit path did not terminate")
	}
}

func TestAcyclic(t *testing.T) {
	if !Acyclic(parse.MustParse(diamond)) {
		t.Error("diamond reported cyclic")
	}
	g := parse.MustParse(`
graph loop {
  entry a
  exit e
  block a { goto b }
  block b { if x < 1 then b else e }
  block e { out(x) }
}
`)
	if Acyclic(g) {
		t.Error("loop reported acyclic")
	}
}

func TestEnumerate(t *testing.T) {
	g := parse.MustParse(diamond)
	decs := Enumerate(g, 0)
	if len(decs) != 2 {
		t.Fatalf("paths = %v", decs)
	}
	// Nested diamonds multiply.
	g2 := cfggen.Structured(3, cfggen.Config{Size: 6, NoLoops: true})
	if !Acyclic(g2) {
		t.Fatal("NoLoops produced a cycle")
	}
	decs2 := Enumerate(g2, 0)
	if len(decs2) == 0 {
		t.Fatal("no paths enumerated")
	}
	// Every enumerated decision string must reach the exit.
	for _, d := range decs2 {
		if _, ok := Walk(g2, d, 0); !ok {
			t.Errorf("decisions %v did not reach the exit", d)
		}
	}
}

func TestEnumeratePanicsOnCycle(t *testing.T) {
	g := parse.MustParse(`
graph loop {
  entry a
  exit e
  block a { goto b }
  block b { if x < 1 then b else e }
  block e { out(x) }
}
`)
	defer func() {
		if recover() == nil {
			t.Error("no panic on cyclic graph")
		}
	}()
	Enumerate(g, 0)
}

// TestAllPathsExpressionOptimality is the exact (non-sampled) Theorem 5.2
// check on loop-free programs: on EVERY path, the global algorithm's
// result evaluates at most as many expressions as the original and as
// every EM/AM-universe rival.
func TestAllPathsExpressionOptimality(t *testing.T) {
	rivals := []string{"original", "mr", "em", "am", "am-restricted"}
	for seed := int64(0); seed < 30; seed++ {
		base := cfggen.Structured(seed, cfggen.Config{Size: 9, NoLoops: true})
		glob := base.Clone()
		apply(glob, "globalg")
		for _, name := range rivals {
			rival := base.Clone()
			if name != "original" {
				apply(rival, name)
			}
			ok, detail := DominatesOnAllPaths(glob, rival, 4096)
			if !ok {
				t.Errorf("seed %d: globalg not path-dominant over %s: %s\nglob:\n%srival:\n%s",
					seed, name, detail, printer.String(glob), printer.String(rival))
			}
		}
	}
}

// TestAllPathsTempDominance: on every path, the flushed result uses at
// most as many temporary assignments as the unflushed one.
func TestAllPathsTempDominance(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		busy := cfggen.Structured(seed, cfggen.Config{Size: 9, NoLoops: true})
		apply(busy, "init", "am")
		lazy := busy.Clone()
		apply(lazy, "globalg") // includes the flush
		for _, d := range Enumerate(busy, 4096) {
			cb, okb := Walk(busy, d, 0)
			cl, okl := Walk(lazy, d, 0)
			if !okb || !okl {
				t.Fatalf("seed %d: walk bound hit", seed)
			}
			if cl.TempAssignments > cb.TempAssignments {
				t.Errorf("seed %d decisions %v: flush increased temp assignments %d -> %d",
					seed, d, cb.TempAssignments, cl.TempAssignments)
			}
		}
	}
}
