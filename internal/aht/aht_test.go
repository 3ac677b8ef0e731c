package aht

import (
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
)

// apply is one graph-level hoisting step on a fresh session: it encodes
// g, runs Step restricted to the patterns mask accepts (nil accepts all)
// and writes the result back.
func apply(g *ir.Graph, mask func(ir.AssignPattern) bool) bool {
	s := analysis.NewSession()
	defer s.Close()
	c, done := analysis.Encode(g, s)
	defer done()
	var keep bitvec.Vec
	if mask != nil {
		keep = s.Arena().Vec(c.U.Len())
		for id, p := range c.U.Patterns() {
			if mask(p) {
				keep.Set(id)
			}
		}
	}
	return Step(c, s, keep)
}

func blockKeys(b *ir.Block) []string {
	var out []string
	for _, in := range b.Instrs {
		out = append(out, in.Key())
	}
	return out
}

func hasInstr(b *ir.Block, key string) bool {
	for _, in := range b.Instrs {
		if in.Key() == key {
			return true
		}
	}
	return false
}

func TestHoistWithinBlockToEntry(t *testing.T) {
	// The candidate x := a+b is preceded only by a non-blocking,
	// non-hoistable instruction (out does not move); one application
	// moves the assignment to the block entry.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    out(q)
    x := a + b
    goto e
  }
  block e { out(x, q) }
}
`)
	if !apply(g, nil) {
		t.Fatal("no change reported")
	}
	a := g.BlockByName("a")
	if got := blockKeys(a); got[0] != "x:=a+b" || got[1] != "out(q)" {
		t.Errorf("block a = %v", got)
	}
	// Second application is the identity.
	if apply(g, nil) {
		t.Error("not idempotent")
	}
}

func TestHoistStopsAtBlocker(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    a := 1
    x := a + b
    goto e
  }
  block e { out(x) }
}
`)
	if apply(g, nil) {
		t.Error("hoisted past a := 1 which defines an operand")
	}
}

func TestHoistAcrossBlocks(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    q := 1
    goto m
  }
  block m {
    x := a + b
    goto e
  }
  block e { out(x, q) }
}
`)
	apply(g, nil)
	g.MustValidate()
	a := g.BlockByName("a")
	// q := 1 is itself a candidate inserted at the same point; order among
	// patterns inserted at one point is arbitrary (§4.3.2), so only check
	// membership.
	if !hasInstr(a, "x:=a+b") {
		t.Errorf("block a = %v", blockKeys(a))
	}
	if hasInstr(g.BlockByName("m"), "x:=a+b") {
		t.Error("occurrence not removed from m")
	}
}

func TestFigure2Hoisting(t *testing.T) {
	// Figure 2: 1 → {2,3}; 2 → 4; 3 → {3,4}. x := a+b occurs in 2 and 3;
	// hoisting merges both into node 1, plus a back-edge copy (y := x+y
	// blocks the in-loop hoist) that only rae can remove — the full
	// Figure 2(b) result is asserted in the am package. z := a+b occurs
	// only in 2 and must stay there (the path through 3 lacks it).
	g := parse.MustParse(`
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
  block n4 { out(x, y) }
}
`)
	g.SplitCriticalEdges()
	for apply(g, nil) {
	}
	g.MustValidate()

	n1 := g.BlockByName("n1")
	if !hasInstr(n1, "x:=a+b") {
		t.Errorf("x := a+b not hoisted to n1: %v", blockKeys(n1))
	}
	if hasInstr(n1, "z:=a+b") {
		t.Error("z := a+b wrongly hoisted to n1 (absent on the n3 path)")
	}
	if !hasInstr(g.BlockByName("n2"), "z:=a+b") {
		t.Error("z := a+b lost from n2")
	}
	if hasInstr(g.BlockByName("n2"), "x:=a+b") {
		t.Error("x := a+b still in n2")
	}
	if hasInstr(g.BlockByName("n3"), "x:=a+b") {
		t.Error("x := a+b still in the n3 loop body")
	}
	// Hoisting alone leaves a (redundant) back-edge copy.
	if !hasInstr(g.BlockByName("sn3_n3"), "x:=a+b") {
		t.Error("back-edge copy missing after pure hoisting")
	}
}

func TestNoHoistIntoLoop(t *testing.T) {
	// x := a+b sits below a loop whose body modifies a. The all-paths
	// hoistability condition must keep it below the loop: inserting inside
	// would re-execute it every iteration.
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre { goto hdr }
  block hdr { if i < 10 then body else after }
  block body {
    a := a + 1
    i := i + 1
    goto hdr
  }
  block after {
    x := a + b
    goto e
  }
  block e { out(x) }
}
`)
	g.SplitCriticalEdges()
	for apply(g, nil) {
	}
	g.MustValidate()
	for _, name := range []string{"pre", "hdr", "body"} {
		if hasInstr(g.BlockByName(name), "x:=a+b") {
			t.Errorf("x := a+b moved into/above the loop at %s", name)
		}
	}
	if !hasInstr(g.BlockByName("after"), "x:=a+b") {
		t.Error("x := a+b vanished from after")
	}
}

func TestHoistAcrossTransparentLoop(t *testing.T) {
	// The loop touches neither x nor a nor b, so the occurrence below it
	// crosses the whole loop and lands in pre (profitable motion across a
	// loop, cf. Figure 7).
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre { goto hdr }
  block hdr { if i < 10 then body else after }
  block body {
    i := i + 1
    goto hdr
  }
  block after {
    x := a + b
    goto e
  }
  block e { out(x) }
}
`)
	g.SplitCriticalEdges()
	for apply(g, nil) {
	}
	g.MustValidate()
	if !hasInstr(g.BlockByName("pre"), "x:=a+b") {
		t.Errorf("x := a+b did not cross the loop; pre = %v", blockKeys(g.BlockByName("pre")))
	}
	for _, name := range []string{"hdr", "body", "after"} {
		if hasInstr(g.BlockByName(name), "x:=a+b") {
			t.Errorf("stray occurrence in %s", name)
		}
	}
}

func TestXInsertAtBlockedBlock(t *testing.T) {
	// m uses x (blocking) and the occurrence below must be hoisted to m's
	// exit, not above it.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a { goto m }
  block m {
    out(x)
    goto n
  }
  block n {
    q := 1
    x := a + b
    goto e
  }
  block e { out(x, q) }
}
`)
	for apply(g, nil) {
	}
	g.MustValidate()
	m := g.BlockByName("m")
	keys := blockKeys(m)
	if len(keys) != 2 || keys[0] != "out(x)" || keys[1] != "x:=a+b" {
		t.Errorf("m = %v, want [out(x), x:=a+b]", keys)
	}
	if hasInstr(g.BlockByName("n"), "x:=a+b") {
		t.Error("occurrence not removed from n")
	}
	if hasInstr(g.BlockByName("a"), "x:=a+b") {
		t.Error("hoisted past the out(x) blocker")
	}
}

func TestXInsertAtBranchNodeGoesToSuccessors(t *testing.T) {
	// The branch condition in b uses x, so hoisting x := a+b from both
	// arms stops at b's exit, which (after edge splitting) is realized at
	// the entries of both successors.
	g := parse.MustParse(`
graph g {
  entry b
  exit e
  block b { if x < 0 then l else r }
  block l {
    q := 1
    x := a + b
    goto e
  }
  block r {
    p := 2
    x := a + b
    goto e
  }
  block e { out(x, p, q) }
}
`)
	g.SplitCriticalEdges()
	for apply(g, nil) {
	}
	g.MustValidate()
	l, r := g.BlockByName("l"), g.BlockByName("r")
	if blockKeys(l)[0] != "x:=a+b" {
		t.Errorf("l = %v", blockKeys(l))
	}
	if blockKeys(r)[0] != "x:=a+b" {
		t.Errorf("r = %v", blockKeys(r))
	}
	if hasInstr(g.BlockByName("b"), "x:=a+b") {
		t.Error("hoisted above the condition that reads x")
	}
}

func TestDiamondPartialHoistMerges(t *testing.T) {
	// Occurrence on both arms of a diamond hoists to the branch node
	// (above the condition, which does not mention x, a, or b).
	g := parse.MustParse(`
graph g {
  entry s
  exit e
  block s { if c < 0 then l else r }
  block l { x := a + b
    goto j }
  block r { x := a + b
    goto j }
  block j { goto e }
  block e { out(x) }
}
`)
	for apply(g, nil) {
	}
	g.MustValidate()
	s := g.BlockByName("s")
	if blockKeys(s)[0] != "x:=a+b" {
		t.Errorf("s = %v", blockKeys(s))
	}
	count := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Key() == "x:=a+b" {
				count++
			}
		}
	}
	if count != 1 {
		t.Errorf("x := a+b occurs %d times, want 1", count)
	}
}

func TestAnalyzeInsertPredicates(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    q := 1
    goto m
  }
  block m {
    x := a + b
    goto e
  }
  block e { out(x, q) }
}
`)
	s := analysis.NewSession()
	defer s.Close()
	info := Analyze(g, s)
	p := ir.AssignPattern{LHS: "x", RHS: ir.BinTerm(ir.OpAdd, ir.VarOp("a"), ir.VarOp("b"))}
	id, ok := info.U.ID(p)
	if !ok {
		t.Fatal("pattern missing")
	}
	aID := int(g.BlockByName("a").ID)
	mID := int(g.BlockByName("m").ID)
	eID := int(g.BlockByName("e").ID)
	if !info.NHoistable[mID].Get(id) || !info.NHoistable[aID].Get(id) {
		t.Error("hoistability not propagated to a")
	}
	if info.NHoistable[eID].Get(id) {
		t.Error("hoistable at e despite out(x)")
	}
	if !info.NInsert[aID].Get(id) {
		t.Error("N-INSERT missing at entry block")
	}
	if info.NInsert[mID].Get(id) {
		t.Error("spurious N-INSERT at m")
	}
	if info.XInsert[aID].Get(id) || info.XInsert[mID].Get(id) {
		t.Error("spurious X-INSERT")
	}
}

func TestMaskedApplyRestrictsPatterns(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    q := 1
    goto m
  }
  block m {
    x := a + b
    y := c + d
    goto e
  }
  block e { out(x, y, q) }
}
`)
	changed := apply(g, func(p ir.AssignPattern) bool { return p.Key() == "x:=a+b" })
	if !changed {
		t.Fatal("masked apply did nothing")
	}
	if !hasInstr(g.BlockByName("a"), "x:=a+b") {
		t.Error("masked pattern not hoisted")
	}
	if hasInstr(g.BlockByName("a"), "y:=c+d") {
		t.Error("unmasked pattern hoisted")
	}
	if !hasInstr(g.BlockByName("m"), "y:=c+d") {
		t.Error("unmasked pattern removed")
	}
}
