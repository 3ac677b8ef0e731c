package rae

import (
	"strings"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
)

// eliminate is Eliminate, the instruction-level reference, on a fresh
// session.
func eliminate(g *ir.Graph) int {
	s := analysis.NewSession()
	defer s.Close()
	return Eliminate(g, s)
}

// eliminateBlocks is one block-level Step on a fresh session: it encodes
// g, eliminates and writes the result back.
func eliminateBlocks(g *ir.Graph) int {
	s := analysis.NewSession()
	defer s.Close()
	c, done := analysis.Encode(g, s)
	defer done()
	return Step(c, s, bitvec.Vec{})
}

func countPattern(g *ir.Graph, key string) int {
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.KindAssign && in.Pattern().Key() == key {
				n++
			}
		}
	}
	return n
}

func TestStraightLineRedundancy(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    z := y
    y := a + b
    goto e
  }
  block e { out(y, z) }
}
`)
	if n := eliminate(g); n != 1 {
		t.Fatalf("eliminated %d, want 1", n)
	}
	if countPattern(g, "y:=a+b") != 1 {
		t.Errorf("occurrences left: %d", countPattern(g, "y:=a+b"))
	}
}

func TestUseDoesNotKillRedundancy(t *testing.T) {
	// Reading y between the occurrences does not invalidate y = a+b.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    out(y)
    y := a + b
    goto e
  }
  block e { out(y) }
}
`)
	if n := eliminate(g); n != 1 {
		t.Errorf("eliminated %d, want 1", n)
	}
}

func TestOperandKillBlocksRedundancy(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    a := 1
    y := a + b
    goto e
  }
  block e { out(y) }
}
`)
	if n := eliminate(g); n != 0 {
		t.Errorf("eliminated %d, want 0 (a modified in between)", n)
	}
}

func TestLHSKillBlocksRedundancy(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    y := 7
    y := a + b
    goto e
  }
  block e { out(y) }
}
`)
	if n := eliminate(g); n != 0 {
		t.Errorf("eliminated %d, want 0 (y overwritten in between)", n)
	}
}

func TestSelfReferentialNeverRedundant(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := x + 1
    x := x + 1
    goto e
  }
  block e { out(x) }
}
`)
	if n := eliminate(g); n != 0 {
		t.Errorf("eliminated %d, want 0 (x := x+1 is self-referential)", n)
	}
}

func TestDiamondBothPathsRedundant(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry s
  exit e
  block s { if c < 0 then l else r }
  block l { y := a + b
    goto j }
  block r { y := a + b
    goto j }
  block j { y := a + b
    goto e }
  block e { out(y) }
}
`)
	if n := eliminate(g); n != 1 {
		t.Fatalf("eliminated %d, want 1 (join occurrence)", n)
	}
	// The occurrence in j must be the one removed.
	j := g.BlockByName("j")
	for _, in := range j.Instrs {
		if in.Kind == ir.KindAssign {
			t.Errorf("join still contains %v", in)
		}
	}
}

func TestDiamondOnePathNotRedundant(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry s
  exit e
  block s { if c < 0 then l else r }
  block l { y := a + b
    goto j }
  block r { z := 1
    goto j }
  block j { y := a + b
    goto e }
  block e { out(y, z) }
}
`)
	if n := eliminate(g); n != 0 {
		t.Errorf("eliminated %d, want 0 (right path lacks the assignment)", n)
	}
}

func TestLoopInvariantRedundancy(t *testing.T) {
	// The in-loop occurrence is redundant w.r.t. the preheader occurrence
	// because nothing in the loop modifies y, a, or b; the greatest
	// fixpoint must carry redundancy around the back edge.
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre {
    y := a + b
    goto hdr
  }
  block hdr { if i < 10 then body else e }
  block body {
    y := a + b
    i := i + 1
    goto hdr
  }
  block e { out(y) }
}
`)
	if n := eliminate(g); n != 1 {
		t.Errorf("eliminated %d, want 1", n)
	}
	if countPattern(g, "y:=a+b") != 1 {
		t.Error("loop occurrence survived")
	}
}

func TestLoopWithKillNotRedundant(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre {
    y := a + b
    goto hdr
  }
  block hdr { if i < 10 then body else e }
  block body {
    a := a + 1
    y := a + b
    i := i + 1
    goto hdr
  }
  block e { out(y) }
}
`)
	if n := eliminate(g); n != 0 {
		t.Errorf("eliminated %d, want 0 (a changes each iteration)", n)
	}
}

func TestRedundancyThroughOccurrence(t *testing.T) {
	// Three occurrences in a row: the 2nd is redundant via the 1st, the
	// 3rd via either; batch elimination must remove both at once and keep
	// exactly the first.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    y := a + b
    y := a + b
    goto e
  }
  block e { out(y) }
}
`)
	if n := eliminate(g); n != 2 {
		t.Fatalf("eliminated %d, want 2", n)
	}
	if countPattern(g, "y:=a+b") != 1 {
		t.Error("wrong survivor count")
	}
}

func TestCopiesAndConstantsAreEligible(t *testing.T) {
	// rae works on all assignment patterns, including copies x := y and
	// constant assignments.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := y
    z := 5
    x := y
    z := 5
    goto e
  }
  block e { out(x, z) }
}
`)
	if n := eliminate(g); n != 2 {
		t.Errorf("eliminated %d, want 2", n)
	}
}

func TestEliminateEmptiesBlockSafely(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    goto m
  }
  block m {
    y := a + b
    goto e
  }
  block e { out(y) }
}
`)
	if n := eliminate(g); n != 1 {
		t.Fatalf("eliminated %d", n)
	}
	g.MustValidate() // block m must now hold a skip
	m := g.BlockByName("m")
	if len(m.Instrs) != 1 || m.Instrs[0].Kind != ir.KindSkip {
		t.Errorf("m = %v", m.Instrs)
	}
}

func TestAnalyzeVectors(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    z := y
    goto e
  }
  block e { out(z) }
}
`)
	s := analysis.NewSession()
	defer s.Close()
	info := Analyze(g, s)
	p := ir.AssignPattern{LHS: "y", RHS: ir.BinTerm(ir.OpAdd, ir.VarOp("a"), ir.VarOp("b"))}
	id, ok := info.U.ID(p)
	if !ok {
		t.Fatal("pattern missing from universe")
	}
	// At instruction 0 (the occurrence) entry: not redundant; at its
	// exit: redundant; carried through z := y (transparent) and out.
	if info.NRedundant[0].Get(id) {
		t.Error("redundant at entry of its own first occurrence")
	}
	if !info.XRedundant[0].Get(id) {
		t.Error("not redundant at exit of occurrence")
	}
	if !info.NRedundant[1].Get(id) || !info.XRedundant[1].Get(id) {
		t.Error("redundancy not carried through transparent copy")
	}
}

func TestIdempotent(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := a + b
    y := a + b
    goto e
  }
  block e { out(y) }
}
`)
	eliminate(g)
	enc := g.Encode()
	if n := eliminate(g); n != 0 {
		t.Errorf("second pass eliminated %d", n)
	}
	if g.Encode() != enc {
		t.Error("second pass changed program")
	}
}

func TestEncodeSanity(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a { y := a + b
    goto e }
  block e { out(y) }
}
`)
	if !strings.Contains(g.Encode(), "y:=a+b") {
		t.Error("encode misses instruction")
	}
}
