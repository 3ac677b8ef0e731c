package ir

import (
	"strconv"
	"testing"
)

func fpGraph(t *testing.T, name, b1, b2 string) *Graph {
	t.Helper()
	b := NewBuilder(name)
	b.Block(b1).Assign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	b.Block(b1).Cond(OpLT, VarTerm("x"), ConstTerm(4))
	b.Block(b2).Out(VarOp("x"))
	thenB, elseB := b1+"_t", b1+"_e"
	b.Block(thenB).Assign("y", BinTerm(OpMul, VarOp("x"), VarOp("x")))
	b.Block(elseB).Assign("y", VarTerm("x"))
	b.Edge(b1, thenB)
	b.Edge(b1, elseB)
	b.Edge(thenB, b2)
	b.Edge(elseB, b2)
	g, err := b.Finish(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFingerprintIgnoresNames(t *testing.T) {
	a := fpGraph(t, "left", "p", "q")
	b := fpGraph(t, "right", "alpha", "omega")
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("renamed blocks changed the fingerprint:\n%s\n%s", a.Encode(), b.Encode())
	}
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Error("clone changed the fingerprint")
	}
}

func TestFingerprintSeesInstructions(t *testing.T) {
	a := fpGraph(t, "g", "p", "q")
	b := fpGraph(t, "g", "p", "q")
	b.Blocks[0].Instrs[0] = NewAssign("x", BinTerm(OpSub, VarOp("a"), VarOp("b")))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("changed instruction not reflected in fingerprint")
	}
}

func TestFingerprintSeesBranchArmOrder(t *testing.T) {
	a := fpGraph(t, "g", "p", "q")
	b := fpGraph(t, "g", "p", "q")
	// Swapping the successors of the branch swaps then/else semantics.
	blk := b.EntryBlock()
	blk.Succs[0], blk.Succs[1] = blk.Succs[1], blk.Succs[0]
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("swapped branch arms not reflected in fingerprint")
	}
}

func TestFingerprintSeesTempBindings(t *testing.T) {
	mk := func(expr Term) *Graph {
		g := NewGraph("g")
		b1 := g.AddBlock("a")
		b2 := g.AddBlock("b")
		g.Entry, g.Exit = b1.ID, b2.ID
		g.AddEdge(b1.ID, b2.ID)
		g.RegisterTemp("h1", expr)
		b1.Instrs = []Instr{NewAssign("h1", expr), NewAssign("x", VarTerm("h1"))}
		b2.Instrs = []Instr{NewOut(VarOp("x"))}
		return g
	}
	a := mk(BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	b := mk(BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical graphs with identical temp bindings disagree")
	}
	// Same instruction stream, but h1 bound to a different pattern: the
	// phases would treat the two graphs differently.
	c := mk(BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	c.exprByTemp["h1"] = BinTerm(OpMul, VarOp("a"), VarOp("b"))
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("temp binding change not reflected in fingerprint")
	}
}

func TestFingerprintUnreachableBlocks(t *testing.T) {
	mk := func(extra bool) *Graph {
		g := NewGraph("g")
		b1 := g.AddBlock("a")
		b2 := g.AddBlock("b")
		g.Entry, g.Exit = b1.ID, b2.ID
		g.AddEdge(b1.ID, b2.ID)
		b1.Instrs = []Instr{NewAssign("x", ConstTerm(1))}
		b2.Instrs = []Instr{NewOut(VarOp("x"))}
		if extra {
			u := g.AddBlock("island")
			u.Instrs = []Instr{NewAssign("z", ConstTerm(9))}
		}
		return g
	}
	if mk(false).Fingerprint() == mk(true).Fingerprint() {
		t.Error("unreachable block not reflected in fingerprint")
	}
}

// declOrderGraph builds nd diamonds in a row (s → d0 → {a0|b0} → j0 →
// d1 → … → done) with a back edge from the last join to diamond 1. When
// reversed, blocks are declared in the opposite order; the structure,
// and therefore the canonical form, is the same.
func declOrderGraph(t *testing.T, nd int, reversed bool) *Graph {
	t.Helper()
	b := NewBuilder("decl")
	declare := func(i int) {
		n := strconv.Itoa(i)
		b.Block("d"+n).Cond(OpLT, BinTerm(OpAdd, VarOp("u"), VarOp("v")), ConstTerm(7))
		b.Block("a"+n).AssignBin(Var("x"+n), OpAdd, VarOp("p"), VarOp("q"))
		b.Block("b"+n).AssignBin(Var("z"+n), OpSub, VarOp("p"), VarOp("q"))
		b.Block("j"+n).AssignVar(Var("w"+n), Var("x"+n))
		if i == nd-1 {
			b.Block("j"+n).Cond(OpLT, VarTerm(Var("w"+n)), ConstTerm(0))
		}
	}
	if reversed {
		b.Block("done").Out(VarOp("u"))
		for i := nd - 1; i >= 0; i-- {
			declare(i)
		}
		b.Block("s").AssignBin("pre", OpAdd, VarOp("u"), VarOp("v"))
	} else {
		b.Block("s").AssignBin("pre", OpAdd, VarOp("u"), VarOp("v"))
		for i := 0; i < nd; i++ {
			declare(i)
		}
		b.Block("done").Out(VarOp("u"))
	}
	b.Edge("s", "d0")
	for i := 0; i < nd; i++ {
		n := strconv.Itoa(i)
		b.Edge("d"+n, "a"+n)
		b.Edge("d"+n, "b"+n)
		b.Edge("a"+n, "j"+n)
		b.Edge("b"+n, "j"+n)
		next := "done"
		if i < nd-1 {
			next = "d" + strconv.Itoa(i+1)
		}
		b.Edge("j"+n, next)
	}
	b.Edge("j"+strconv.Itoa(nd-1), "d1")
	g, err := b.Finish("s", "done")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFingerprintDeclarationOrderInvariant(t *testing.T) {
	fwd := declOrderGraph(t, 25, false)
	rev := declOrderGraph(t, 25, true)
	if fwd.Fingerprint() != rev.Fingerprint() {
		t.Fatalf("declaration order changed the fingerprint:\n%s\n%s", fwd.Encode(), rev.Encode())
	}
}
