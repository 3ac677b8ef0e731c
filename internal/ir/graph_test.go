package ir

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// diamond builds entry → (left | right) → exit with a condition in entry.
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("diamond")
	b.Block("s").Assign("a", ConstTerm(1)).Cond(OpLT, VarTerm("a"), ConstTerm(10))
	b.Block("l").Assign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	b.Block("r").Assign("x", ConstTerm(0))
	b.Block("e").OutVars("x")
	b.Edge("s", "l").Edge("s", "r").Edge("l", "e").Edge("r", "e")
	return b.MustFinish("s", "e")
}

func TestBuilderDiamond(t *testing.T) {
	g := diamond(t)
	if got := len(g.Blocks); got != 4 {
		t.Fatalf("%d blocks, want 4", got)
	}
	if g.EntryBlock().Name != "s" || g.ExitBlock().Name != "e" {
		t.Error("entry/exit misassigned")
	}
	if _, ok := g.EntryBlock().Cond(); !ok {
		t.Error("entry block lost its condition")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTempRegistry(t *testing.T) {
	g := NewGraph("t")
	ab := BinTerm(OpAdd, VarOp("a"), VarOp("b"))
	cd := BinTerm(OpAdd, VarOp("c"), VarOp("d"))
	h1 := g.TempFor(ab)
	h2 := g.TempFor(cd)
	if h1 == h2 {
		t.Fatal("distinct expressions share a temporary")
	}
	if again := g.TempFor(ab); again != h1 {
		t.Errorf("TempFor not stable: %s vs %s", again, h1)
	}
	if e, ok := g.TempExpr(h1); !ok || e.Key() != "a+b" {
		t.Errorf("TempExpr(%s) = %v %v", h1, e, ok)
	}
	if !g.IsTemp(h1) || g.IsTemp("x") {
		t.Error("IsTemp wrong")
	}
	if got := g.Temps(); !reflect.DeepEqual(got, []Var{h1, h2}) {
		t.Errorf("Temps = %v", got)
	}
}

func TestTempForRejectsTrivial(t *testing.T) {
	g := NewGraph("t")
	defer func() {
		if recover() == nil {
			t.Error("TempFor accepted a trivial term")
		}
	}()
	g.TempFor(VarTerm("x"))
}

func TestRegisterTempConflictPanics(t *testing.T) {
	g := NewGraph("t")
	ab := BinTerm(OpAdd, VarOp("a"), VarOp("b"))
	cd := BinTerm(OpAdd, VarOp("c"), VarOp("d"))
	g.RegisterTemp("h7", ab)
	if e, ok := g.TempExpr("h7"); !ok || e.Key() != "a+b" {
		t.Fatal("RegisterTemp did not register")
	}
	// Re-registering the same association is fine.
	g.RegisterTemp("h7", ab)
	defer func() {
		if recover() == nil {
			t.Error("conflicting RegisterTemp did not panic")
		}
	}()
	g.RegisterTemp("h7", cd)
}

func TestCloneIndependence(t *testing.T) {
	g := diamond(t)
	g.TempFor(BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	c := g.Clone()
	if c.Encode() != g.Encode() {
		t.Fatal("clone differs from original")
	}
	// Mutating the clone must not affect the original.
	c.Block(c.Entry).Instrs = append(c.Block(c.Entry).Instrs, Skip())
	c.TempFor(BinTerm(OpMul, VarOp("a"), VarOp("b")))
	if c.Encode() == g.Encode() {
		t.Error("mutating clone changed original encoding")
	}
	if g.IsTemp("h2") {
		t.Error("clone temp leaked into original")
	}
	if !c.IsTemp("h1") {
		t.Error("clone lost temp registry")
	}

	// The clone's blocks share slabs, so growing one block's instructions,
	// successors or predecessors must leave its neighbours and the
	// original alone.
	g = diamond(t)
	c = g.Clone()
	want := blockStates(g)
	for i, b := range c.Blocks {
		before := blockStates(c)
		b.Instrs = append(b.Instrs, NewAssign("z", ConstTerm(int64(i))))
		b.Succs = append(b.Succs, NodeID(i))
		b.Preds = append(b.Preds, NodeID(i))
		after := blockStates(c)
		for j := range after {
			if j != i && after[j] != before[j] {
				t.Errorf("growing clone block %s changed block %s:\n%s\nwas\n%s", b.Name, c.Blocks[j].Name, after[j], before[j])
			}
		}
		if got := blockStates(g); !reflect.DeepEqual(got, want) {
			t.Errorf("growing clone block %s changed the original:\n%v\nwas\n%v", b.Name, got, want)
		}
	}
}

// blockStates renders each block's instructions and edge lists.
func blockStates(g *Graph) []string {
	out := make([]string, len(g.Blocks))
	for i, b := range g.Blocks {
		out[i] = fmt.Sprint(b.Instrs, b.Succs, b.Preds)
	}
	return out
}

func TestNormalize(t *testing.T) {
	g := NewGraph("n")
	b1 := g.AddBlock("b1")
	b2 := g.AddBlock("b2")
	b1.Instrs = []Instr{Skip(), NewAssign("x", ConstTerm(1)), Skip()}
	b2.Instrs = nil
	g.AddEdge(b1.ID, b2.ID)
	g.Entry, g.Exit = b1.ID, b2.ID
	g.Normalize()
	if len(b1.Instrs) != 1 || b1.Instrs[0].Kind != KindAssign {
		t.Errorf("b1 instrs = %v", b1.Instrs)
	}
	if len(b2.Instrs) != 1 || b2.Instrs[0].Kind != KindSkip {
		t.Errorf("b2 instrs = %v", b2.Instrs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// Figure 10: edge (2,3) is critical — node 2 branches, node 3 joins.
	b := NewBuilder("fig10")
	b.Block("n1").Assign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	b.Block("n2").Cond(OpLT, VarTerm("a"), VarTerm("b"))
	b.Block("n3").Assign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	b.Block("n4").OutVars("x")
	b.Edge("n1", "n3").Edge("n2", "n3").Edge("n2", "n4").Edge("n3", "n4")
	// Entry must have no preds: add a fresh entry above n1 and n2.
	b.Block("n0").Cond(OpLT, VarTerm("a"), ConstTerm(0))
	b.Edge("n0", "n1").Edge("n0", "n2")
	g := b.MustFinish("n0", "n4")

	if !g.IsCriticalEdge(g.BlockByName("n2").ID, g.BlockByName("n3").ID) {
		t.Fatal("edge n2->n3 not detected critical")
	}
	// n2->n4 is also critical (n4 has two predecessors).
	n := g.SplitCriticalEdges()
	if n != 2 {
		t.Fatalf("split %d edges, want 2", n)
	}
	g.MustValidate()
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if g.IsCriticalEdge(blk.ID, s) {
				t.Errorf("edge %s->%s still critical", blk.Name, g.Block(s).Name)
			}
		}
	}
	// Idempotence.
	if n := g.SplitCriticalEdges(); n != 0 {
		t.Errorf("second split changed %d edges", n)
	}
}

func TestSplitPreservesBranchOrder(t *testing.T) {
	b := NewBuilder("order")
	b.Block("s").Cond(OpLT, VarTerm("a"), ConstTerm(0))
	b.Block("t1").Assign("x", ConstTerm(1))
	b.Block("e").OutVars("x")
	b.Edge("s", "t1").Edge("s", "e").Edge("t1", "e")
	g := b.MustFinish("s", "e")
	g.SplitCriticalEdges()
	g.MustValidate()
	sb := g.BlockByName("s")
	// The then-successor (position 0) must still lead (via the synthetic
	// node, if any) to t1.
	first := g.Block(sb.Succs[0])
	if first.Name != "t1" && (len(first.Succs) != 1 || g.Block(first.Succs[0]).Name != "t1") {
		t.Errorf("then-branch now reaches %s", first.Name)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	// Condition not in final position.
	g := NewGraph("bad")
	b1 := g.AddBlock("b1")
	b2 := g.AddBlock("b2")
	b3 := g.AddBlock("b3")
	b1.Instrs = []Instr{NewCond(OpLT, VarTerm("a"), VarTerm("b")), NewCond(OpLT, VarTerm("a"), VarTerm("b"))}
	b2.Instrs = []Instr{Skip()}
	b3.Instrs = []Instr{Skip()}
	g.AddEdge(b1.ID, b2.ID)
	g.AddEdge(b1.ID, b3.ID)
	g.AddEdge(b2.ID, b3.ID)
	g.Entry, g.Exit = b1.ID, b3.ID
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "final position") {
		t.Errorf("validate = %v", err)
	}

	// Two successors without a condition.
	b1.Instrs = []Instr{Skip(), Skip()}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Errorf("validate = %v", err)
	}

	// Unregistered temporary.
	b1.Instrs = []Instr{NewAssign("h3", BinTerm(OpAdd, VarOp("a"), VarOp("b"))), NewCond(OpLT, VarTerm("a"), VarTerm("b"))}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unregistered temporary") {
		t.Errorf("validate = %v", err)
	}
	g.RegisterTemp("h3", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	if err := g.Validate(); err != nil {
		t.Errorf("validate after register = %v", err)
	}
}

func TestValidateReachability(t *testing.T) {
	g := NewGraph("unreach")
	b1 := g.AddBlock("b1")
	b2 := g.AddBlock("b2")
	b3 := g.AddBlock("b3") // disconnected
	b1.Instrs = []Instr{Skip()}
	b2.Instrs = []Instr{Skip()}
	b3.Instrs = []Instr{Skip()}
	g.AddEdge(b1.ID, b2.ID)
	g.Entry, g.Exit = b1.ID, b2.ID
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("validate = %v", err)
	}
}

func TestUniverses(t *testing.T) {
	g := diamond(t)
	au := AssignUniverse(g)
	if au.Len() != 3 { // a:=1, x:=a+b, x:=0
		t.Fatalf("assign universe size %d, want 3: %v", au.Len(), au.Patterns())
	}
	p := AssignPattern{LHS: "x", RHS: BinTerm(OpAdd, VarOp("a"), VarOp("b"))}
	if id, ok := au.ID(p); !ok || au.Pattern(id).Key() != "x:=a+b" {
		t.Errorf("ID lookup failed: %v %v", id, ok)
	}
	if _, ok := au.ID(AssignPattern{LHS: "q", RHS: VarTerm("z")}); ok {
		t.Error("found pattern that does not occur")
	}

	eu := ExprUniverse(g)
	if eu.Len() != 1 || eu.Exprs()[0].Key() != "a+b" {
		t.Fatalf("expr universe = %v", eu.Exprs())
	}
}

func TestExprUniverseSeesCondSides(t *testing.T) {
	b := NewBuilder("conds")
	b.Block("s").Cond(OpGT, BinTerm(OpAdd, VarOp("x"), VarOp("z")), BinTerm(OpAdd, VarOp("y"), VarOp("i")))
	b.Block("l").Assign("x", ConstTerm(1))
	b.Block("e").OutVars("x")
	b.Edge("s", "l").Edge("s", "e").Edge("l", "e")
	g := b.MustFinish("s", "e")
	eu := ExprUniverse(g)
	if eu.Len() != 2 {
		t.Fatalf("expr universe = %v, want x+z and y+i", eu.Exprs())
	}
}

func TestCountPatternAndInstrCount(t *testing.T) {
	g := diamond(t)
	p := AssignPattern{LHS: "x", RHS: BinTerm(OpAdd, VarOp("a"), VarOp("b"))}
	if got := g.CountPattern(p); got != 1 {
		t.Errorf("CountPattern = %d", got)
	}
	if got := g.InstrCount(); got != 5 {
		t.Errorf("InstrCount = %d, want 5", got)
	}
}

func TestVarsAndSourceVars(t *testing.T) {
	g := diamond(t)
	want := []Var{"a", "b", "x"}
	if got := g.Vars(); !reflect.DeepEqual(got, want) {
		t.Errorf("Vars = %v, want %v", got, want)
	}
	g.RegisterTemp("h1", BinTerm(OpAdd, VarOp("a"), VarOp("b")))
	g.Block(g.Entry).Instrs = append([]Instr{NewAssign("h1", BinTerm(OpAdd, VarOp("a"), VarOp("b")))}, g.Block(g.Entry).Instrs...)
	if got := g.SourceVars(); !reflect.DeepEqual(got, want) {
		t.Errorf("SourceVars = %v, want %v", got, want)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g1 := diamond(t)
	g2 := diamond(t)
	if g1.Encode() != g2.Encode() {
		t.Error("Encode not deterministic across identical constructions")
	}
}
