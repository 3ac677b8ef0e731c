package ir

import (
	"strings"
	"testing"
)

func TestBuilderHelperMethods(t *testing.T) {
	b := NewBuilder("helpers")
	b.Block("a").
		AssignVar("x", "y").
		AssignBin("z", OpMul, VarOp("x"), ConstOp(3)).
		Instr(NewOut(VarOp("z")))
	b.Block("e").OutVars("x", "z")
	b.Edge("a", "e")
	g := b.MustFinish("a", "e")
	keys := make([]string, 0, 3)
	for _, in := range g.BlockByName("a").Instrs {
		keys = append(keys, in.Key())
	}
	want := []string{"x:=y", "z:=x*3", "out(z)"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestBuilderFinishErrors(t *testing.T) {
	b := NewBuilder("bad")
	b.Block("a").Assign("x", ConstTerm(1))
	b.Block("e").OutVars("x")
	b.Edge("a", "e")
	if _, err := b.Finish("nope", "e"); err == nil || !strings.Contains(err.Error(), "unknown entry") {
		t.Errorf("err = %v", err)
	}
	if _, err := b.Finish("a", "nope"); err == nil || !strings.Contains(err.Error(), "unknown exit") {
		t.Errorf("err = %v", err)
	}
}

func TestBuilderMustFinishPanics(t *testing.T) {
	b := NewBuilder("bad")
	b.Block("a").Assign("x", ConstTerm(1))
	defer func() {
		if recover() == nil {
			t.Error("MustFinish did not panic on invalid graph")
		}
	}()
	b.MustFinish("a", "missing")
}

func TestInstrStringForms(t *testing.T) {
	cases := map[string]Instr{
		"skip":          Skip(),
		"x := a+b":      NewAssign("x", BinTerm(OpAdd, VarOp("a"), VarOp("b"))),
		"out(x, 3)":     NewOut(VarOp("x"), ConstOp(3)),
		"if a < b":      NewCond(OpLT, VarTerm("a"), VarTerm("b")),
		"if a+1 >= b*2": NewCond(OpGE, BinTerm(OpAdd, VarOp("a"), ConstOp(1)), BinTerm(OpMul, VarOp("b"), ConstOp(2))),
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if got := VarTerm("q").String(); got != "q" {
		t.Errorf("term String = %q", got)
	}
}

func TestPatternPanicsOnNonAssign(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pattern on out did not panic")
		}
	}()
	NewOut(VarOp("x")).Pattern()
}

func TestNewCondPanicsOnArith(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCond accepted an arithmetic operator")
		}
	}()
	NewCond(OpAdd, VarTerm("a"), VarTerm("b"))
}

func TestInstrEqualCrossKind(t *testing.T) {
	a := NewAssign("x", VarTerm("y"))
	c := NewCond(OpLT, VarTerm("x"), VarTerm("y"))
	o := NewOut(VarOp("x"))
	s := Skip()
	ins := []Instr{a, c, o, s}
	for i := range ins {
		for j := range ins {
			if (i == j) != ins[i].Equal(ins[j]) {
				t.Errorf("Equal(%v, %v) wrong", ins[i], ins[j])
			}
		}
	}
	// Same kind, different payloads.
	if NewCond(OpLT, VarTerm("x"), VarTerm("y")).Equal(NewCond(OpLT, VarTerm("x"), VarTerm("z"))) {
		t.Error("different conds equal")
	}
}

func TestExprSetAccessors(t *testing.T) {
	g := NewGraph("u")
	b := g.AddBlock("a")
	ab := BinTerm(OpAdd, VarOp("a"), VarOp("b"))
	b.Instrs = []Instr{NewAssign("x", ab), NewCond(OpLT, VarTerm("x"), ConstTerm(9))}
	eu := ExprUniverse(g)
	if eu.Len() != 1 {
		t.Fatalf("len = %d", eu.Len())
	}
	if id, ok := eu.ID(ab); !ok || eu.Expr(id).Key() != "a+b" {
		t.Errorf("ID/Expr wrong")
	}
	if _, ok := eu.ID(BinTerm(OpMul, VarOp("a"), VarOp("b"))); ok {
		t.Error("found absent expression")
	}
	defer func() {
		if recover() == nil {
			t.Error("Intern accepted a trivial term")
		}
	}()
	eu.Intern(VarTerm("x"))
}

func TestPatternSetAccessors(t *testing.T) {
	u := &PatternSet{}
	if _, ok := u.ID(AssignPattern{LHS: "x", RHS: VarTerm("y")}); ok || u.Len() != 0 {
		t.Fatal("zero value is not an empty set")
	}
	g := NewGraph("p")
	b := g.AddBlock("a")
	b.Instrs = []Instr{NewAssign("x", VarTerm("y")), NewAssign("x", VarTerm("y"))}
	u = AssignUniverse(g)
	if u.Len() != 1 {
		t.Fatalf("len = %d", u.Len())
	}
	if u.PatternAt(0).Key() != "x:=y" || u.Pattern(0).Key() != "x:=y" {
		t.Error("accessors disagree")
	}
	if len(u.Patterns()) != 1 {
		t.Error("Patterns wrong")
	}
}
