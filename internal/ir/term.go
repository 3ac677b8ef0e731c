// Package ir defines the flow-graph intermediate representation of the
// paper "The Power of Assignment Motion" (Knoop/Rüthing/Steffen, PLDI 1995):
// directed flow graphs G = (N, E, s, e) whose nodes are basic blocks of
// 3-address instructions — assignments v := t, write statements out(...),
// and branch conditions — together with the assignment- and expression-
// pattern universes the paper's bit-vector analyses range over.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Var is a program variable. Temporaries h_ε are Vars with a reserved
// spelling (see Graph.TempFor and IsTempName).
type Var string

// Op is a binary operator symbol. Arithmetic operators appear in terms;
// relational operators appear only in branch conditions.
type Op string

// Arithmetic operators permitted in terms.
const (
	OpAdd Op = "+"
	OpSub Op = "-"
	OpMul Op = "*"
	OpDiv Op = "/"
	OpRem Op = "%"
)

// Relational operators permitted in branch conditions.
const (
	OpLT Op = "<"
	OpLE Op = "<="
	OpGT Op = ">"
	OpGE Op = ">="
	OpEQ Op = "=="
	OpNE Op = "!="
)

// IsArith reports whether o is an arithmetic term operator.
func (o Op) IsArith() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem:
		return true
	}
	return false
}

// IsRel reports whether o is a relational (branch condition) operator.
func (o Op) IsRel() bool {
	switch o {
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		return true
	}
	return false
}

// Operand is a variable or an integer constant.
type Operand struct {
	IsConst bool
	Var     Var   // valid iff !IsConst
	Const   int64 // valid iff IsConst
}

// VarOp returns an operand referring to variable v.
func VarOp(v Var) Operand { return Operand{Var: v} }

// ConstOp returns a constant operand with value c.
func ConstOp(c int64) Operand { return Operand{IsConst: true, Const: c} }

// Key returns the canonical spelling of the operand.
func (o Operand) Key() string { return string(o.appendKey(make([]byte, 0, 24))) }

// appendKey appends the canonical spelling of the operand to buf.
func (o Operand) appendKey(buf []byte) []byte {
	if o.IsConst {
		return strconv.AppendInt(buf, o.Const, 10)
	}
	return append(buf, o.Var...)
}

// Equal reports structural equality.
func (o Operand) Equal(p Operand) bool { return o == p }

// Term is a 3-address right-hand side: either a single operand (a "trivial"
// term, Op == "") or a binary application op(Args[0], Args[1]) with exactly
// one operator symbol, as the paper assumes throughout (§2, §6).
type Term struct {
	Op   Op
	Args [2]Operand // Args[0] only for trivial terms
}

// OperandTerm returns the trivial term consisting of o alone.
func OperandTerm(o Operand) Term { return Term{Args: [2]Operand{o}} }

// VarTerm returns the trivial term consisting of variable v.
func VarTerm(v Var) Term { return OperandTerm(VarOp(v)) }

// ConstTerm returns the trivial term consisting of constant c.
func ConstTerm(c int64) Term { return OperandTerm(ConstOp(c)) }

// BinTerm returns the term op(a, b). It panics if op is not arithmetic,
// which always indicates a bug in the caller, never bad user input.
func BinTerm(op Op, a, b Operand) Term {
	if !op.IsArith() {
		panic(fmt.Sprintf("ir: %q is not an arithmetic operator", op))
	}
	return Term{Op: op, Args: [2]Operand{a, b}}
}

// Trivial reports whether t contains no operator (a lone operand).
// Non-trivial terms are exactly the paper's expression patterns.
func (t Term) Trivial() bool { return t.Op == "" }

// Operands returns the operands of t (one for trivial terms, two otherwise).
func (t Term) Operands() []Operand {
	if t.Trivial() {
		return []Operand{t.Args[0]}
	}
	return []Operand{t.Args[0], t.Args[1]}
}

// Vars appends the variables occurring in t to dst and returns it.
func (t Term) Vars(dst []Var) []Var {
	for _, o := range t.Operands() {
		if !o.IsConst {
			dst = append(dst, o.Var)
		}
	}
	return dst
}

// UsesVar reports whether variable v occurs in t.
func (t Term) UsesVar(v Var) bool {
	for _, o := range t.Operands() {
		if !o.IsConst && o.Var == v {
			return true
		}
	}
	return false
}

// Key returns the canonical spelling of t, e.g. "a+b", "a", "3".
// Keys identify expression patterns: two terms denote the same pattern
// iff their keys are equal (patterns are syntactic; a+b and b+a differ).
func (t Term) Key() string { return string(t.appendKey(make([]byte, 0, 48))) }

// appendKey appends the canonical spelling of t to buf.
func (t Term) appendKey(buf []byte) []byte {
	buf = t.Args[0].appendKey(buf)
	if t.Trivial() {
		return buf
	}
	buf = append(buf, t.Op...)
	return t.Args[1].appendKey(buf)
}

// Equal reports structural equality.
func (t Term) Equal(u Term) bool { return t == u }

// String renders t for diagnostics; identical to Key.
func (t Term) String() string { return t.Key() }

// AssignPattern is the paper's assignment pattern α ≡ v := t: the pair of a
// left-hand-side variable and a right-hand-side term. Occurrences of the
// same pattern anywhere in a program are instances of one bit in the
// bit-vector analyses.
type AssignPattern struct {
	LHS Var
	RHS Term
}

// Key returns the canonical spelling "v:=t".
func (p AssignPattern) Key() string { return string(p.LHS) + ":=" + p.RHS.Key() }

// String renders the pattern for diagnostics.
func (p AssignPattern) String() string { return string(p.LHS) + " := " + p.RHS.Key() }

// SelfReferential reports whether the LHS occurs among the RHS operands
// (e.g. x := x+1). Such patterns are never redundant and never available
// across their own occurrences (side condition of Table 2).
func (p AssignPattern) SelfReferential() bool { return p.RHS.UsesVar(p.LHS) }

// tempPrefix is the reserved spelling prefix of generated temporaries h_ε.
const tempPrefix = "h"

// IsTempName reports whether v is spelled like a generated temporary
// ("h" followed by one or more digits). The parser rejects such names in
// source programs so the spelling uniquely identifies temporaries.
func IsTempName(v Var) bool {
	s := string(v)
	if !strings.HasPrefix(s, tempPrefix) || len(s) == len(tempPrefix) {
		return false
	}
	for _, r := range s[len(tempPrefix):] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
