package ir

import (
	"fmt"
	"strings"
)

// InstrKind discriminates the instruction forms of the paper's language.
type InstrKind int

const (
	// KindSkip is the empty statement. Assignments x := x are identified
	// with skip (§2), which is what makes the rewrite relation locally
	// confluent (Lemma 3.6).
	KindSkip InstrKind = iota
	// KindAssign is an assignment v := t.
	KindAssign
	// KindOut is a write statement out(a, b, ...).
	KindOut
	// KindCond is a branch condition "t1 ⊲ t2" and must be the last
	// instruction of a node with exactly two successors; control goes to
	// the first successor when the comparison holds, otherwise the second.
	KindCond
)

// Instr is a single instruction. Instructions are value types; passes build
// new instruction slices rather than mutating shared instructions.
type Instr struct {
	Kind InstrKind

	// Assign fields.
	LHS Var
	RHS Term

	// Out fields.
	Args []Operand

	// Cond fields. Each side is a term with at most one operator, so a
	// full condition such as "x+z > y+i" carries up to three operators,
	// exactly as the paper draws it (Figure 4). The initialization phase
	// lifts non-trivial sides into temporaries (Figure 12), and the final
	// flush may inline them back (Figure 15).
	CondOp Op
	CondL  Term
	CondR  Term
}

// Skip returns the empty statement.
func Skip() Instr { return Instr{Kind: KindSkip} }

// NewAssign returns the assignment v := t. The assignment x := x is
// identified with skip (§2), and so is h := h for temporaries.
func NewAssign(v Var, t Term) Instr {
	if t.Trivial() && !t.Args[0].IsConst && t.Args[0].Var == v {
		return Skip()
	}
	return Instr{Kind: KindAssign, LHS: v, RHS: t}
}

// NewOut returns the write statement out(args...).
func NewOut(args ...Operand) Instr {
	return Instr{Kind: KindOut, Args: args}
}

// NewCond returns the branch condition "l op r". It panics if op is not
// relational, which indicates a caller bug.
func NewCond(op Op, l, r Term) Instr {
	if !op.IsRel() {
		panic(fmt.Sprintf("ir: %q is not a relational operator", op))
	}
	return Instr{Kind: KindCond, CondOp: op, CondL: l, CondR: r}
}

// Pattern returns the assignment pattern of an assignment instruction.
// It panics on other kinds (caller bug).
func (in Instr) Pattern() AssignPattern {
	if in.Kind != KindAssign {
		panic("ir: Pattern on non-assignment")
	}
	return AssignPattern{LHS: in.LHS, RHS: in.RHS}
}

// Uses appends every variable read by the instruction to dst and returns it.
// An assignment reads its RHS operands; out reads its arguments; a branch
// condition reads both sides.
func (in Instr) Uses(dst []Var) []Var {
	switch in.Kind {
	case KindAssign:
		dst = in.RHS.Vars(dst)
	case KindOut:
		for _, o := range in.Args {
			if !o.IsConst {
				dst = append(dst, o.Var)
			}
		}
	case KindCond:
		dst = in.CondL.Vars(dst)
		dst = in.CondR.Vars(dst)
	}
	return dst
}

// UsesVar reports whether the instruction reads variable v.
func (in Instr) UsesVar(v Var) bool {
	switch in.Kind {
	case KindAssign:
		return in.RHS.UsesVar(v)
	case KindOut:
		for _, o := range in.Args {
			if !o.IsConst && o.Var == v {
				return true
			}
		}
	case KindCond:
		return in.CondL.UsesVar(v) || in.CondR.UsesVar(v)
	}
	return false
}

// Defs returns the variable written by the instruction, or ("", false).
func (in Instr) Defs() (Var, bool) {
	if in.Kind == KindAssign {
		return in.LHS, true
	}
	return "", false
}

// ModifiesVar reports whether the instruction writes variable v.
func (in Instr) ModifiesVar(v Var) bool {
	return in.Kind == KindAssign && in.LHS == v
}

// Terms appends every term occurring in the instruction to dst and returns
// it: the RHS of an assignment and both sides of a condition. Out arguments
// are operands, not terms.
func (in Instr) Terms(dst []Term) []Term {
	switch in.Kind {
	case KindAssign:
		dst = append(dst, in.RHS)
	case KindCond:
		dst = append(dst, in.CondL, in.CondR)
	}
	return dst
}

// Key returns the canonical spelling of the instruction.
func (in Instr) Key() string { return string(in.appendKey(make([]byte, 0, 64))) }

// appendKey appends the canonical spelling of the instruction to buf. It
// takes a pointer because Instr is large and the canonical serialization
// calls it once per instruction.
func (in *Instr) appendKey(buf []byte) []byte {
	switch in.Kind {
	case KindSkip:
		return append(buf, "skip"...)
	case KindAssign:
		buf = append(buf, in.LHS...)
		buf = append(buf, ":="...)
		return in.RHS.appendKey(buf)
	case KindOut:
		buf = append(buf, "out("...)
		for i, o := range in.Args {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = o.appendKey(buf)
		}
		return append(buf, ')')
	case KindCond:
		buf = in.CondL.appendKey(buf)
		buf = append(buf, in.CondOp...)
		return in.CondR.appendKey(buf)
	}
	panic("ir: unknown instruction kind")
}

// Equal reports structural equality of two instructions.
func (in Instr) Equal(o Instr) bool {
	if in.Kind != o.Kind {
		return false
	}
	switch in.Kind {
	case KindSkip:
		return true
	case KindAssign:
		return in.LHS == o.LHS && in.RHS.Equal(o.RHS)
	case KindOut:
		if len(in.Args) != len(o.Args) {
			return false
		}
		for i := range in.Args {
			if !in.Args[i].Equal(o.Args[i]) {
				return false
			}
		}
		return true
	case KindCond:
		return in.CondOp == o.CondOp && in.CondL.Equal(o.CondL) && in.CondR.Equal(o.CondR)
	}
	return false
}

// String renders the instruction in source syntax for diagnostics.
func (in Instr) String() string {
	switch in.Kind {
	case KindSkip:
		return "skip"
	case KindAssign:
		return fmt.Sprintf("%s := %s", in.LHS, in.RHS)
	case KindOut:
		parts := make([]string, len(in.Args))
		for i, o := range in.Args {
			parts[i] = o.Key()
		}
		return "out(" + strings.Join(parts, ", ") + ")"
	case KindCond:
		return fmt.Sprintf("if %s %s %s", in.CondL, in.CondOp, in.CondR)
	}
	return "<invalid>"
}
