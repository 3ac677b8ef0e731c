// Package copyprop implements unified global copy AND constant
// propagation: uses of a variable v are replaced by w — a variable or an
// integer literal — wherever the copy v := w is available on every path
// (v = w is guaranteed to hold), and terms whose operands have all become
// literals are folded in the same fixpoint.
//
// The unification follows Sreekala & Paleri, "Copy Propagation subsumes
// Constant Propagation" (arXiv:2207.03894): a constant assignment v := 7 is
// just a copy whose source happens to be a literal, so one availability
// lattice over copy patterns v := o (o a variable or literal) performs both
// propagations, and folding a fully-literal term re-creates a literal copy
// that feeds the next round. Section 6 of the source paper discusses EM
// interleaved with copy propagation (cf. [8]) as the usual workaround for
// 3-address decomposition blocking expression motion (Figure 20(a)); this
// package provides that baseline, now subsuming the constant variant.
//
// Folding uses the interpreter's arithmetic; division and remainder with a
// literal zero divisor are deliberately NOT folded, so the transformation
// is semantics-preserving under both the default total semantics and the
// trapping semantics of interp.Options.TrapOnDivZero.
package copyprop

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "copyprop",
		Description: "unified copy+constant propagation: replace uses through available (variable or literal) copies and fold literal terms, iterated to a fixpoint",
		Ref:         "§6, Figure 20(a); cf. [8]; Sreekala & Paleri, arXiv:2207.03894",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			replaced, rounds, err := Run(g, s)
			return pass.Stats{Changes: replaced, Iterations: rounds}, err
		},
	})
}

// copyPat is a copy pattern v := o, where o is a variable or a literal.
type copyPat struct {
	dst ir.Var
	src ir.Operand
}

// Run propagates copies and constants in g until no further replacement or
// fold is possible and returns the number of rewritten operand occurrences
// plus folded terms, and the number of analysis+replacement rounds. Chains
// (t := s; u := t; use of u) and fold cascades (x := 2+3 creating the
// literal copy x := 5) are resolved by iterating to a fixpoint. The
// availability vectors come from session s's arena and solver work is
// tallied into the session for per-pass reporting. Each round first
// checks the session's budget and context; on such a failure the graph is
// the valid result of the last completed round.
func Run(g *ir.Graph, s *analysis.Session) (replaced, rounds int, err error) {
	for {
		if err := s.CheckBudget(0); err != nil {
			return replaced, rounds, err
		}
		rounds++
		n := runOnce(g, s)
		replaced += n
		if n == 0 {
			return replaced, rounds, nil
		}
	}
}

// runOnce performs one availability analysis + replacement + folding sweep.
func runOnce(g *ir.Graph, s *analysis.Session) int {
	prog := analysis.NewProg(g)

	// Collect copy patterns v := o (trivial RHS; for a variable source,
	// v ≠ o — v := v is skip — while every literal source qualifies).
	var pats []copyPat
	index := map[copyPat]int{}
	for _, in := range prog.Ins {
		if p, ok := copyOf(in); ok {
			if _, seen := index[p]; !seen {
				index[p] = len(pats)
				pats = append(pats, p)
			}
		}
	}

	changed := 0
	if len(pats) > 0 {
		changed += propagate(g, s, prog, pats, index)
	}
	changed += fold(g)
	if changed > 0 {
		g.Normalize() // a copy x := y rewritten to x := x becomes skip
	}
	return changed
}

// propagate runs the availability analysis over pats and substitutes
// available sources into uses, returning the number of replaced operands.
func propagate(g *ir.Graph, s *analysis.Session, prog *analysis.Prog, pats []copyPat, index map[copyPat]int) int {
	bits := len(pats)
	n := prog.Len()

	ar := s.Arena()
	mark := ar.Mark()
	defer ar.Release(mark)

	gen := ar.Vecs(n)
	kill := ar.Vecs(n)
	for i := 0; i < n; i++ {
		gen[i] = ar.Vec(bits)
		kill[i] = ar.Vec(bits)
		in := prog.Ins[i]
		if v, ok := in.Defs(); ok {
			for id, p := range pats {
				if p.dst == v || (!p.src.IsConst && p.src.Var == v) {
					kill[i].Set(id)
				}
			}
		}
		if p, ok := copyOf(in); ok {
			id := index[p]
			gen[i].Set(id)
			kill[i].Clear(id) // the copy re-establishes itself
		}
	}

	entry := prog.EntryIndex()
	res := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Forward, Meet: dataflow.All,
		Preds: prog.Preds, Succs: prog.Succs,
		Arena: ar,
		Stats: s.DataflowStats(),
		Gen:   gen,
		Kill:  kill,
		Boundary: func(i int, in bitvec.Vec) {
			if i == entry {
				in.ClearAll()
			}
		},
	})

	// Replacement: substitute o for v in every use where v := o is
	// available at the instruction entry.
	subst := func(idx int, o ir.Operand) (ir.Operand, bool) {
		if o.IsConst {
			return o, false
		}
		for id, p := range pats {
			if p.dst == o.Var && res.In[idx].Get(id) {
				return p.src, true
			}
		}
		return o, false
	}
	substTerm := func(idx int, t ir.Term) (ir.Term, int) {
		changed := 0
		for k, o := range t.Operands() {
			if no, ok := subst(idx, o); ok {
				t.Args[k] = no
				changed++
			}
		}
		return t, changed
	}

	replaced := 0
	idx := 0
	for _, b := range g.Blocks {
		for k, in := range b.Instrs {
			switch in.Kind {
			case ir.KindAssign:
				rhs, c := substTerm(idx, in.RHS)
				if c > 0 {
					b.Instrs[k] = ir.NewAssign(in.LHS, rhs)
					replaced += c
				}
			case ir.KindOut:
				args := append([]ir.Operand(nil), in.Args...)
				c := 0
				for a, o := range args {
					if no, ok := subst(idx, o); ok {
						args[a] = no
						c++
					}
				}
				if c > 0 {
					b.Instrs[k] = ir.NewOut(args...)
					replaced += c
				}
			case ir.KindCond:
				l, cl := substTerm(idx, in.CondL)
				r, cr := substTerm(idx, in.CondR)
				if cl+cr > 0 {
					b.Instrs[k] = ir.NewCond(in.CondOp, l, r)
					replaced += cl + cr
				}
			}
			idx++
		}
	}
	return replaced
}

// fold rewrites every compound term whose operands are both literals into
// its literal value — assignment right-hand sides and branch-condition
// sides alike — and returns the number of folded terms. A folded
// assignment becomes a literal copy, which the next propagation round
// treats like any other copy pattern; that cascade is exactly how the
// unified lattice subsumes classical constant propagation.
func fold(g *ir.Graph) int {
	folded := 0
	for _, b := range g.Blocks {
		for k, in := range b.Instrs {
			switch in.Kind {
			case ir.KindAssign:
				if t, ok := foldTerm(in.RHS); ok {
					b.Instrs[k] = ir.NewAssign(in.LHS, t)
					folded++
				}
			case ir.KindCond:
				l, okL := foldTerm(in.CondL)
				r, okR := foldTerm(in.CondR)
				if okL || okR {
					if !okL {
						l = in.CondL
					}
					if !okR {
						r = in.CondR
					}
					b.Instrs[k] = ir.NewCond(in.CondOp, l, r)
					if okL {
						folded++
					}
					if okR {
						folded++
					}
				}
			}
		}
	}
	return folded
}

// foldTerm evaluates a compound term with two literal operands, mirroring
// the interpreter's arithmetic. Division and remainder by a literal zero
// are left unfolded: under the default total semantics they yield 0, but
// under trapping semantics they are run-time errors, and a propagation
// baseline must preserve both (§3 footnote 3 applies the same caution to
// the motion passes).
func foldTerm(t ir.Term) (ir.Term, bool) {
	if t.Trivial() || !t.Args[0].IsConst || !t.Args[1].IsConst {
		return t, false
	}
	a, b := t.Args[0].Const, t.Args[1].Const
	var v int64
	switch t.Op {
	case ir.OpAdd:
		v = a + b
	case ir.OpSub:
		v = a - b
	case ir.OpMul:
		v = a * b
	case ir.OpDiv:
		if b == 0 {
			return t, false
		}
		v = a / b
	case ir.OpRem:
		if b == 0 {
			return t, false
		}
		v = a % b
	default:
		return t, false
	}
	return ir.ConstTerm(v), true
}

func copyOf(in ir.Instr) (copyPat, bool) {
	if in.Kind != ir.KindAssign || !in.RHS.Trivial() {
		return copyPat{}, false
	}
	o := in.RHS.Args[0]
	if !o.IsConst && o.Var == in.LHS {
		return copyPat{}, false
	}
	return copyPat{dst: in.LHS, src: o}, true
}
