package analysis

import (
	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
)

// TempIndex is the Table 3 counterpart of PatternIndex: for the
// temporaries of one graph it precomputes the per-variable facts that give
// an instruction's IS-INST, USED and BLOCKED vectors in a few lookups,
// instead of testing every (instruction, temporary) pair:
//
//   - the temp position of each variable that is a temporary (USED sets
//     it on a read, IS-INST or BLOCKED on a definition);
//   - readers[v]: the temporaries whose expression ε reads v — a
//     definition of v blocks their initializations;
//   - an assignment to h_t is an instance exactly when its right-hand
//     side equals ε_t; any other assignment to h_t blocks t.
//
// Bits are temp positions in Temps (creation order).
type TempIndex struct {
	Temps []ir.Var
	Exprs []ir.Term
	vars  map[ir.Var]tempVar
}

// tempVar is what one variable means to the Table 3 predicates.
type tempVar struct {
	temp    int        // position in Temps, -1 when not a temporary
	readers bitvec.Vec // temps whose ε reads the variable; zero-length when none
}

// NewTempIndex builds the index for g's temporaries, carving its vectors
// from ar (heap when nil).
func NewTempIndex(g *ir.Graph, ar *arena.Arena) *TempIndex {
	temps := g.Temps()
	tx := &TempIndex{Temps: temps, Exprs: make([]ir.Term, len(temps)), vars: map[ir.Var]tempVar{}}
	for t, h := range temps {
		tx.Exprs[t], _ = g.TempExpr(h)
		tx.vars[h] = tempVar{temp: t}
	}
	read := func(o ir.Operand, t int) {
		if o.IsConst {
			return
		}
		tv, ok := tx.vars[o.Var]
		if !ok {
			tv.temp = -1
		}
		if tv.readers.Len() == 0 {
			tv.readers = ar.Vec(len(temps))
		}
		tv.readers.Set(t)
		tx.vars[o.Var] = tv
	}
	for t, e := range tx.Exprs {
		read(e.Args[0], t)
		if !e.Trivial() {
			read(e.Args[1], t)
		}
	}
	return tx
}

// Locals sets instruction in's Table 3 bits — IS-INST (an instance of
// h := ε), USED (reads h) and BLOCKED (modifies an operand of ε, or h by
// other means) — in the given vectors, which must be of the index's width.
// The bits agree with IsInst, UsesTemp and BlocksInit for every temp.
func (tx *TempIndex) Locals(in *ir.Instr, isInst, used, blocked bitvec.Vec) {
	tx.used(in, used)
	if in.Kind != ir.KindAssign {
		return
	}
	tv, ok := tx.vars[in.LHS]
	if !ok {
		return
	}
	if tv.readers.Len() > 0 {
		blocked.Or(tv.readers)
	}
	if t := tv.temp; t >= 0 {
		if in.RHS == tx.Exprs[t] {
			isInst.Set(t)
		} else {
			blocked.Set(t)
		}
	}
}

// Liveness solves temporary liveness over prog, the instruction-level view
// of the index's graph: backward, any path, gen USED, kill any assignment
// to the temporary, an instance or not. For instruction i, In[i] holds the
// temporaries live at its exit and Out[i] those live at its entry. The
// vectors are carved from ar (heap when nil); the solve is tallied in no
// session.
func (tx *TempIndex) Liveness(prog *Prog, ar *arena.Arena) dataflow.Result {
	n, bits := prog.Len(), len(tx.Temps)
	used, assigned := ar.Vecs(n), ar.Vecs(n)
	for i := range prog.Ins {
		in := &prog.Ins[i]
		used[i], assigned[i] = ar.Vec(bits), ar.Vec(bits)
		tx.used(in, used[i])
		if in.Kind == ir.KindAssign {
			if tv, ok := tx.vars[in.LHS]; ok && tv.temp >= 0 {
				assigned[i].Set(tv.temp)
			}
		}
	}
	return dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Backward, Meet: dataflow.Any,
		Preds: prog.Preds, Succs: prog.Succs,
		Gen: used, Kill: assigned, Arena: ar,
	})
}

// used sets the USED bits of instruction in: the temporaries it reads.
func (tx *TempIndex) used(in *ir.Instr, used bitvec.Vec) {
	switch in.Kind {
	case ir.KindAssign:
		tx.use(&in.RHS, used)
	case ir.KindOut:
		for i := range in.Args {
			tx.useOperand(in.Args[i], used)
		}
	case ir.KindCond:
		tx.use(&in.CondL, used)
		tx.use(&in.CondR, used)
	}
}

func (tx *TempIndex) use(t *ir.Term, used bitvec.Vec) {
	tx.useOperand(t.Args[0], used)
	if !t.Trivial() {
		tx.useOperand(t.Args[1], used)
	}
}

func (tx *TempIndex) useOperand(o ir.Operand, used bitvec.Vec) {
	if o.IsConst {
		return
	}
	if tv, ok := tx.vars[o.Var]; ok && tv.temp >= 0 {
		used.Set(tv.temp)
	}
}
