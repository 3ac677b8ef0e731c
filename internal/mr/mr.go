// Package mr implements the original partial redundancy elimination of
// Morel and Renvoise (CACM 1979) — reference [19] of the paper, the
// algorithm all later expression-motion work (Dhamdhere's adaptations
// [3, 6], Drechsler/Stadel [9], and lazy code motion [15, 16]) descends
// from. It serves as a historical baseline in the experiment harness.
//
// MR solves, per expression, a BIDIRECTIONAL bit-vector system over basic
// blocks ("placement possible", PP):
//
//	AVIN_i  = ∏_{p∈pred(i)} AVOUT_p              (∅ at the entry block)
//	AVOUT_i = COMP_i + AVIN_i · TRANSP_i
//	ANTOUT_i = ∏_{s∈succ(i)} ANTIN_s             (∅ at the exit block)
//	ANTIN_i  = ANTLOC_i + TRANSP_i · ANTOUT_i
//
//	PPOUT_i = ∏_{s∈succ(i)} PPIN_s               (∅ at the exit block)
//	PPIN_i  = ANTIN_i · (ANTLOC_i + TRANSP_i · PPOUT_i)
//	          · ∏_{p∈pred(i)} (AVOUT_p + PPOUT_p)   (∅ at the entry block)
//
// computed as a greatest fixpoint, followed by the placement:
//
//	INSERT_i  = PPOUT_i · ¬AVOUT_i · (¬PPIN_i + ¬TRANSP_i)  — h := e at end
//	RELOAD_i  = PPIN_i  · ANTLOC_i   — upward-exposed occurrences use h
//
// and a demand-driven save analysis: a reload consumes h at its block
// entry, and the demand propagates backward until a supplier (an INSERT,
// or a block computing e, whose downward-exposed occurrence then also
// stores into h):
//
//	NEEDOUT_i = Σ_{s∈succ(i)} NEEDIN_s              (∅ at the exit block)
//	NEEDIN_i  = RELOAD_i + NEEDOUT_i · ¬INSERT_i · ¬COMP_i
//	SAVE_i    = COMP_i · NEEDOUT_i   (skipped when a reload already keeps
//	                                  h valid through the block exit)
//
// The demand formulation generalizes the textbook SAVE = COMP·PPOUT: a
// reload may be justified through a predecessor's *availability* alone
// (the AVOUT_p disjunct of PPIN), in which case PPOUT is false along the
// supplying path and the PPOUT-based save would never materialize h —
// the randomized property tests of internal/verify caught exactly that
// miscompilation.
//
// Crucially MR places computations only at block boundaries — it has no
// synthetic nodes — so a partial redundancy behind a critical edge
// (Figure 10 of the paper) is beyond its reach, which the tests and the
// experiment harness demonstrate against lazy code motion.
package mr

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "mr",
		Description: "Morel/Renvoise partial redundancy elimination: bidirectional PP system, block-boundary placement only",
		Ref:         "Morel/Renvoise CACM'79 [19]; §1.2 baseline",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st := Run(g, s)
			return pass.Stats{Changes: st.Inserted + st.Reloaded + st.Saved, Iterations: 1}, nil
		},
	})
}

// Stats reports what one MR run did.
type Stats struct {
	// Inserted counts h := e insertions, Reloaded replaced occurrences,
	// Saved occurrences extended with a store into h.
	Inserted, Reloaded, Saved int
}

// locals holds the per-block local predicates over the expression
// universe.
type locals struct {
	antloc []bitvec.Vec // upward-exposed computation
	comp   []bitvec.Vec // downward-exposed computation
	transp []bitvec.Vec // no operand killed in the block
}

// Run applies Morel/Renvoise PRE to g in place. MR's four fixpoint
// systems are hand-rolled round-robin iterations — the bidirectional PP
// system does not fit the uni-directional solver — so session s is used
// only to tally their work (one "solve" per system, one sweep per round)
// for the pass pipeline's per-pass reporting.
func Run(g *ir.Graph, s *analysis.Session) Stats {
	eu := ir.ExprUniverse(g)
	bits := eu.Len()
	var st Stats
	if bits == 0 {
		return st
	}
	df := s.DataflowStats()
	loc := computeLocals(g, eu)

	avin, avout := solveAvailability(g, loc, bits, df)
	_, antin := solveAnticipability(g, loc, bits, df)
	ppin, ppout := solvePP(g, loc, avout, antin, bits, df)
	_ = avin

	// Placement predicates per block.
	n := len(g.Blocks)
	inserts := make([]bitvec.Vec, n)
	reloads := make([]bitvec.Vec, n)
	for i := range g.Blocks {
		insert := ppout[i].Copy()
		notAv := avout[i].Copy()
		notAv.Not()
		insert.And(notAv)
		weak := ppin[i].Copy()
		weak.And(loc.transp[i])
		weak.Not() // ¬PPIN + ¬TRANSP
		insert.And(weak)
		inserts[i] = insert

		reload := ppin[i].Copy()
		reload.And(loc.antloc[i])
		reloads[i] = reload
	}

	// Demand analysis: which blocks must supply h at their exit.
	needout := solveDemand(g, loc, inserts, reloads, bits, df)

	// Transformation. All expressions are transformed in one pass; the
	// per-expression transformations are independent (each has its own
	// temporary, and inserted instances only add occurrences of their own
	// expression).
	for i, b := range g.Blocks {
		save := loc.comp[i].Copy()
		save.And(needout[i])
		st.apply(g, b, eu, inserts[i], reloads[i], save)
	}
	g.Normalize()
	return st
}

// solveDemand computes NEEDOUT: the least fixpoint of the backward demand
// system above.
func solveDemand(g *ir.Graph, loc *locals, inserts, reloads []bitvec.Vec, bits int, df *dataflow.SolveStats) []bitvec.Vec {
	n := len(g.Blocks)
	needout := make([]bitvec.Vec, n)
	needin := make([]bitvec.Vec, n)
	for i := 0; i < n; i++ {
		needout[i] = bitvec.New(bits)
		needin[i] = bitvec.New(bits)
	}
	df.Solves++
	for changed := true; changed; {
		changed = false
		sweep(df, n)
		for i := n - 1; i >= 0; i-- {
			b := g.Blocks[i]
			out := bitvec.New(bits)
			for _, s := range b.Succs {
				out.Or(needin[int(s)])
			}
			if !out.Equal(needout[i]) {
				needout[i].CopyFrom(out)
				changed = true
			}
			in := out.Copy()
			in.AndNot(inserts[i])
			in.AndNot(loc.comp[i])
			in.Or(reloads[i])
			if !in.Equal(needin[i]) {
				needin[i].CopyFrom(in)
				changed = true
			}
		}
	}
	return needout
}

func computeLocals(g *ir.Graph, eu *ir.ExprSet) *locals {
	n, bits := len(g.Blocks), eu.Len()
	loc := &locals{
		antloc: make([]bitvec.Vec, n),
		comp:   make([]bitvec.Vec, n),
		transp: make([]bitvec.Vec, n),
	}
	// killByVar[v] = expressions with operand v.
	killByVar := map[ir.Var]bitvec.Vec{}
	for id := 0; id < bits; id++ {
		e := eu.Expr(id)
		for _, v := range e.Vars(nil) {
			w, ok := killByVar[v]
			if !ok {
				w = bitvec.New(bits)
				killByVar[v] = w
			}
			w.Set(id)
		}
	}
	var terms []ir.Term
	for i, b := range g.Blocks {
		antloc := bitvec.New(bits)
		comp := bitvec.New(bits)
		killed := bitvec.New(bits)
		for k := range b.Instrs {
			in := &b.Instrs[k]
			terms = in.Terms(terms[:0])
			for _, t := range terms {
				if t.Trivial() {
					continue
				}
				id, ok := eu.ID(t)
				if !ok {
					continue
				}
				if !killed.Get(id) {
					antloc.Set(id)
				}
				comp.Set(id)
			}
			if v, ok := in.Defs(); ok {
				if kv, ok := killByVar[v]; ok {
					comp.AndNot(kv)
					killed.Or(kv)
				}
			}
		}
		loc.antloc[i] = antloc
		loc.comp[i] = comp
		killed.Not()
		loc.transp[i] = killed
	}
	return loc
}

// sweep feeds one round of MR's hand-rolled fixpoints into the session's
// solver tally so per-pass reporting covers them too.
func sweep(df *dataflow.SolveStats, visits int) {
	df.Sweeps++
	df.Visits += visits
}

func solveAvailability(g *ir.Graph, loc *locals, bits int, df *dataflow.SolveStats) (avin, avout []bitvec.Vec) {
	n := len(g.Blocks)
	avin = fullVecs(n, bits)
	avout = fullVecs(n, bits)
	df.Solves++
	for changed := true; changed; {
		changed = false
		sweep(df, n)
		for i, b := range g.Blocks {
			in := avin[i]
			if b.ID == g.Entry {
				in.ClearAll()
			} else {
				in.SetAll()
				for _, p := range b.Preds {
					in.And(avout[int(p)])
				}
			}
			next := in.Copy()
			next.And(loc.transp[i])
			next.Or(loc.comp[i])
			if !next.Equal(avout[i]) {
				avout[i].CopyFrom(next)
				changed = true
			}
		}
	}
	return avin, avout
}

func solveAnticipability(g *ir.Graph, loc *locals, bits int, df *dataflow.SolveStats) (antout, antin []bitvec.Vec) {
	n := len(g.Blocks)
	antout = fullVecs(n, bits)
	antin = fullVecs(n, bits)
	df.Solves++
	for changed := true; changed; {
		changed = false
		sweep(df, n)
		for i := n - 1; i >= 0; i-- {
			b := g.Blocks[i]
			out := antout[i]
			if b.ID == g.Exit {
				out.ClearAll()
			} else {
				out.SetAll()
				for _, s := range b.Succs {
					out.And(antin[int(s)])
				}
			}
			next := out.Copy()
			next.And(loc.transp[i])
			next.Or(loc.antloc[i])
			if !next.Equal(antin[i]) {
				antin[i].CopyFrom(next)
				changed = true
			}
		}
	}
	return antout, antin
}

// solvePP iterates the bidirectional system to its greatest fixpoint.
func solvePP(g *ir.Graph, loc *locals, avout, antin []bitvec.Vec, bits int, df *dataflow.SolveStats) (ppin, ppout []bitvec.Vec) {
	n := len(g.Blocks)
	ppin = fullVecs(n, bits)
	ppout = fullVecs(n, bits)
	scratch := bitvec.New(bits)
	df.Solves++
	for changed := true; changed; {
		changed = false
		sweep(df, n)
		for i, b := range g.Blocks {
			// PPOUT_i = ∏ succ PPIN (∅ at exit).
			out := scratch
			if b.ID == g.Exit {
				out.ClearAll()
			} else {
				out.SetAll()
				for _, s := range b.Succs {
					out.And(ppin[int(s)])
				}
			}
			if !out.Equal(ppout[i]) {
				ppout[i].CopyFrom(out)
				changed = true
			}

			// PPIN_i (∅ at entry).
			in := bitvec.New(bits)
			if b.ID != g.Entry {
				in.CopyFrom(ppout[i])
				in.And(loc.transp[i])
				in.Or(loc.antloc[i])
				in.And(antin[i])
				for _, p := range b.Preds {
					pred := avout[int(p)].Copy()
					pred.Or(ppout[int(p)])
					in.And(pred)
				}
			}
			if !in.Equal(ppin[i]) {
				ppin[i].CopyFrom(in)
				changed = true
			}
		}
	}
	return ppin, ppout
}

// apply performs the placement in one block.
func (st *Stats) apply(g *ir.Graph, b *ir.Block, eu *ir.ExprSet, insert, reload, save bitvec.Vec) {
	bits := eu.Len()
	// Walk the block replacing upward-exposed occurrences (reload) and
	// extending the downward-exposed occurrence (save). A reload that
	// stays valid to the block exit makes the save unnecessary.
	killed := bitvec.New(bits)
	hValid := bitvec.New(bits) // h := e known to hold at this point
	next := make([]ir.Instr, 0, len(b.Instrs)+2)

	// lastSaveSite[id] remembers the index in `next` of the instruction
	// that must be rewritten into a save; resolved after the walk.
	type savePoint struct{ nextIdx int }
	lastSave := map[int]savePoint{}

	for k := range b.Instrs {
		in := b.Instrs[k]
		rewritten := in
		var occs []ir.Term
		occs = in.Terms(occs[:0])
		for _, t := range occs {
			if t.Trivial() {
				continue
			}
			id, ok := eu.ID(t)
			if !ok {
				continue
			}
			h := g.TempFor(t)
			switch {
			case reload.Get(id) && !killed.Get(id):
				// Upward exposed: use h instead of recomputing.
				rewritten = replaceExpr(rewritten, t, ir.VarTerm(h))
				hValid.Set(id)
				st.Reloaded++
			case save.Get(id):
				// Possibly the downward-exposed computation; remember the
				// site — a later occurrence supersedes it.
				lastSave[id] = savePoint{nextIdx: len(next)}
			}
		}
		next = append(next, rewritten)
		if v, ok := rewritten.Defs(); ok {
			// Kills: operand redefinitions invalidate both the pending
			// saves' validity tracking and hValid.
			for id := 0; id < bits; id++ {
				if eu.Expr(id).UsesVar(v) {
					killed.Set(id)
					hValid.Clear(id)
				}
			}
		}
	}

	// Resolve saves: rewrite x := e into h := e; x := h (or prepend
	// h := e before a condition) unless h is already valid at exit.
	// Process in descending index order so earlier insertions do not
	// shift later sites.
	type pending struct{ idx, id int }
	var saves []pending
	for id, sp := range lastSave {
		if hValid.Get(id) {
			continue // a reload already guarantees h at exit
		}
		saves = append(saves, pending{sp.nextIdx, id})
	}
	// Sort descending by index.
	for i := 0; i < len(saves); i++ {
		for j := i + 1; j < len(saves); j++ {
			if saves[j].idx > saves[i].idx {
				saves[i], saves[j] = saves[j], saves[i]
			}
		}
	}
	for _, sp := range saves {
		e := eu.Expr(sp.id)
		h := g.TempFor(e)
		in := next[sp.idx]
		switch {
		case in.Kind == ir.KindAssign && in.RHS.Equal(e):
			next[sp.idx] = ir.NewAssign(in.LHS, ir.VarTerm(h))
			next = insertAt(next, sp.idx, ir.NewAssign(h, e))
		default:
			// Condition (or a reload-rewritten instruction): compute h
			// just before and substitute the side.
			next[sp.idx] = replaceExpr(in, e, ir.VarTerm(h))
			next = insertAt(next, sp.idx, ir.NewAssign(h, e))
		}
		st.Saved++
	}

	// Insertions at the block end (before a trailing condition).
	insert.ForEach(func(id int) {
		e := eu.Expr(id)
		h := g.TempFor(e)
		inst := ir.NewAssign(h, e)
		if m := len(next); m > 0 && next[m-1].Kind == ir.KindCond {
			next = insertAt(next, m-1, inst)
		} else {
			next = append(next, inst)
		}
		st.Inserted++
	})

	b.Instrs = next
}

// replaceExpr substitutes `to` for the occurrence of expression `from` in
// the instruction (assignment RHS or condition side).
func replaceExpr(in ir.Instr, from, to ir.Term) ir.Instr {
	switch in.Kind {
	case ir.KindAssign:
		if in.RHS.Equal(from) {
			return ir.NewAssign(in.LHS, to)
		}
	case ir.KindCond:
		l, r := in.CondL, in.CondR
		if l.Equal(from) {
			l = to
		}
		if r.Equal(from) {
			r = to
		}
		return ir.NewCond(in.CondOp, l, r)
	}
	return in
}

func insertAt(s []ir.Instr, i int, in ir.Instr) []ir.Instr {
	s = append(s, ir.Instr{})
	copy(s[i+1:], s[i:])
	s[i] = in
	return s
}

func fullVecs(n, bits int) []bitvec.Vec {
	out := make([]bitvec.Vec, n)
	for i := range out {
		out[i] = bitvec.NewFull(bits)
	}
	return out
}
