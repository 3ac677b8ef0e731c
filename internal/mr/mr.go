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
// Availability, anticipability and the demand are uni-directional gen/kill
// systems and run on dataflow.Solve. Only the PP system, which reads both
// its predecessors and its successors, keeps a hand-rolled round-robin
// iteration (solvePP): the solver is uni-directional.
//
// Crucially MR places computations only at block boundaries — it has no
// synthetic nodes — so a partial redundancy behind a critical edge
// (Figure 10 of the paper) is beyond its reach, which the tests and the
// experiment harness demonstrate against lazy code motion.
package mr

import (
	"slices"

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
	kill   []bitvec.Vec // ¬TRANSP: some operand killed in the block

	killByVar map[ir.Var]bitvec.Vec // expressions with operand v
}

// Run applies Morel/Renvoise PRE to g in place, tallying its solver work
// into session s: the three uni-directional systems as three solves on
// g's block view, and the PP system as one more solve of one sweep per
// round.
func Run(g *ir.Graph, s *analysis.Session) Stats {
	eu := ir.ExprUniverse(g)
	bits := eu.Len()
	var st Stats
	if bits == 0 {
		return st
	}
	loc := computeLocals(g, eu)
	bv := analysis.NewBlockView(g)

	avout := solve(g, bv, s, dataflow.Forward, dataflow.All, loc.comp, loc.kill).Out
	antin := solve(g, bv, s, dataflow.Backward, dataflow.All, loc.antloc, loc.kill).Out
	ppin, ppout := solvePP(g, loc, avout, antin, bits, s.DataflowStats())

	// Placement predicates per block, and the demand's kill INSERT ∨ COMP.
	n := len(g.Blocks)
	inserts := make([]bitvec.Vec, n)
	reloads := make([]bitvec.Vec, n)
	suppliers := make([]bitvec.Vec, n)
	for i := range g.Blocks {
		insert := ppout[i].Copy()
		insert.AndNot(avout[i])
		weak := ppin[i].Copy()
		weak.AndNot(loc.kill[i])
		weak.Not() // ¬PPIN + ¬TRANSP
		insert.And(weak)
		inserts[i] = insert

		reload := ppin[i].Copy()
		reload.And(loc.antloc[i])
		reloads[i] = reload

		suppliers[i] = insert.Copy()
		suppliers[i].Or(loc.comp[i])
	}

	// Demand analysis: which blocks must supply h at their exit (NEEDOUT,
	// the solver's fact at a block's exit).
	needout := solve(g, bv, s, dataflow.Backward, dataflow.Any, reloads, suppliers).In

	// Transformation. All expressions are transformed in one pass; the
	// per-expression transformations are independent (each has its own
	// temporary, and inserted instances only add occurrences of their own
	// expression).
	for i, b := range g.Blocks {
		save := loc.comp[i].Copy()
		save.And(needout[i])
		st.apply(g, b, eu, loc.killByVar, inserts[i], reloads[i], save)
	}
	g.Normalize()
	return st
}

// solve runs one of MR's uni-directional block systems, out = gen ∨ (in ∧
// ¬kill), on g's block view bv with its work tallied into s. The
// flow-entry block (the entry forward, the exit backward) starts from ∅.
func solve(g *ir.Graph, bv analysis.BlockView, s *analysis.Session, dir dataflow.Direction, meet dataflow.Meet, gen, kill []bitvec.Vec) dataflow.Result {
	order, boundary := bv.FwdOrder, int(g.Entry)
	if dir == dataflow.Backward {
		order, boundary = bv.BwdOrder, int(g.Exit)
	}
	return dataflow.Solve(dataflow.Problem{
		N: len(g.Blocks), Bits: gen[0].Len(), Dir: dir, Meet: meet,
		Preds: bv.Preds, Succs: bv.Succs, Order: order,
		Gen: gen, Kill: kill,
		Boundary: func(i int, in bitvec.Vec) {
			if i == boundary {
				in.ClearAll()
			}
		},
		Stats: s.DataflowStats(),
	})
}

func computeLocals(g *ir.Graph, eu *ir.ExprSet) *locals {
	n, bits := len(g.Blocks), eu.Len()
	killByVar := map[ir.Var]bitvec.Vec{}
	loc := &locals{
		antloc:    make([]bitvec.Vec, n),
		comp:      make([]bitvec.Vec, n),
		kill:      make([]bitvec.Vec, n),
		killByVar: killByVar,
	}
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
		loc.kill[i] = killed
	}
	return loc
}

// solvePP iterates the bidirectional system to its greatest fixpoint by
// round-robin sweeps over the blocks. It is MR's one hand-rolled fixpoint:
// PPIN meets over predecessors and PPOUT over successors, and
// dataflow.Solve propagates in one direction only. Each round is tallied
// into df as one sweep visiting every block.
func solvePP(g *ir.Graph, loc *locals, avout, antin []bitvec.Vec, bits int, df *dataflow.SolveStats) (ppin, ppout []bitvec.Vec) {
	n := len(g.Blocks)
	ppin = fullVecs(n, bits)
	ppout = fullVecs(n, bits)
	scratch := bitvec.New(bits)
	df.Solves++
	for changed := true; changed; {
		changed = false
		df.Sweeps++
		df.Visits += n
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
				in.AndNot(loc.kill[i])
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

// apply performs the placement in one block; killByVar maps a variable to
// the expressions it is an operand of.
func (st *Stats) apply(g *ir.Graph, b *ir.Block, eu *ir.ExprSet, killByVar map[ir.Var]bitvec.Vec, insert, reload, save bitvec.Vec) {
	bits := eu.Len()
	// Walk the block replacing upward-exposed occurrences (reload) and
	// extending the downward-exposed occurrence (save). A reload that
	// stays valid to the block exit makes the save unnecessary.
	killed := bitvec.New(bits)
	hValid := bitvec.New(bits) // h := e known to hold at this point
	next := make([]ir.Instr, 0, len(b.Instrs)+2)

	// lastSave[id] is the index in next of the instruction that must be
	// rewritten into a save of expression id; resolved after the walk.
	lastSave := map[int]int{}

	var occs []ir.Term
	for k := range b.Instrs {
		in := b.Instrs[k]
		rewritten := in
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
				lastSave[id] = len(next)
			}
		}
		next = append(next, rewritten)
		if v, ok := rewritten.Defs(); ok {
			// Kills: operand redefinitions invalidate both the pending
			// saves' validity tracking and hValid.
			if kv, ok := killByVar[v]; ok {
				killed.Or(kv)
				hValid.AndNot(kv)
			}
		}
	}

	// Resolve saves unless h is already valid at exit: h := e goes right
	// before the site, which reads h instead of e (x := e becomes x := h).
	// All saves of one site — both sides of a condition — are resolved
	// together, left side first, and sites last to first, so that no
	// insertion shifts a site still to be resolved.
	var sites []int
	for id, at := range lastSave {
		if !hValid.Get(id) && !slices.Contains(sites, at) {
			sites = append(sites, at)
		}
	}
	slices.Sort(sites)
	for j := len(sites) - 1; j >= 0; j-- {
		at := sites[j]
		in := next[at]
		var inits []ir.Instr
		for _, e := range in.Terms(occs[:0]) {
			id, ok := eu.ID(e)
			if site, saved := lastSave[id]; !ok || !saved || site != at || hValid.Get(id) {
				continue
			}
			delete(lastSave, id) // both sides of the condition when they are equal
			h := g.TempFor(e)
			in = replaceExpr(in, e, ir.VarTerm(h))
			inits = append(inits, ir.NewAssign(h, e))
			st.Saved++
		}
		next[at] = in
		next = slices.Insert(next, at, inits...)
	}

	// Insertions at the block end (before a trailing condition).
	insert.ForEach(func(id int) {
		e := eu.Expr(id)
		h := g.TempFor(e)
		inst := ir.NewAssign(h, e)
		if m := len(next); m > 0 && next[m-1].Kind == ir.KindCond {
			next = slices.Insert(next, m-1, inst)
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

func fullVecs(n, bits int) []bitvec.Vec {
	out := make([]bitvec.Vec, n)
	for i := range out {
		out[i] = bitvec.NewFull(bits)
	}
	return out
}
