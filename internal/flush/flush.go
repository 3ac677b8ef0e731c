// Package flush implements the final flush phase (§4.4, Table 3): a
// lazy-code-motion-style transformation that moves every temporary
// initialization h_ε := ε to its latest safe program point, keeps only the
// initializations that are usable (the value is needed on some program
// continuation), and reconstructs the original term at single-use sites.
//
// Two uni-directional bit-vector analyses over instructions (one bit per
// temporary) drive the transformation:
//
//	Delayability (forward, all paths, greatest fixpoint):
//	  N-DELAYABLE(ι) = false                     if ι = ι_s
//	                 = ∏_{ι'∈pred(ι)} X-DELAYABLE(ι')   otherwise
//	  X-DELAYABLE(ι) = IS-INST(ι) + N-DELAYABLE(ι) · ¬USED(ι) · ¬BLOCKED(ι)
//
//	Usability (backward, some path, least fixpoint):
//	  N-USABLE(ι) = USED(ι) + ¬IS-INST(ι) · X-USABLE(ι)
//	  X-USABLE(ι) = Σ_{ι'∈succ(ι)} N-USABLE(ι')
//
// From these (no further fixpoint):
//
//	N-LATEST(ι) = N-DELAYABLE*(ι) · (USED(ι) + BLOCKED(ι))
//	X-LATEST(ι) = X-DELAYABLE*(ι) · ¬∏_{ι'∈succ(ι)} N-DELAYABLE*(ι')
//	N-INIT(ι)   = N-LATEST(ι) · X-USABLE*(ι)      — plus forced
//	              initializations at non-reconstructible single uses
//	X-INIT(ι)   = X-LATEST(ι) · X-USABLE*(ι)
//	RECONSTRUCT(ι) = USED(ι) · N-LATEST(ι) · ¬X-USABLE*(ι)
//
// RECONSTRUCT inlines ε where the grammar allows a term: copy assignments
// v := h and trivial branch-condition sides. A single use inside out(...)
// keeps its initialization instead (see DESIGN.md).
package flush

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "flush",
		Description: "final flush: sink temporary initializations to latest points, drop unusable ones, reconstruct single uses",
		Ref:         "§4.4, Table 3, Lemma 4.4",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st := Run(g, s)
			return pass.Stats{
				Changes:    st.DroppedInits + st.InsertedInits + st.Reconstructed,
				Iterations: 1,
			}, nil
		},
	})
}

// Info exposes the flush analyses for tests and diagnostics. Vectors are
// indexed by instruction (analysis.Prog order) and bit-indexed by temp
// position in Temps.
type Info struct {
	Prog  *analysis.Prog
	Temps []ir.Var
	Exprs []ir.Term

	// Local predicates (Table 3).
	IsInst  []bitvec.Vec
	Used    []bitvec.Vec
	Blocked []bitvec.Vec

	NDelayable []bitvec.Vec
	XDelayable []bitvec.Vec
	NUsable    []bitvec.Vec
	XUsable    []bitvec.Vec
	NLatest    []bitvec.Vec
	XLatest    []bitvec.Vec
}

// Analyze computes the delayability and usability analyses for g, with
// all bit-vector storage carved from session s's arena. The result shares
// the arena and must be consumed before it is released.
func Analyze(g *ir.Graph, s *analysis.Session) *Info {
	prog := analysis.NewProg(g)
	ar := s.Arena()
	tx := analysis.NewTempIndex(g, ar)
	info := &Info{Prog: prog, Temps: tx.Temps, Exprs: tx.Exprs}
	n, bits := prog.Len(), len(tx.Temps)

	// Local predicates (Table 3) from the temp index, and the
	// delayability kill USED ∨ BLOCKED, materialized once per instruction
	// (N-LATEST reuses it).
	isInst := ar.Vecs(n)
	used := ar.Vecs(n)
	blocked := ar.Vecs(n)
	stop := ar.Vecs(n)
	for i := 0; i < n; i++ {
		isInst[i] = ar.Vec(bits)
		used[i] = ar.Vec(bits)
		blocked[i] = ar.Vec(bits)
		tx.Locals(&prog.Ins[i], isInst[i], used[i], blocked[i])
		stop[i] = ar.Vec(bits)
		stop[i].CopyOr(used[i], blocked[i])
	}
	info.IsInst, info.Used, info.Blocked = isInst, used, blocked

	// Delayability in gen/kill form: X-DELAYABLE = IS-INST ∨
	// (N-DELAYABLE ∧ ¬(USED ∨ BLOCKED)).
	entry := prog.EntryIndex()
	delay := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Forward, Meet: dataflow.All,
		Preds: prog.Preds, Succs: prog.Succs,
		Arena: ar,
		Stats: s.DataflowStats(),
		Gen:   isInst,
		Kill:  stop,
		Boundary: func(i int, in bitvec.Vec) {
			if i == entry {
				in.ClearAll()
			}
		},
	})
	info.NDelayable, info.XDelayable = delay.In, delay.Out

	// Usability in gen/kill form. Backward: solver "in" is the fact at the
	// instruction's exit (X-USABLE), "out" at its entry (N-USABLE) =
	// USED ∨ (X-USABLE ∧ ¬IS-INST).
	use := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Backward, Meet: dataflow.Any,
		Preds: prog.Preds, Succs: prog.Succs,
		Arena: ar,
		Stats: s.DataflowStats(),
		Gen:   used,
		Kill:  isInst,
	})
	info.XUsable, info.NUsable = use.In, use.Out

	info.NLatest = ar.Vecs(n)
	info.XLatest = ar.Vecs(n)
	allDelay := ar.Vec(bits)
	for i := 0; i < n; i++ {
		nl := ar.Vec(bits)
		nl.CopyAnd(info.NDelayable[i], stop[i])
		info.NLatest[i] = nl

		xl := ar.Vec(bits)
		xl.CopyFrom(info.XDelayable[i])
		succs := prog.Succs(i)
		allDelay.SetAll()
		for _, s := range succs {
			allDelay.And(info.NDelayable[s])
		}
		allDelay.Not() // ∃ successor not delayable; empty succs ⇒ all false
		xl.And(allDelay)
		if len(succs) == 0 {
			// Program exit: an initialization delayed past the last
			// instruction is dead.
			xl.ClearAll()
		}
		info.XLatest[i] = xl
	}
	return info
}

// Stats reports what one flush run did.
type Stats struct {
	// DroppedInits is the number of original h := ε instances removed.
	DroppedInits int
	// InsertedInits is the number of initializations placed at latest
	// points (including forced ones at non-reconstructible single uses).
	InsertedInits int
	// Reconstructed is the number of instructions whose single use of a
	// temporary was replaced by the original term.
	Reconstructed int
}

// Run applies the final flush to g in place, drawing analysis storage
// from session s; the arena is rewound before returning, so a flush inside
// a warmed-up Optimize call allocates only the rewritten instruction
// slices.
func Run(g *ir.Graph, s *analysis.Session) Stats {
	ar := s.Arena()
	m := ar.Mark()
	defer ar.Release(m)
	info := Analyze(g, s)
	var st Stats
	if len(info.Temps) == 0 {
		return st
	}

	idx := 0
	for _, b := range g.Blocks {
		next, ok := info.rewriteBlock(b, idx, &st)
		if !ok {
			panic("flush: X-INIT after a branch condition; critical edges must be split")
		}
		idx += len(b.Instrs)
		b.Instrs = next
	}
	g.Normalize()
	return st
}

// rewriteBlock returns the flushed instruction sequence of block b, whose
// k-th instruction has its facts at index first+k, and adds what it did to
// st. It walks only the set bits of N-LATEST and X-LATEST, in ascending
// temp order. ok is false when an initialization would follow b's branch
// condition, which split critical edges rule out.
func (info *Info) rewriteBlock(b *ir.Block, first int, st *Stats) (instrs []ir.Instr, ok bool) {
	next := make([]ir.Instr, 0, len(b.Instrs))
	var appendAfter []ir.Instr
	for k := range b.Instrs {
		in := &b.Instrs[k]
		i := first + k
		nl, used, xu := info.NLatest[i], info.Used[i], info.XUsable[i]
		// Initializations placed immediately before ι: the paper's
		// N-INIT plus forced initializations at single uses that cannot
		// be reconstructed.
		for t := nl.Next(0); t >= 0; t = nl.Next(t + 1) {
			switch {
			case xu.Get(t):
				next = append(next, info.initInstr(t))
				st.InsertedInits++
			case used.Get(t) && !canReconstruct(in, info.Temps[t]):
				next = append(next, info.initInstr(t))
				st.InsertedInits++
			}
		}

		if info.IsInst[i].Any() {
			// Original instance: dropped (re-materialized at latest
			// points above).
			st.DroppedInits++
		} else {
			out := *in
			for t := nl.Next(0); t >= 0; t = nl.Next(t + 1) {
				if used.Get(t) && !xu.Get(t) && canReconstruct(in, info.Temps[t]) {
					out = reconstruct(out, info.Temps[t], info.Exprs[t])
					st.Reconstructed++
				}
			}
			next = append(next, out)
		}

		// X-INIT: initializations placed immediately after ι.
		xl := info.XLatest[i]
		for t := xl.Next(0); t >= 0; t = xl.Next(t + 1) {
			if xu.Get(t) {
				appendAfter = append(appendAfter, info.initInstr(t))
				st.InsertedInits++
			}
		}
	}
	if len(appendAfter) > 0 {
		if _, branch := b.Cond(); branch {
			return nil, false
		}
	}
	return append(next, appendAfter...), true
}

func (info *Info) initInstr(t int) ir.Instr {
	return ir.NewAssign(info.Temps[t], info.Exprs[t])
}

// canReconstruct reports whether the single use of h in instruction in can
// be replaced by the originating term within the 3-address grammar: a copy
// assignment v := h, or a trivial branch-condition side that is exactly h.
func canReconstruct(in *ir.Instr, h ir.Var) bool {
	switch in.Kind {
	case ir.KindAssign:
		return in.RHS.Trivial() && !in.RHS.Args[0].IsConst && in.RHS.Args[0].Var == h
	case ir.KindCond:
		return trivialVarSide(in.CondL, h) || trivialVarSide(in.CondR, h)
	}
	return false
}

func trivialVarSide(t ir.Term, h ir.Var) bool {
	return t.Trivial() && !t.Args[0].IsConst && t.Args[0].Var == h
}

// reconstruct replaces the use of h in in by expr.
func reconstruct(in ir.Instr, h ir.Var, expr ir.Term) ir.Instr {
	switch in.Kind {
	case ir.KindAssign:
		return ir.NewAssign(in.LHS, expr)
	case ir.KindCond:
		l, r := in.CondL, in.CondR
		if trivialVarSide(l, h) {
			l = expr
		}
		if trivialVarSide(r, h) {
			r = expr
		}
		return ir.NewCond(in.CondOp, l, r)
	}
	return in
}
