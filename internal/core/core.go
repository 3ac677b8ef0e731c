// Package core implements the paper's contribution: the global algorithm
// for uniform elimination of partially redundant expressions and
// assignments (§4). It composes three phases:
//
//  1. Initialization (§4.2) — every assignment x := t with a non-trivial
//     right-hand side becomes h_t := t; x := h_t, and every non-trivial
//     branch-condition side ε is lifted into h_ε := ε. After this phase,
//     assignment motion subsumes expression motion (Lemma 4.1).
//  2. Assignment motion (§4.3) — the exhaustive aht/rae fixpoint
//     (internal/am), which captures all second-order effects and yields a
//     relatively assignment-optimal program (Lemma 4.2) that is also
//     relatively expression-optimal (Corollary 4.3).
//  3. Final flush (§4.4) — the lazy-code-motion variant of internal/flush,
//     which sinks temporary initializations to their latest points,
//     eliminates the unusable ones, and reconstructs single-use terms,
//     establishing relative temporary-optimality (Lemma 4.4).
//
// The composite result GGlobAlg is expression-optimal in the whole
// universe of programs obtainable by EM and AM transformations
// (Theorem 5.2) and relatively assignment- and temporary-optimal
// (Theorems 5.3, 5.4).
package core

import (
	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

// Result reports what one Optimize run did, per phase.
type Result struct {
	// Decomposed is the number of assignments and condition sides split
	// by the initialization phase.
	Decomposed int
	// AM carries the assignment-motion phase statistics.
	AM am.Stats
	// Flush carries the final flush statistics.
	Flush flush.Stats
}

// Optimize runs the full global algorithm on g in place and returns the
// per-phase statistics. The graph is edge-split, normalized, and valid on
// return.
func Optimize(g *ir.Graph) Result {
	// One session carries the arena, pattern universe, and iteration orders
	// across the whole run: every aht/rae round of the motion fixpoint and
	// the final flush draw from the same pooled storage.
	s := analysis.NewSession()
	defer s.Close()
	return OptimizeWith(g, s, nil)
}

// OptimizeWith is Optimize as a three-pass pipeline (init, am, flush) over
// an existing session. The optional hook receives one instrumented event
// per phase — wall time, instruction deltas, solver work — which is how
// amopt observes the global algorithm per phase. It panics on a pipeline
// failure (the legacy contract); fault-aware callers use TryOptimizeWith
// or run Phases under their own pipeline, as internal/engine does.
func OptimizeWith(g *ir.Graph, s *analysis.Session, hook func(pass.Event)) Result {
	res, err := TryOptimizeWith(g, s, hook)
	if err != nil {
		panic("core: global pipeline failed: " + err.Error())
	}
	return res
}

// TryOptimizeWith is OptimizeWith returning pipeline failures (fixpoint
// overrun, exhausted session budget, cancellation) as typed fault errors.
// The run inherits the session's context, so a deadline attached there
// interrupts the AM fixpoint between rounds.
func TryOptimizeWith(g *ir.Graph, s *analysis.Session, hook func(pass.Event)) (Result, error) {
	var res Result
	pl := pass.New(Phases(&res)...)
	pl.Hook = hook
	_, err := pl.RunWith(nil, g, s)
	return res, err
}

// Phases returns the three phases of the global algorithm as pipeline
// passes. The detailed per-phase statistics are accumulated into res when
// it is non-nil (the uniform pass.Stats shape is reported either way).
// These are the same transformations the registry serves under "init",
// "am", and "flush"; this constructor exists so composite drivers
// (Optimize, the batch engine) can keep the typed Result while running on
// the instrumented pipeline path.
func Phases(res *Result) []pass.Pass {
	if res == nil {
		res = &Result{}
	}
	return []pass.Pass{
		phase("init", func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			g.SplitCriticalEdges()
			res.Decomposed = Initialize(g)
			return pass.Stats{Changes: res.Decomposed, Iterations: 1}, nil
		}),
		phase("am", func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			var err error
			res.AM, err = am.TryRunWith(g, s)
			return pass.Stats{Changes: res.AM.Eliminated, Iterations: res.AM.Iterations}, err
		}),
		phase("flush", func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			res.Flush = flush.RunWith(g, s)
			changes := res.Flush.DroppedInits + res.Flush.InsertedInits + res.Flush.Reconstructed
			return pass.Stats{Changes: changes, Iterations: 1}, nil
		}),
	}
}

// phase copies the registered pass's metadata (the registrations of the
// imported am and flush packages, and core's own "init", are guaranteed to
// have run) and overrides the body with a closure that additionally
// captures the typed phase statistics.
func phase(name string, run func(*ir.Graph, *analysis.Session) (pass.Stats, error)) pass.Pass {
	p, ok := pass.Lookup(name)
	if !ok {
		panic("core: phase " + name + " not registered")
	}
	p.RunWith = run
	return p
}

func init() {
	pass.Register(pass.Pass{
		Name:        "init",
		Description: "initialization: decompose every assignment and condition side through a temporary (EM becomes AM)",
		Ref:         "§4.2, Figure 12, Lemma 4.1",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			g.SplitCriticalEdges()
			return pass.Stats{Changes: Initialize(g), Iterations: 1}, nil
		},
	})
	pass.Register(pass.Pass{
		Name:        "globalg",
		Description: "the full global algorithm: init, exhaustive assignment motion, final flush",
		Ref:         "§4, Theorems 5.2–5.4",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			res, err := TryOptimizeWith(g, s, nil)
			return pass.Stats{
				Changes: res.Decomposed + res.AM.Eliminated +
					res.Flush.DroppedInits + res.Flush.InsertedInits + res.Flush.Reconstructed,
				Iterations: res.AM.Iterations,
			}, err
		},
	})
}

// Initialize applies the initialization phase to g in place and returns
// the number of decomposed sites. It is idempotent: instances h := ε and
// trivial right-hand sides are left alone.
//
// Re-initialization clobber guard: on a graph that already carries
// temporaries from an earlier round, a propagation pass may have extended a
// temporary's live range beyond its defining copies (copy propagation
// substitutes h_ε for the copy targets — the very mechanism of the §6
// interleaving). Decomposing a NEW computation site of ε then inserts a
// fresh definition h_ε := ε that overwrites the value those propagated uses
// still need on paths through the site. Such a site is left undecomposed:
// h_ε is consulted against a temp-only liveness analysis, and a site is
// split only where h_ε is dead. On a temp-free graph (the first round, and
// every run of the global algorithm on source programs) no temporary is
// ever live across its protocol uses, so the guard never fires there.
func Initialize(g *ir.Graph) int {
	// Expression patterns that already have a temporary, from earlier rounds.
	existing := map[ir.Term]ir.Var{}
	for _, h := range g.Temps() {
		if e, ok := g.TempExpr(h); ok {
			existing[e] = h
		}
	}
	var liveOut [][]map[ir.Var]bool
	if len(existing) > 0 {
		liveOut = tempLiveOut(g)
	}
	// clobbers reports whether inserting h := ε after position k of block bi
	// would overwrite a value of h some reachable use still needs.
	clobbers := func(bi, k int, e ir.Term) bool {
		h, ok := existing[e]
		return ok && liveOut[bi][k][h]
	}
	// condClobbers is the guard for a branch site: the definition is
	// inserted BEFORE the branch, so a read of h by the branch itself (its
	// other side, after propagation) needs the old value too.
	var scratch []ir.Var
	condClobbers := func(bi, k int, in ir.Instr, e ir.Term) bool {
		h, ok := existing[e]
		if !ok {
			return false
		}
		if liveOut[bi][k][h] {
			return true
		}
		scratch = in.Uses(scratch[:0])
		for _, v := range scratch {
			if v == h {
				return true
			}
		}
		return false
	}

	decomposed := 0
	for bi, b := range g.Blocks {
		next := make([]ir.Instr, 0, len(b.Instrs))
		for k, in := range b.Instrs {
			switch in.Kind {
			case ir.KindAssign:
				if in.RHS.Trivial() || g.IsTemp(in.LHS) || clobbers(bi, k, in.RHS) {
					next = append(next, in)
					continue
				}
				h := g.TempFor(in.RHS)
				next = append(next, ir.NewAssign(h, in.RHS), ir.NewAssign(in.LHS, ir.VarTerm(h)))
				decomposed++
			case ir.KindCond:
				l, r := in.CondL, in.CondR
				if !l.Trivial() && !condClobbers(bi, k, in, l) {
					h := g.TempFor(l)
					next = append(next, ir.NewAssign(h, l))
					l = ir.VarTerm(h)
					decomposed++
				}
				if !r.Trivial() && !condClobbers(bi, k, in, r) {
					h := g.TempFor(r)
					next = append(next, ir.NewAssign(h, r))
					r = ir.VarTerm(h)
					decomposed++
				}
				next = append(next, ir.NewCond(in.CondOp, l, r))
			default:
				next = append(next, in)
			}
		}
		b.Instrs = next
	}
	g.Normalize()
	return decomposed
}

// tempLiveOut computes, for every instruction position, the set of
// registered temporaries live immediately AFTER the instruction — the
// values a re-initialization must not overwrite there. A standard backward
// may-liveness restricted to the temp domain; graphs and temp counts are
// small, so plain map sets suffice.
func tempLiveOut(g *ir.Graph) [][]map[ir.Var]bool {
	nb := len(g.Blocks)
	use := make([]map[ir.Var]bool, nb)
	def := make([]map[ir.Var]bool, nb)
	var scratch []ir.Var
	for i, b := range g.Blocks {
		use[i], def[i] = map[ir.Var]bool{}, map[ir.Var]bool{}
		for _, in := range b.Instrs {
			scratch = in.Uses(scratch[:0])
			for _, v := range scratch {
				if g.IsTemp(v) && !def[i][v] {
					use[i][v] = true
				}
			}
			if v, ok := in.Defs(); ok && g.IsTemp(v) {
				def[i][v] = true
			}
		}
	}

	liveIn := make([]map[ir.Var]bool, nb)
	blockOut := make([]map[ir.Var]bool, nb)
	for i := range liveIn {
		liveIn[i] = map[ir.Var]bool{}
		blockOut[i] = map[ir.Var]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			out := map[ir.Var]bool{}
			for _, sid := range g.Blocks[i].Succs {
				for v := range liveIn[sid] {
					out[v] = true
				}
			}
			blockOut[i] = out
			for v := range use[i] {
				if !liveIn[i][v] {
					liveIn[i][v] = true
					changed = true
				}
			}
			for v := range out {
				if !def[i][v] && !liveIn[i][v] {
					liveIn[i][v] = true
					changed = true
				}
			}
		}
	}

	// Per-instruction live-out by a backward walk from each block's exit.
	outAt := make([][]map[ir.Var]bool, nb)
	for i, b := range g.Blocks {
		n := len(b.Instrs)
		outAt[i] = make([]map[ir.Var]bool, n)
		live := map[ir.Var]bool{}
		for v := range blockOut[i] {
			live[v] = true
		}
		for k := n - 1; k >= 0; k-- {
			snap := make(map[ir.Var]bool, len(live))
			for v := range live {
				snap[v] = true
			}
			outAt[i][k] = snap
			in := b.Instrs[k]
			if v, ok := in.Defs(); ok {
				delete(live, v)
			}
			scratch = in.Uses(scratch[:0])
			for _, v := range scratch {
				if g.IsTemp(v) {
					live[v] = true
				}
			}
		}
	}
	return outAt
}
