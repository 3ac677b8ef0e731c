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
	"assignmentmotion/internal/dataflow"
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

// Optimize runs the full global algorithm on g in place as a three-pass
// pipeline (init, am, flush) over session s and returns the per-phase
// statistics. Pipeline failures (fixpoint overrun, exhausted session
// budget, cancellation) return as typed fault errors. The run inherits
// the session's context, so a deadline attached there interrupts the AM
// fixpoint between rounds. On success the graph is edge-split,
// normalized, and valid. Callers that want the per-phase events run
// Phases under their own pipeline, as internal/engine does.
func Optimize(g *ir.Graph, s *analysis.Session) (Result, error) {
	var res Result
	_, err := pass.New(Phases(&res)...).RunWith(s.Context(), g, s)
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
			res.AM, err = am.Run(g, s)
			return pass.Stats{Changes: res.AM.Eliminated, Iterations: res.AM.Iterations}, err
		}),
		phase("flush", func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			res.Flush = flush.Run(g, s)
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
			res, err := Optimize(g, s)
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
// split only where h_ε is dead (analysis.TempIndex.Liveness). On a
// temp-free graph (the first round, and every run of the global algorithm
// on source programs) no temporary is ever live across its protocol uses,
// so the guard never fires there, and neither the index nor the liveness
// is built.
func Initialize(g *ir.Graph) int {
	// Expression patterns that already have a temporary, from earlier
	// rounds, by the temporary's position in tx.
	var existing map[ir.Term]int
	var tx *analysis.TempIndex
	var prog *analysis.Prog
	var live dataflow.Result
	if len(g.Temps()) > 0 {
		tx = analysis.NewTempIndex(g, nil)
		existing = make(map[ir.Term]int, len(tx.Exprs))
		for t, e := range tx.Exprs {
			existing[e] = t
		}
		prog = analysis.NewProg(g)
		live = tx.Liveness(prog, nil)
	}
	// clobbers reports whether inserting h := ε after instruction k of
	// block b would overwrite a value of h some reachable use still needs.
	clobbers := func(b *ir.Block, k int, e ir.Term) bool {
		t, ok := existing[e]
		return ok && live.In[prog.BlockStart(b.ID)+k].Get(t)
	}
	// condClobbers is the guard for a branch site: the definition is
	// inserted BEFORE the branch, so a read of h by the branch itself (its
	// other side, after propagation) needs the old value too.
	var scratch []ir.Var
	condClobbers := func(b *ir.Block, k int, in ir.Instr, e ir.Term) bool {
		t, ok := existing[e]
		if !ok {
			return false
		}
		if clobbers(b, k, e) {
			return true
		}
		scratch = in.Uses(scratch[:0])
		for _, v := range scratch {
			if v == tx.Temps[t] {
				return true
			}
		}
		return false
	}

	decomposed := 0
	for _, b := range g.Blocks {
		next := make([]ir.Instr, 0, len(b.Instrs))
		for k, in := range b.Instrs {
			switch in.Kind {
			case ir.KindAssign:
				if in.RHS.Trivial() || g.IsTemp(in.LHS) || clobbers(b, k, in.RHS) {
					next = append(next, in)
					continue
				}
				h := g.TempFor(in.RHS)
				next = append(next, ir.NewAssign(h, in.RHS), ir.NewAssign(in.LHS, ir.VarTerm(h)))
				decomposed++
			case ir.KindCond:
				l, r := in.CondL, in.CondR
				if !l.Trivial() && !condClobbers(b, k, in, l) {
					h := g.TempFor(l)
					next = append(next, ir.NewAssign(h, l))
					l = ir.VarTerm(h)
					decomposed++
				}
				if !r.Trivial() && !condClobbers(b, k, in, r) {
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
