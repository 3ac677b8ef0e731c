// Package lcm implements the expression-motion baseline: lazy code motion
// in the sense of Knoop/Rüthing/Steffen (PLDI'92, TOPLAS'94), the "separate
// effect of EM" shown in Figure 6(a) of the paper.
//
// The implementation exploits the paper's own Initialization Phase Lemma
// (Lemma 4.1): after decomposing every assignment x := t into
// h_t := t; x := h_t, every admissible expression motion corresponds to an
// admissible assignment motion of the initialization patterns h_ε := ε
// alone. Lazy code motion is therefore realized as
//
//  1. the initialization decomposition (internal/core.Initialize),
//  2. the aht/rae fixpoint restricted to h_ε := ε patterns — hoisting to
//     earliest down-safe points and eliminating redundant computations —
//  3. the final flush (internal/flush), which is the "lazy" part: it sinks
//     initializations to their latest points (minimal lifetimes) and
//     removes or reconstructs unusable ones, exactly as lcm's delayability
//     and isolation analyses do.
//
// The crucial difference from the full global algorithm is that the
// original assignments x := h_t never move and are never eliminated; EM
// consequently misses every second-order effect between assignments and
// expressions (§1.2).
package lcm

import (
	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "em",
		Description: "expression-motion baseline: lazy code motion over initialization patterns (original assignments never move)",
		Ref:         "§1.2, Figure 6(a); Knoop/Rüthing/Steffen PLDI'92",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st, err := Run(g, s)
			return pass.Stats{Changes: st.Decomposed + st.Eliminated, Iterations: st.Iterations}, err
		},
	})
}

// Stats reports what one lazy-code-motion run did.
type Stats struct {
	// Decomposed is the number of sites split by initialization.
	Decomposed int
	// Iterations is the number of hoist+eliminate rounds.
	Iterations int
	// Eliminated is the number of redundant initializations removed.
	Eliminated int
	// Flush carries the final flush statistics.
	Flush flush.Stats
}

// Run applies lazy code motion to g in place against session s, so a
// caller driving several passes (the pass pipeline, the §6 EM/CP
// interleaving) shares one arena across all of them. The hoist+eliminate
// rounds are the AM phase's loop (am.Fixpoint) restricted to the
// initialization patterns, on one encoding of the graph, with its error
// contract: on error the graph is the valid, semantics-preserved program
// of the last completed round, not yet flushed.
func Run(g *ir.Graph, s *analysis.Session) (Stats, error) {
	var st Stats
	g.SplitCriticalEdges()
	st.Decomposed = core.Initialize(g)
	if err := motion(g, s, &st); err != nil {
		return st, err
	}
	st.Flush = flush.Run(g, s)
	return st, nil
}

// motion runs the hoist+eliminate rounds over the initialization patterns
// on one encoding of g, written back on every return path.
func motion(g *ir.Graph, s *analysis.Session, st *Stats) error {
	c, done := analysis.Encode(g, s)
	defer done()
	// The universe and the temp registry are fixed for the phase, so the
	// initialization patterns h_ε := ε are one vector.
	isInit := s.Arena().Vec(c.U.Len())
	for id, p := range c.U.Patterns() {
		if e, ok := g.TempExpr(p.LHS); ok && e.Equal(p.RHS) {
			isInit.Set(id)
		}
	}
	ms, err := am.Fixpoint(c, s, isInit)
	st.Iterations, st.Eliminated = ms.Iterations, ms.Eliminated
	return err
}
