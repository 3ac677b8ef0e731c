// Package emcp implements the §6 interleaving of expression motion and
// copy propagation (Figure 20(a), cf. [8]): lazy code motion alternates
// with global copy propagation until the program stabilizes. This is the
// classical workaround for 3-address decomposition blocking expression
// motion — copy propagation re-exposes motion opportunities that the
// decomposition's copies hide — and the baseline the paper's uniform
// algorithm is measured against.
//
// The interleaving is capped at 16 rounds: unlike the AM fixpoint it has
// no termination guarantee in general (§6 notes the interaction is ad
// hoc), and 16 rounds is far beyond what any of the corpus programs need.
package emcp

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/copyprop"
	"assignmentmotion/internal/gvn"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/lcm"
	"assignmentmotion/internal/pass"
)

// MaxRounds caps the EM/CP interleaving.
const MaxRounds = 16

func init() {
	pass.Register(pass.Pass{
		Name:        "emcp",
		Description: "EM/CP interleaving: lazy code motion alternating with copy propagation to a (capped) fixpoint",
		Ref:         "§6, Figure 20(a); cf. [8]",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st, err := Run(g, s)
			return pass.Stats{
				Changes:    st.Eliminated + st.Replaced,
				Iterations: st.Rounds,
			}, err
		},
	})
	pass.Register(pass.Pass{
		Name:        "gvn-emcp",
		Description: "GVN/EM/CP interleaving: value numbering before each EM/CP round, measuring the GVN->AM second-order effect",
		Ref:         "§6, Figure 20(a) + Saleena & Paleri, arXiv:1303.1880",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st, err := RunGVN(g, s)
			return pass.Stats{
				Changes:    st.Numbered + st.Eliminated + st.Replaced,
				Iterations: st.Rounds,
			}, err
		},
	})
}

// Stats reports what one EM/CP interleaving run did.
type Stats struct {
	// Rounds is the number of EM+CP rounds until stabilization (or the
	// MaxRounds cap).
	Rounds int
	// Decomposed is the total number of sites split by the EM rounds'
	// initialization phases.
	Decomposed int
	// Eliminated is the total number of redundant initializations removed
	// by the EM rounds.
	Eliminated int
	// Replaced is the total number of operand occurrences rewritten by the
	// copy propagation rounds.
	Replaced int
	// Numbered is the total number of recomputations rewritten into copies
	// by the value-numbering rounds (gvn-emcp only; zero for plain emcp).
	Numbered int
}

// Run applies the EM/CP interleaving to g in place against session s:
// every EM and CP round shares one arena instead of rebuilding it per
// round. Each round honours the session's budget and
// cancellation context, so an engine deadline interrupts the interleaving
// between rounds instead of between graphs. On error the graph is left
// valid and semantics-preserved (see interleave).
func Run(g *ir.Graph, s *analysis.Session) (Stats, error) {
	return interleave(g, s, false)
}

// RunGVN applies the GVN/EM/CP interleaving to g in place: every
// round first rewrites equivalent recomputations into copies by global
// value numbering, then runs lazy code motion and copy propagation.
// Running GVN first shrinks the expression-pattern universe the motion
// analyses range over — the second-order interaction the gvn-emcp
// composite exists to measure. The session, budget and cancellation
// contract is Run's.
func RunGVN(g *ir.Graph, s *analysis.Session) (Stats, error) {
	return interleave(g, s, true)
}

// interleave runs the (optionally GVN-prefixed) EM/CP rounds to a capped
// fixpoint. Every round, and every step within one, is a complete,
// semantics-preserving transformation, so on error the graph is valid: the
// result of the last completed step.
func interleave(g *ir.Graph, s *analysis.Session, withGVN bool) (Stats, error) {
	var st Stats
	for st.Rounds < MaxRounds {
		st.Rounds++
		if err := s.CheckBudget(st.Rounds); err != nil {
			st.Rounds--
			return st, err
		}
		before := g.Encode()
		if withGVN {
			numbered, _, err := gvn.Run(g, s)
			st.Numbered += numbered
			if err != nil {
				return st, err
			}
		}
		em, err := lcm.Run(g, s)
		st.Decomposed += em.Decomposed
		st.Eliminated += em.Eliminated
		if err != nil {
			return st, err
		}
		replaced, _, err := copyprop.Run(g, s)
		st.Replaced += replaced
		if err != nil {
			return st, err
		}
		if g.Encode() == before {
			return st, nil
		}
	}
	return st, nil
}
