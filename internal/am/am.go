// Package am drives the paper's assignment motion phase: the exhaustive
// fixpoint of assignment hoisting (internal/aht) and redundant assignment
// elimination (internal/rae). Iterating the two procedures until the
// program stabilizes is what captures all second-order effects —
// hoisting-elimination, hoisting-hoisting, elimination-hoisting, and
// elimination-elimination (§4.3).
//
// The package also implements the restricted baseline of Dhamdhere [6]
// discussed in §1.4, which only performs "immediately profitable"
// hoistings — those that enable the elimination of an occurrence of the
// hoisted pattern — and therefore misses second-order effects (Figure 8).
//
// Fixpoint detection is signal-based: aht.ApplyWith reports precisely
// whether it changed any instruction sequence and rae's removal count is
// zero exactly when it left the program alone, so a round with
// !hoisted && removed == 0 is the fixpoint. The iteration limit stays as
// a backstop that turns a termination bug into a typed failure instead of
// a hang: TryRunWith, TryRunRestrictedWith and RunEliminateFirst return
// it as a *fault.NoFixpointError, and each round additionally honours the
// session's budget and cancellation context (fault.ErrBudgetExceeded /
// fault.ErrCanceled). Run and RunRestricted are the panicking forms on a
// fresh session; RunBounded caps the rounds instead of failing.
package am

import (
	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/rae" // block-level elimination: identical results (see rae.EliminateBlocks), smaller solver
)

func init() {
	pass.Register(pass.Pass{
		Name:        "am",
		Description: "exhaustive assignment motion: the aht/rae fixpoint capturing all second-order effects",
		Ref:         "§4.3, Tables 1–2, Lemma 4.2",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st, err := TryRunWith(g, s)
			return pass.Stats{Changes: st.Eliminated, Iterations: st.Iterations}, err
		},
	})
	pass.Register(pass.Pass{
		Name:        "am-restricted",
		Description: "Dhamdhere-style restricted AM: only immediately profitable hoistings (misses second-order effects)",
		Ref:         "§1.4, Figure 8; Dhamdhere [6]",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st, err := TryRunRestrictedWith(g, s)
			return pass.Stats{Changes: st.Eliminated, Iterations: st.Iterations}, err
		},
	})
}

// Stats reports what one AM-phase run did.
type Stats struct {
	// Iterations is the number of hoist+eliminate rounds until
	// stabilization (at least 1; the final round observes no change).
	Iterations int
	// Eliminated is the total number of assignment occurrences removed
	// by redundant assignment elimination.
	Eliminated int
	// SplitEdges is the number of critical edges split up front.
	SplitEdges int
}

// Run applies the assignment motion phase to g in place: it splits
// critical edges, then alternates aht and rae until the program is
// invariant under both. The result is relatively assignment-optimal in the
// universe G* (Lemma 4.2). It panics if the fixpoint fails (see
// TryRunWith).
func Run(g *ir.Graph) Stats {
	s := analysis.NewSession()
	defer s.Close()
	st, err := TryRunWith(g, s)
	if err != nil {
		panic("am: " + err.Error())
	}
	return st
}

// TryRunWith is the fallible core of the assignment-motion phase, against
// an existing session so a caller driving several phases (core.Optimize)
// shares one arena and one universe cache across all of them. An
// iteration-limit overrun returns a *fault.NoFixpointError; an exhausted
// session budget or a canceled session context returns the corresponding
// typed fault error. In every error case the graph is left in the valid,
// semantics-preserved state of the last completed round — each round is a
// complete admissible transformation, so stopping between rounds never
// corrupts the program (it is merely not optimal yet).
func TryRunWith(g *ir.Graph, s *analysis.Session) (Stats, error) {
	var st Stats
	st.SplitEdges = g.SplitCriticalEdges()
	limit := iterationLimit(g)
	for {
		st.Iterations++
		if st.Iterations > limit {
			st.Iterations = limit
			return st, &fault.NoFixpointError{Proc: "am", Iterations: limit, Limit: limit}
		}
		if err := s.CheckBudget(st.Iterations); err != nil {
			st.Iterations--
			return st, err
		}
		hoisted := aht.ApplyWith(g, s, nil)
		removed := rae.EliminateBlocksWith(g, s)
		st.Eliminated += removed
		// aht's report is textual-change-precise and rae only deletes, so a
		// hoisting round can never be silently undone by the elimination
		// that follows it: no change in either procedure is the fixpoint.
		if !hoisted && removed == 0 {
			return st, nil
		}
	}
}

// RunBounded is Run with the number of hoist+eliminate rounds capped at
// maxIterations — the §7 mitigation for time-critical compilation
// ("alternatively, one may limit the number of allowed hoisting and
// elimination steps heuristically"). The result is still semantics
// preserving and never worse than the input; it is simply not guaranteed
// to be relatively optimal when the cap bites. A cap <= 0 means one round.
func RunBounded(g *ir.Graph, maxIterations int) Stats {
	if maxIterations <= 0 {
		maxIterations = 1
	}
	s := analysis.NewSession()
	defer s.Close()
	var st Stats
	st.SplitEdges = g.SplitCriticalEdges()
	for st.Iterations < maxIterations {
		st.Iterations++
		hoisted := aht.ApplyWith(g, s, nil)
		removed := rae.EliminateBlocksWith(g, s)
		st.Eliminated += removed
		if !hoisted && removed == 0 {
			return st
		}
	}
	return st
}

// RunEliminateFirst is Run with the two procedures applied in the
// opposite order within each round (rae before aht), reporting fixpoint
// failure as a typed error like TryRunWith. By the local confluence of
// the rewrite relation (Lemma 3.6) both orders reach cost-equivalent
// fixpoints; the verify package checks this empirically.
func RunEliminateFirst(g *ir.Graph) (Stats, error) {
	s := analysis.NewSession()
	defer s.Close()
	var st Stats
	st.SplitEdges = g.SplitCriticalEdges()
	limit := iterationLimit(g)
	for {
		st.Iterations++
		if st.Iterations > limit {
			st.Iterations = limit
			return st, &fault.NoFixpointError{Proc: "am (eliminate-first)", Iterations: limit, Limit: limit}
		}
		if err := s.CheckBudget(st.Iterations); err != nil {
			st.Iterations--
			return st, err
		}
		removed := rae.EliminateBlocksWith(g, s)
		st.Eliminated += removed
		hoisted := aht.ApplyWith(g, s, nil)
		if removed == 0 && !hoisted {
			return st, nil
		}
	}
}

// RunRestricted applies Dhamdhere-style restricted assignment motion: a
// hoisting of pattern α is performed only when it is immediately
// profitable, i.e. when hoisting α (followed by redundant assignment
// elimination) strictly decreases the number of occurrences of α. Rounds
// repeat until no profitable hoisting remains. Redundant assignment
// elimination itself is always applied — the restriction is on hoisting
// only, matching [6]. Panics on fixpoint failure (see
// TryRunRestrictedWith).
func RunRestricted(g *ir.Graph) Stats {
	s := analysis.NewSession()
	defer s.Close()
	st, err := TryRunRestrictedWith(g, s)
	if err != nil {
		panic("am: " + err.Error())
	}
	return st
}

// TryRunRestrictedWith is the fallible core of restricted AM, with the
// same error contract as TryRunWith.
func TryRunRestrictedWith(g *ir.Graph, s *analysis.Session) (Stats, error) {
	var st Stats
	st.SplitEdges = g.SplitCriticalEdges()
	limit := iterationLimit(g)
	for {
		st.Iterations++
		if st.Iterations > limit {
			st.Iterations = limit
			return st, &fault.NoFixpointError{Proc: "am-restricted", Iterations: limit, Limit: limit}
		}
		if err := s.CheckBudget(st.Iterations); err != nil {
			st.Iterations--
			return st, err
		}
		removed := rae.EliminateBlocksWith(g, s)
		st.Eliminated += removed
		changed := removed > 0

		// The session universe may carry patterns whose occurrences are all
		// gone by now; profitableSet reports false for those (occurrence
		// count 0), so the stale entries are harmless.
		u, _, _ := s.Universe(g)
		pats := u.Patterns()
		prof := profitableSet(g, pats)
		for i, p := range pats {
			if !prof[i] {
				continue
			}
			hoisted := aht.ApplyWith(g, s, func(q ir.AssignPattern) bool { return q == p })
			r := rae.EliminateBlocksWith(g, s)
			st.Eliminated += r
			if hoisted || r > 0 {
				changed = true
				// The graph evolved: admission decisions for the patterns
				// still ahead must be re-derived from the new state —
				// hoisting one chain link can make the next one profitable
				// within the same round (and, conversely, consume the
				// profit of a later pattern). One batched trial per CHANGE
				// instead of one clone per PATTERN: rounds where nothing
				// fires cost a single trial.
				copy(prof[i+1:], profitableSet(g, pats)[i+1:])
			}
		}
		if !changed {
			return st, nil
		}
	}
}

// profitableSet computes Dhamdhere's admission test — hoisting pattern p
// followed by elimination strictly decreases p's occurrence count — for
// every pattern of the universe in ONE batched trial: clone g once, hoist
// all patterns simultaneously, eliminate, and compare the per-pattern
// (masked) occurrence counts against the originals. The per-pattern
// hoisting analyses are independent (see aht.ApplyMasked), so the
// combined trial observes the same per-pattern deltas as |pats| solo
// trials would — the pin tests in restricted_pin_test.go certify batched
// admission byte-identical to the historical per-pattern-clone version
// across the golden corpus and a generated sweep. The trial runs on the
// uncached nil-session path; sharing the caller's session would rebind
// its caches to the throwaway graph.
func profitableSet(g *ir.Graph, pats []ir.AssignPattern) []bool {
	prof := make([]bool, len(pats))
	before := make([]int, len(pats))
	candidates := 0
	for i, p := range pats {
		before[i] = g.CountPattern(p)
		if before[i] > 0 {
			candidates++
		}
	}
	if candidates == 0 {
		return prof
	}
	trial := g.Clone()
	aht.Apply(trial)
	rae.EliminateBlocks(trial)
	for i, p := range pats {
		if before[i] > 0 && trial.CountPattern(p) < before[i] {
			prof[i] = true
		}
	}
	return prof
}

// iterationLimit bounds the fixpoint loop. §4.5 shows the number of
// procedure applications is at most quadratic in the program size; the
// limit is well above that and only exists to turn a termination bug into
// a loud failure instead of a hang.
func iterationLimit(g *ir.Graph) int {
	n := g.InstrCount() + len(g.Blocks)
	return 4*n*n + 64
}
