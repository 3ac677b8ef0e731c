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
// Every loop encodes its graph once (analysis.Encode): each block
// becomes the pattern IDs of its assignments plus references to its out
// and branch instructions, which aht and rae never move. All rounds run
// aht.Step and rae.Step on that encoding, and Block.Instrs is written
// back once, followed by one Normalize — on every return path, so an
// error leaves the graph at the last completed round. The encoding keeps
// each block's Table 1 and Table 2 local predicates for the whole loop; a
// step rewrites a block only through analysis.Code.SetBlock, which marks
// it, so each round recomputes only the blocks the steps before it
// rewrote. RunRestricted's trial copy (analysis.Code.Copy) carries its own
// copy of them.
// Fixpoint is the one aht/rae loop: Run drives it over every pattern, and
// lazy code motion (internal/lcm) over the initialization patterns.
//
// Fixpoint detection is signal-based: aht.Step reports precisely whether
// it changed any block's ID sequence and rae's removal count is zero
// exactly when it left the program alone, so a round with
// !hoisted && removed == 0 is the fixpoint. The iteration limit
// (analysis.RoundLimit) stays as a backstop that turns a termination bug
// into a *fault.NoFixpointError instead of a hang, and each round
// additionally honours the session's budget and cancellation context
// (fault.ErrBudgetExceeded / fault.ErrCanceled). The budget's
// MaxAMIterations caps the rounds: the §7 mitigation for time-critical
// compilation.
package am

import (
	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/rae"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "am",
		Description: "exhaustive assignment motion: the aht/rae fixpoint capturing all second-order effects",
		Ref:         "§4.3, Tables 1–2, Lemma 4.2",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st, err := Run(g, s)
			return pass.Stats{Changes: st.Eliminated, Iterations: st.Iterations}, err
		},
	})
	pass.Register(pass.Pass{
		Name:        "am-restricted",
		Description: "Dhamdhere-style restricted AM: only immediately profitable hoistings (misses second-order effects)",
		Ref:         "§1.4, Figure 8; Dhamdhere [6]",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st, err := RunRestricted(g, s)
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
// universe G* (Lemma 4.2). The session shares one arena with the caller's
// other phases (core.Phases). An iteration-limit
// overrun returns a *fault.NoFixpointError; an exhausted session budget or
// a canceled session context returns the corresponding typed fault error.
// In every error case the graph is left in the valid, semantics-preserved
// state of the last completed round — each round is a complete admissible
// transformation, so stopping between rounds never corrupts the program
// (it is merely not optimal yet).
func Run(g *ir.Graph, s *analysis.Session) (Stats, error) {
	split := g.SplitCriticalEdges()
	c, done := analysis.Encode(g, s)
	defer done()
	st, err := Fixpoint(c, s, bitvec.Vec{})
	st.SplitEdges = split
	return st, err
}

// Fixpoint alternates aht.Step and rae.Step on the encoded program c
// until a round changes nothing, with Run's error contract. keep
// restricts both procedures to the patterns it holds, as in aht.Step: the
// zero Vec keeps every pattern, and the initialization patterns h_ε := ε
// make the loop expression motion (Lemma 4.1, internal/lcm). SplitEdges is
// left zero; c's graph must have its critical edges split.
func Fixpoint(c *analysis.Code, s *analysis.Session, keep bitvec.Vec) (Stats, error) {
	var st Stats
	limit := analysis.RoundLimit(c.G)
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
		hoisted := aht.Step(c, s, keep)
		removed := rae.Step(c, s, keep)
		st.Eliminated += removed
		// aht's report is change-precise and rae only deletes, so a
		// hoisting round can never be silently undone by the elimination
		// that follows it: no change in either procedure is the fixpoint.
		if !hoisted && removed == 0 {
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
// only, matching [6]. The error contract is Run's.
func RunRestricted(g *ir.Graph, s *analysis.Session) (Stats, error) {
	var st Stats
	st.SplitEdges = g.SplitCriticalEdges()
	limit := analysis.RoundLimit(g)
	c, done := analysis.Encode(g, s)
	defer done()
	// The universe may carry patterns whose occurrences are all gone by
	// now; profitableSet never admits those (occurrence count 0), so the
	// stale entries are harmless.
	bits := c.U.Len()
	prof, only := s.Arena().Vec(bits), s.Arena().Vec(bits)
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
		removed := rae.Step(c, s, bitvec.Vec{})
		st.Eliminated += removed
		changed := removed > 0

		profitableSet(c, s, prof)
		for id := prof.Next(0); id >= 0; id = prof.Next(id + 1) {
			only.Set(id)
			hoisted := aht.Step(c, s, only)
			only.Clear(id)
			r := rae.Step(c, s, bitvec.Vec{})
			st.Eliminated += r
			if hoisted || r > 0 {
				changed = true
				// The program evolved: admission decisions for the
				// patterns still ahead must be re-derived from the new
				// state — hoisting one chain link can make the next one
				// profitable within the same round (and, conversely,
				// consume the profit of a later pattern). One batched
				// trial per CHANGE instead of one per PATTERN: rounds
				// where nothing fires cost a single trial. The loop reads
				// only the bits above id, so refreshing all of prof is
				// the same as refreshing those.
				profitableSet(c, s, prof)
			}
		}
		if !changed {
			return st, nil
		}
	}
}

// profitableSet computes into prof Dhamdhere's admission test — hoisting
// pattern p followed by elimination strictly decreases p's occurrence
// count — for every pattern of the universe in ONE batched trial: copy the
// encoded blocks once, hoist all patterns simultaneously, eliminate, and
// compare the per-pattern occurrence counts against the originals. The
// per-pattern hoisting analyses are independent (see aht.Step), so
// the combined trial observes the same per-pattern deltas as one solo
// trial per pattern would — the pin tests in restricted_pin_test.go
// certify batched admission byte-identical to the historical
// per-pattern-clone version across the golden corpus and a generated
// sweep.
func profitableSet(c *analysis.Code, s *analysis.Session, prof bitvec.Vec) {
	prof.ClearAll()
	ar := s.Arena()
	m := ar.Mark()
	defer ar.Release(m)
	before := countIDs(c, ar)
	// The trial's solver work is scratch, not the phase's: it is taken
	// back out of the session's tally, so per-pass Dataflow counts and
	// the MaxSolverVisits budget see only the rounds that rewrite g.
	df := s.DataflowStats()
	saved := *df
	defer func() { *df = saved }()
	trial := c.Copy(ar)
	aht.Step(trial, s, bitvec.Vec{})
	rae.Step(trial, s, bitvec.Vec{})
	after := countIDs(trial, ar)
	for id, n := range before {
		if n > 0 && after[id] < n {
			prof.Set(id)
		}
	}
}

// countIDs returns the number of occurrences of every pattern of c, in
// storage carved from ar.
func countIDs(c *analysis.Code, ar *arena.Arena) []int {
	counts := ar.Ints(c.U.Len())
	for i := range c.G.Blocks {
		for _, id := range c.Block(i) {
			if id >= 0 {
				counts[id]++
			}
		}
	}
	return counts
}
