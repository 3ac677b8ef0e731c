// Package pde implements partial dead code elimination in the style of
// Knoop/Rüthing/Steffen's companion paper [17], which this paper's
// hoistability analysis is the stated dual of (§4.3.2): assignments are
// *sunk* as far as possible in the direction of control flow to their
// latest safe program points, and assignments that thereby become fully
// dead are removed by strong-liveness dead code elimination. Iterating the
// two steps eliminates partially dead assignments — code executed on paths
// that never use its result.
//
// The sinkability analysis is the literal mirror image of Table 1:
//
//	N-SINKABLE_n = false                            if n = s
//	             = ∏_{m ∈ pred(n)} X-SINKABLE_m     otherwise
//	X-SINKABLE_n = LOC-SINKABLE_n + N-SINKABLE_n · ¬LOC-BLOCKED_n
//
//	N-INSERT_n = N-SINKABLE*_n · LOC-BLOCKED_n
//	X-INSERT_n = X-SINKABLE*_n · (n = e + Σ_{m ∈ succ(n)} ¬N-SINKABLE*_m)
//
// where a sinking candidate is the LAST occurrence of a pattern in a block
// not followed by a blocking instruction, and blocking is the same notion
// as for hoisting (the relation is symmetric).
//
// CAUTION: unlike assignment motion, partial dead code elimination is not
// semantics-preserving in the paper's strict sense — removing a dead
// assignment removes potential run-time errors of its right-hand side
// (§3, footnote 3). Under this module's total interpreter semantics it is
// observationally safe; it is offered as an opt-in companion pass, never
// as part of a paper pipeline.
package pde

import (
	"fmt"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/dce"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "pde",
		Description: "partial dead code elimination: sink assignments to latest points, then strong-liveness dce, to a fixpoint",
		Ref:         "§4.3.2 (dual of hoisting); Knoop/Rüthing/Steffen [17]",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			st, err := Run(g, s)
			return pass.Stats{Changes: st.Removed, Iterations: st.Iterations}, err
		},
	})
}

// sinkInfo holds the sinkability analysis result, indexed by block ID.
type sinkInfo struct {
	U *ir.PatternSet

	LocSinkable []bitvec.Vec
	LocBlocked  []bitvec.Vec
	NSinkable   []bitvec.Vec
	XSinkable   []bitvec.Vec
	NInsert     []bitvec.Vec
	XInsert     []bitvec.Vec

	// occ is the pattern ID of every instruction of the analyzed graph.
	// A block's sinking candidate of a LOC-SINKABLE pattern is the
	// pattern's last occurrence there (analysis.Candidates).
	occ *analysis.Occurrences
}

// analyze computes the sinkability analysis and insertion points for g on
// its block view bv, with the solver work tallied into session s and all
// vectors carved from its arena: the result must be consumed before the
// arena is released. Sinking inserts instances in universe order, which is
// first occurrence in g (analysis.NewUniverse), so the output depends on
// the program alone.
func analyze(g *ir.Graph, bv analysis.BlockView, s *analysis.Session) *sinkInfo {
	u, px, occ := analysis.NewUniverse(g)
	ar := s.Arena()
	n, bits := len(g.Blocks), u.Len()
	info := &sinkInfo{
		U:           u,
		LocSinkable: ar.Vecs(n),
		LocBlocked:  ar.Vecs(n),
		occ:         occ,
	}
	for i, b := range g.Blocks {
		info.LocSinkable[i], info.LocBlocked[i] = px.BlockLocalsReverse(b, occ.Block(i), ar)
	}

	entry := int(g.Entry)
	res := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Forward, Meet: dataflow.All,
		Preds: bv.Preds,
		Succs: bv.Succs,
		Order: bv.FwdOrder,
		Arena: ar,
		Stats: s.DataflowStats(),
		// Forward: solver "in" is the fact at the block entry
		// (N-SINKABLE), "out" at its exit (X-SINKABLE) = LOC-SINKABLE ∨
		// (N-SINKABLE ∧ ¬LOC-BLOCKED), the dense gen/kill form.
		Gen:  info.LocSinkable,
		Kill: info.LocBlocked,
		Boundary: func(i int, in bitvec.Vec) {
			if i == entry {
				in.ClearAll()
			}
		},
	})
	info.NSinkable = res.In
	info.XSinkable = res.Out

	info.NInsert = ar.Vecs(n)
	info.XInsert = ar.Vecs(n)
	frontier, full := ar.Vec(bits), ar.Vec(bits)
	full.SetAll()
	for i, b := range g.Blocks {
		ni := ar.Vec(bits)
		ni.CopyAnd(info.NSinkable[i], info.LocBlocked[i])
		info.NInsert[i] = ni

		xi := ar.Vec(bits)
		xi.CopyFrom(info.XSinkable[i])
		if b.ID != g.Exit {
			frontier.ClearAll()
			for _, m := range b.Succs {
				// frontier ∨= ¬N-SINKABLE without materializing the
				// complement.
				frontier.OrAndNot(full, info.NSinkable[int(m)])
			}
			xi.And(frontier)
		}
		info.XInsert[i] = xi
	}
	return info
}

// sink performs one sinking step on g: it inserts instances at all
// insertion points and removes every sinking candidate. Critical edges
// must be split (X-INSERT at a branch node is realized at the entries of
// its successors), and bv is g's block view. The analysis storage comes
// from s's arena, rewound before returning.
func sink(g *ir.Graph, bv analysis.BlockView, s *analysis.Session) {
	ar := s.Arena()
	m := ar.Mark()
	defer ar.Release(m)
	info := analyze(g, bv, s)

	prepend := make([][]ir.Instr, len(g.Blocks))
	appendAtEnd := make([][]ir.Instr, len(g.Blocks))

	for i, b := range g.Blocks {
		if info.XInsert[i].Any() {
			instrs := patternsToInstrs(info.U, info.XInsert[i])
			if _, branch := b.Cond(); branch {
				for _, s := range b.Succs {
					if len(g.Block(s).Preds) != 1 {
						panic(fmt.Sprintf("pde: X-INSERT at branch node %s with unsplit critical edge", b.Name))
					}
					prepend[int(s)] = append(prepend[int(s)], instrs...)
				}
			} else {
				appendAtEnd[i] = append(appendAtEnd[i], instrs...)
			}
		}
	}
	for i := range g.Blocks {
		if info.NInsert[i].Any() {
			// Sunk instances stop just above this (blocked) block: they
			// execute before anything already at the block entry.
			prepend[i] = append(patternsToInstrs(info.U, info.NInsert[i]), prepend[i]...)
		}
	}

	for i, b := range g.Blocks {
		drop := analysis.Candidates(info.occ.Block(i), info.LocSinkable[i], true, ar)
		next := make([]ir.Instr, 0, len(prepend[i])+len(b.Instrs)+len(appendAtEnd[i]))
		next = append(next, prepend[i]...)
		for k, in := range b.Instrs {
			if !drop.Get(k) {
				next = append(next, in)
			}
		}
		next = append(next, appendAtEnd[i]...)
		b.Instrs = next
	}
	g.Normalize()
}

// Stats reports what one pde run did.
type Stats struct {
	// Iterations is the number of sink+dce rounds.
	Iterations int
	// Removed is the number of assignments removed as dead.
	Removed int
}

// Run applies partial dead code elimination to g in place: critical edges
// are split, then sinking and strong-liveness dead code elimination
// alternate until the program stabilizes. The sinkability and
// strong-liveness solves report their work into session s. Each round
// honours the session's budget and cancellation context, with the round
// count capped by fault.Budget.MaxAMIterations as in the AM phase, and an
// iteration-limit overrun returns a *fault.NoFixpointError; on error the
// graph is the valid result of the last completed step.
func Run(g *ir.Graph, s *analysis.Session) (Stats, error) {
	var st Stats
	g.SplitCriticalEdges()
	// Rounds only insert and remove assignments: the block view of the
	// split graph holds for the whole run.
	bv := analysis.NewBlockView(g)
	limit := analysis.RoundLimit(g)
	for {
		st.Iterations++
		if st.Iterations > limit {
			st.Iterations = limit
			return st, &fault.NoFixpointError{Proc: "pde", Iterations: limit, Limit: limit}
		}
		if err := s.CheckBudget(st.Iterations); err != nil {
			st.Iterations--
			return st, err
		}
		before := g.Encode()
		sink(g, bv, s)
		removed, _, err := dce.Run(g, s)
		st.Removed += removed
		if err != nil {
			return st, err
		}
		if g.Encode() == before {
			return st, nil
		}
	}
}

func patternsToInstrs(u *ir.PatternSet, v bitvec.Vec) []ir.Instr {
	var out []ir.Instr
	v.ForEach(func(id int) {
		p := u.Pattern(id)
		out = append(out, ir.NewAssign(p.LHS, p.RHS))
	})
	return out
}
