// Package aht implements assignment hoisting — procedure "aht" of the
// paper's assignment motion phase (Table 1).
//
// For every assignment pattern α a backward bit-vector analysis over basic
// blocks determines how far hoisting candidates of α (Figure 13) can move
// against the control flow:
//
//	X-HOISTABLE_n = false                          if n = e
//	              = ∏_{m ∈ succ(n)} N-HOISTABLE_m  otherwise
//	N-HOISTABLE_n = LOC-HOISTABLE_n + X-HOISTABLE_n · ¬LOC-BLOCKED_n
//
// The greatest solution yields the insertion points:
//
//	N-INSERT_n = N-HOISTABLE*_n · (n = s  +  Σ_{m ∈ pred(n)} ¬X-HOISTABLE*_m)
//	X-INSERT_n = X-HOISTABLE*_n · LOC-BLOCKED_n
//
// The insertion step places an instance of α at every insert point and
// simultaneously removes all hoisting candidates. Patterns inserted at one
// point are independent (paper, §4.3.2) and are placed in order of first
// occurrence in the program.
//
// The step runs on the pattern-ID encoding of the program (Step over an
// analysis.Code), which the assignment motion phase keeps across all of its
// rounds; the registered "aht" pass encodes, runs one step and writes
// back.
package aht

import (
	"fmt"
	"slices"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "aht",
		Description: "one assignment-hoisting step: insert at maximal-hoisting points, remove all candidates",
		Ref:         "§4.3, Table 1, Figure 13",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			g.SplitCriticalEdges() // X-INSERT at branch nodes needs split edges
			c, done := analysis.Encode(g, s)
			defer done()
			changes := 0
			if Step(c, s, bitvec.Vec{}) {
				changes = 1
			}
			return pass.Stats{Changes: changes, Iterations: 1}, nil
		},
	})
}

// Info holds the analysis result, indexed by block ID. The vectors live
// in the session's arena and are only valid until the caller releases it.
// LocHoistable and LocBlocked are the encoding's own per-block local
// predicates (analysis.Code.Locals): read-only, and valid only until the
// next step rewrites the encoding.
type Info struct {
	U *ir.PatternSet

	LocHoistable []bitvec.Vec
	LocBlocked   []bitvec.Vec
	NHoistable   []bitvec.Vec
	XHoistable   []bitvec.Vec
	NInsert      []bitvec.Vec
	XInsert      []bitvec.Vec

	// occRank[patternID] ranks patterns by first occurrence in the
	// analyzed program (-1 when absent). Insertion points place their
	// patterns in this order: pattern IDs follow first occurrence in the
	// program as it was encoded, and the rounds run on one encoding
	// reorder first occurrences, so raw ID order would depend on the
	// rounds before, while first-occurrence order is a property of the
	// current program alone — it keeps the fixpoint canonical and
	// byte-identical to an implementation that renumbered the universe
	// every round.
	occRank []int
}

// Analyze computes the hoistability analysis and insertion points for g
// over its encoding (analysis.NewCode), with vector storage drawn from s.
// The returned Info shares the session's arena; it must be consumed before
// the arena is released.
func Analyze(g *ir.Graph, s *analysis.Session) *Info {
	return analyze(analysis.NewCode(g, s), s)
}

// analyze computes the hoistability analysis and insertion points of the
// encoded program c on its block view, with storage from s's arena.
func analyze(c *analysis.Code, s *analysis.Session) *Info {
	g := c.G
	ar := s.Arena()
	bv := c.View
	n, bits := len(g.Blocks), c.U.Len()
	info := &Info{
		U:            c.U,
		LocHoistable: ar.Vecs(n),
		LocBlocked:   ar.Vecs(n),
	}
	for i := range n {
		info.LocHoistable[i], info.LocBlocked[i] = c.Locals(i)
	}

	info.occRank = ar.Ints(bits)
	for id := range info.occRank {
		info.occRank[id] = -1
	}
	next := 0
	for i := range n {
		for _, id := range c.Block(i) {
			if id >= 0 && info.occRank[id] < 0 {
				info.occRank[id] = next
				next++
			}
		}
	}

	exit := int(g.Exit)
	res := dataflow.Solve(dataflow.Problem{
		N:     n,
		Bits:  bits,
		Dir:   dataflow.Backward,
		Meet:  dataflow.All,
		Preds: bv.Preds,
		Succs: bv.Succs,
		Order: bv.BwdOrder,
		Arena: ar,
		Stats: s.DataflowStats(),
		// For a Backward problem the solver's "in" is the fact at the
		// block's exit (X-HOISTABLE) and "out" the fact at its entry
		// (N-HOISTABLE): N-HOISTABLE = LOC-HOISTABLE ∨ (X-HOISTABLE ∧
		// ¬LOC-BLOCKED), the dense gen/kill form.
		Gen:  info.LocHoistable,
		Kill: info.LocBlocked,
		Boundary: func(i int, in bitvec.Vec) {
			if i == exit {
				in.ClearAll()
			}
		},
	})
	info.XHoistable = res.In
	info.NHoistable = res.Out

	info.NInsert = ar.Vecs(n)
	info.XInsert = ar.Vecs(n)
	frontier, full := ar.Vec(bits), ar.Vec(bits)
	full.SetAll()
	for i, b := range g.Blocks {
		// N-INSERT: hoistable at the entry and reaching the frontier —
		// the start node, or some predecessor whose exit is not hoistable.
		ni := ar.Vec(bits)
		ni.CopyFrom(info.NHoistable[i])
		if b.ID != g.Entry {
			frontier.ClearAll()
			for _, p := range b.Preds {
				// frontier ∨= ¬X-HOISTABLE, without materializing the
				// complement.
				frontier.OrAndNot(full, info.XHoistable[int(p)])
			}
			ni.And(frontier)
		}
		info.NInsert[i] = ni

		xi := ar.Vec(bits)
		xi.CopyAnd(info.XHoistable[i], info.LocBlocked[i])
		info.XInsert[i] = xi
	}
	return info
}

// Step performs one hoisting step on the encoded program c: it inserts
// instances at all N-INSERT/X-INSERT points, removes every hoisting
// candidate, and reports whether any block's sequence changed. keep
// restricts the step to the patterns it holds; the zero Vec keeps every
// pattern. The per-pattern analyses are independent, so restricting the
// transformation to a subset of patterns is sound; the Dhamdhere-style
// "immediately profitable" baseline hoists one pattern at a time this way.
// Analysis storage and scratch come from s's arena and are released
// before returning.
//
// c's graph must have its critical edges split: X-INSERT at a branch
// node is realized by inserting at the entry of each successor, which edge
// splitting guarantees to have that branch node as its only predecessor.
//
// A round may remove a candidate and re-insert the same pattern at the
// same point (a candidate already at its earliest position); comparing
// each block's ID sequence with its previous one reports such a round as
// unchanged, so the fixpoint loops terminate. Only a changed block is
// written back (analysis.Code.SetBlock), so only its local predicates are
// recomputed by the next analysis.
func Step(c *analysis.Code, s *analysis.Session, keep bitvec.Vec) bool {
	ar := s.Arena()
	m := ar.Mark()
	defer ar.Release(m)

	info := analyze(c, s)
	// LocHoistable is the encoding's own storage, so keep masks a scratch
	// copy of each block's vector where the candidates are removed.
	var masked bitvec.Vec
	if keep.Len() > 0 {
		masked = ar.Vec(keep.Len())
		for i := range c.G.Blocks {
			info.NInsert[i].And(keep)
			info.XInsert[i].And(keep)
		}
	}

	// Exit-inserts of branch nodes become entry-inserts of their
	// successors, ordered before the successors' own N-INSERTs (the edge
	// point precedes the node entry).
	g := c.G
	for i, b := range g.Blocks {
		if c.Branch(i) && info.XInsert[i].Any() {
			for _, succ := range b.Succs {
				if len(g.Block(succ).Preds) != 1 {
					panic(fmt.Sprintf("aht: X-INSERT at branch node %s with unsplit critical edge to %s",
						b.Name, g.Block(succ).Name))
				}
			}
		}
	}

	changed := false
	for i, b := range g.Blocks {
		var edge, tail bitvec.Vec
		if len(b.Preds) == 1 && c.Branch(int(b.Preds[0])) {
			edge = info.XInsert[int(b.Preds[0])]
		}
		if !c.Branch(i) {
			tail = info.XInsert[i]
		}
		head, loc := info.NInsert[i], info.LocHoistable[i]
		if keep.Len() > 0 {
			masked.CopyAnd(loc, keep)
			loc = masked
		}
		// Untouched block: no candidate to remove, nothing to insert.
		if !loc.Any() && !head.Any() && !edge.Any() && !tail.Any() {
			continue
		}
		ids := c.Block(i)
		// Remove hoisting candidates (at most one per pattern per block).
		drop := analysis.Candidates(ids, loc, false, ar)
		next := ar.Ints(len(ids) + edge.PopCount() + head.PopCount() + tail.PopCount())[:0]
		next = info.appendRanked(next, edge)
		next = info.appendRanked(next, head)
		for k, id := range ids {
			if !drop.Get(k) {
				next = append(next, id)
			}
		}
		next = info.appendRanked(next, tail)
		if !slices.Equal(next, ids) {
			changed = true
			c.SetBlock(i, next)
		}
	}
	return changed
}

// appendRanked appends to dst every pattern set in v, ordered by first
// occurrence in the analyzed program (occRank). The appended run is
// insertion-sorted in place: the sets are tiny and sort.Slice's reflection
// allocates.
func (info *Info) appendRanked(dst []int, v bitvec.Vec) []int {
	start := len(dst)
	for id := v.Next(0); id >= 0; id = v.Next(id + 1) {
		dst = append(dst, id)
	}
	ids, rank := dst[start:], info.occRank
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && rank[ids[j]] < rank[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return dst
}
