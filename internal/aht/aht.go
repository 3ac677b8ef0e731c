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
// point are independent (paper, §4.3.2) and are placed in pattern-ID order.
package aht

import (
	"fmt"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/arena"
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
			changes := 0
			if ApplyWith(g, s, nil) {
				changes = 1
			}
			return pass.Stats{Changes: changes, Iterations: 1}, nil
		},
	})
}

// Info holds the analysis result, indexed by block ID. When it was
// computed through a session (AnalyzeWith), the vectors live in the
// session's arena and are only valid until the caller releases it.
type Info struct {
	U *ir.PatternSet

	LocHoistable []bitvec.Vec
	LocBlocked   []bitvec.Vec
	NHoistable   []bitvec.Vec
	XHoistable   []bitvec.Vec
	NInsert      []bitvec.Vec
	XInsert      []bitvec.Vec

	// Occ is the pattern ID of every instruction of the analyzed graph.
	// A block's hoisting candidate of a LOC-HOISTABLE pattern is the
	// pattern's first occurrence there (analysis.Candidates).
	Occ *analysis.Occurrences

	// occRank[patternID] ranks patterns by first occurrence in the current
	// graph (-1 when absent). Insertion points place their patterns in this
	// order: a session reuses pattern IDs across rounds, so raw ID order
	// would depend on interning history, while first-occurrence order is a
	// property of the graph alone — it keeps the fixpoint canonical and
	// byte-identical to the uncached implementation, which renumbered the
	// universe every round.
	occRank []int
}

// Analyze computes the hoistability analysis and insertion points for g.
func Analyze(g *ir.Graph) *Info {
	return AnalyzeWith(g, nil)
}

// AnalyzeWith is Analyze drawing its universe, iteration order, and vector
// storage from s (which may be nil for the uncached path). The returned
// Info shares the session's arena; it must be consumed before the arena is
// released.
func AnalyzeWith(g *ir.Graph, s *analysis.Session) *Info {
	u, px, occ := s.Universe(g)
	ar := s.Arena()
	bv := s.Blocks(g)
	n, bits := len(g.Blocks), u.Len()
	info := &Info{
		U:            u,
		LocHoistable: ar.Vecs(n),
		LocBlocked:   ar.Vecs(n),
		Occ:          occ,
	}
	for i, b := range g.Blocks {
		info.LocHoistable[i], info.LocBlocked[i] = px.BlockLocals(b, occ.Block(i), ar)
	}

	info.occRank = ar.Ints(bits)
	for id := range info.occRank {
		info.occRank[id] = -1
	}
	next := 0
	for _, id := range occ.All() {
		if id >= 0 && info.occRank[id] < 0 {
			info.occRank[id] = next
			next++
		}
	}

	exit := int(g.Exit)
	res := dataflow.Solve(dataflow.Problem{
		N:       n,
		Bits:    bits,
		Dir:     dataflow.Backward,
		Meet:    dataflow.All,
		Preds:   bv.Preds,
		Succs:   bv.Succs,
		Order:   bv.BwdOrder,
		Arena:   ar,
		Stats:   s.DataflowStats(),
		Workers: s.SolverWorkersFor(n),
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
		xi.CopyFrom(info.XHoistable[i])
		xi.And(info.LocBlocked[i])
		info.XInsert[i] = xi
	}
	return info
}

// Apply performs one hoisting step on g: it inserts instances at all
// N-INSERT/X-INSERT points and removes every hoisting candidate. It
// reports whether the program changed. The graph must have its critical
// edges split: X-INSERT at a branch node is realized by inserting at the
// entry of each successor, which edge splitting guarantees to have that
// branch node as its only predecessor.
func Apply(g *ir.Graph) bool {
	return ApplyWith(g, nil, nil)
}

// ApplyMasked is Apply restricted to the assignment patterns accepted by
// mask (nil accepts all). The per-pattern analyses are independent, so
// restricting the transformation to a subset of patterns is sound; the
// Dhamdhere-style "immediately profitable" baseline uses this to hoist one
// pattern at a time.
func ApplyMasked(g *ir.Graph, mask func(ir.AssignPattern) bool) bool {
	return ApplyWith(g, nil, mask)
}

// OrderedIDs returns the pattern IDs set in v in the order the
// insertion step would place them (first occurrence in the analyzed
// graph, see occRank). The incremental recorder serializes insertion
// sequences with it.
func (info *Info) OrderedIDs(v bitvec.Vec) []int {
	return info.rankOrder(v.Bits())
}

// rankOrder sorts ids in place by first occurrence (occRank). Insertion
// sort: the sets are tiny and sort.Slice's reflection allocates.
func (info *Info) rankOrder(ids []int) []int {
	rank := info.occRank
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && rank[ids[j]] < rank[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// appendInstances appends to dst an instance of every pattern set in v,
// in the insertion order of OrderedIDs, sorting in scratch carved from ar.
func (info *Info) appendInstances(dst []ir.Instr, v bitvec.Vec, ar *arena.Arena) []ir.Instr {
	ids := ar.Ints(v.PopCount())[:0]
	for id := v.Next(0); id >= 0; id = v.Next(id + 1) {
		ids = append(ids, id)
	}
	for _, id := range info.rankOrder(ids) {
		p := info.U.PatternAt(id)
		dst = append(dst, ir.NewAssign(p.LHS, p.RHS))
	}
	return dst
}

// ApplyWith is ApplyMasked running against session s: the pattern universe
// and iteration orders are reused across rounds and all analysis storage
// comes from the session's arena, which is rewound before returning — one
// warmed-up hoisting round allocates almost nothing. The change report is
// precise (per-block instruction comparison), not an Encode round trip.
func ApplyWith(g *ir.Graph, s *analysis.Session, mask func(ir.AssignPattern) bool) bool {
	return ApplyObservedWith(g, s, mask, nil, nil)
}

// ApplyObservedWith is ApplyWith with observation hooks for the
// incremental recorder: onInfo fires after the analysis (and masking),
// before any mutation — the Info's vectors live in the session arena and
// must be copied, not retained; onDone fires after the rewrite with the
// per-block change flags the aggregate report is derived from.
func ApplyObservedWith(g *ir.Graph, s *analysis.Session, mask func(ir.AssignPattern) bool, onInfo func(*Info), onDone func(changedBlocks []bool)) bool {
	ar := s.Arena()
	m := ar.Mark()
	defer ar.Release(m)

	info := AnalyzeWith(g, s)
	if mask != nil {
		keep := ar.Vec(info.U.Len())
		for id, p := range info.U.Patterns() {
			if mask(p) {
				keep.Set(id)
			}
		}
		for i := range g.Blocks {
			info.LocHoistable[i].And(keep)
			info.NInsert[i].And(keep)
			info.XInsert[i].And(keep)
		}
	}
	if onInfo != nil {
		onInfo(info)
	}

	// Collect per-block prepends. Exit-inserts of branch nodes become
	// prepends of their successors, ordered before the successors' own
	// entry-inserts (the edge point precedes the node entry).
	prepend := make([][]ir.Instr, len(g.Blocks))
	appendAtEnd := make([][]ir.Instr, len(g.Blocks))

	for i, b := range g.Blocks {
		if info.XInsert[i].Any() {
			if _, branch := b.Cond(); branch {
				instrs := info.appendInstances(nil, info.XInsert[i], ar)
				for _, s := range b.Succs {
					if len(g.Block(s).Preds) != 1 {
						panic(fmt.Sprintf("aht: X-INSERT at branch node %s with unsplit critical edge to %s",
							b.Name, g.Block(s).Name))
					}
					prepend[int(s)] = append(prepend[int(s)], instrs...)
				}
			} else {
				appendAtEnd[i] = info.appendInstances(appendAtEnd[i], info.XInsert[i], ar)
			}
		}
	}
	for i := range g.Blocks {
		if info.NInsert[i].Any() {
			prepend[i] = info.appendInstances(prepend[i], info.NInsert[i], ar)
		}
	}

	changed := false
	var changedBlocks []bool
	if onDone != nil {
		changedBlocks = make([]bool, len(g.Blocks))
	}
	for i, b := range g.Blocks {
		// Untouched block: nothing to insert, no candidate to remove.
		if len(prepend[i]) == 0 && len(appendAtEnd[i]) == 0 && !info.LocHoistable[i].Any() {
			continue
		}
		// Remove hoisting candidates (at most one per pattern per block).
		drop := analysis.Candidates(info.Occ.Block(i), info.LocHoistable[i], false, ar)
		next := make([]ir.Instr, 0, len(prepend[i])+len(b.Instrs)+len(appendAtEnd[i]))
		next = append(next, prepend[i]...)
		for k, in := range b.Instrs {
			if !drop.Get(k) {
				next = append(next, in)
			}
		}
		next = append(next, appendAtEnd[i]...)
		if !sameInstrs(next, b.Instrs) {
			changed = true
			if changedBlocks != nil {
				changedBlocks[i] = true
			}
		}
		b.Instrs = next
	}
	g.Normalize()
	if onDone != nil {
		onDone(changedBlocks)
	}
	return changed
}

// sameInstrs reports element-wise structural equality. A hoisting round
// may remove a candidate and re-insert the identical instruction at the
// same point (a candidate already at its earliest position); such a round
// must report "unchanged" so the fixpoint loops terminate, exactly as the
// old Encode comparison did.
func sameInstrs(a, b []ir.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
