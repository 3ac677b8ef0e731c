package rae

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
)

// EliminateBlocks is Eliminate computed at basic-block granularity — the
// variant Table 2's footnote describes ("the analysis is employed at the
// instruction level … only for the ease of presentation; it can
// straightforwardly be modified to work on basic blocks").
//
// Per block the usual gen/kill composition summarizes the instruction
// sequence; a block-level availability analysis (#blocks nodes instead of
// #instructions) computes entry redundancy; a final in-block walk finds
// and removes the redundant occurrences.
//
// The in-block walk realizes the paper's "successively eliminating"
// wording literally: removing a redundant occurrence leaves availability
// intact, so a chain of redundant occurrences within one block collapses
// in a single application — where the batch instruction-level Eliminate
// needs one application per link. Both variants are sound and reach the
// same rae-fixpoint (checked by property tests); per-application counts
// may differ on in-block chains.
func EliminateBlocks(g *ir.Graph) int {
	return EliminateBlocksWith(g, nil)
}

// EliminateBlocksWith is EliminateBlocks running against session s (nil
// for the uncached path): the pattern universe, index, and iteration order
// are reused across the rounds of a motion fixpoint and all analysis
// storage comes from the session's arena, rewound before returning. The
// returned count doubles as the precise change signal — the procedure only
// ever removes instructions, so zero removals means the graph is
// textually unchanged.
func EliminateBlocksWith(g *ir.Graph, s *analysis.Session) int {
	return EliminateBlocksObservedWith(g, s, nil, nil)
}

// EliminateBlocksObservedWith is EliminateBlocksWith with observation
// hooks for the incremental recorder: onSolve fires after the
// availability solve, before any removal — the vectors live in the
// session arena and must be copied, not retained; onDone fires after
// the removal walk with per-block removal counts.
func EliminateBlocksObservedWith(g *ir.Graph, s *analysis.Session, onSolve func(px *analysis.PatternIndex, availIn, availOut []bitvec.Vec), onDone func(removedByBlock []int)) int {
	u, px, occ := s.Universe(g)
	n, bits := len(g.Blocks), u.Len()
	if bits == 0 {
		return 0
	}
	ar := s.Arena()
	mark := ar.Mark()
	defer ar.Release(mark)
	bv := s.Blocks(g)

	gen := ar.Vecs(n)
	kill := ar.Vecs(n)
	for i, b := range g.Blocks {
		gen[i] = ar.Vec(bits)
		kill[i] = ar.Vec(bits)
		px.BlockTransfer(b, occ.Block(i), gen[i], kill[i])
	}

	entry := int(g.Entry)
	res := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Forward, Meet: dataflow.All,
		Preds:   bv.Preds,
		Succs:   bv.Succs,
		Order:   bv.FwdOrder,
		Arena:   ar,
		Stats:   s.DataflowStats(),
		Workers: s.SolverWorkersFor(n),
		Gen:     gen,
		Kill:    kill,
		Boundary: func(i int, in bitvec.Vec) {
			if i == entry {
				in.ClearAll()
			}
		},
	})

	if onSolve != nil {
		onSolve(px, res.In, res.Out)
	}

	removed := 0
	var removedByBlock []int
	if onDone != nil {
		removedByBlock = make([]int, n)
	}
	avail := ar.Vec(bits)
	for i, b := range g.Blocks {
		avail.CopyFrom(res.In[i])
		r := EliminateInBlock(b, occ.Block(i), px, avail)
		removed += r
		if removedByBlock != nil {
			removedByBlock[i] = r
		}
	}
	g.Normalize()
	if onDone != nil {
		onDone(removedByBlock)
	}
	return removed
}

// EliminateInBlock is the removal walk of block-level elimination: given
// avail, the availability at b's entry, and ids, the pattern IDs of b's
// instructions, it removes every occurrence whose pattern is available
// where it executes and returns how many it removed. avail is updated in
// place to the availability at b's exit. The caller re-normalizes.
func EliminateInBlock(b *ir.Block, ids []int, px *analysis.PatternIndex, avail bitvec.Vec) int {
	selfRef := px.SelfRef()
	removed := 0
	kept := b.Instrs[:0]
	for k := range b.Instrs {
		in := &b.Instrs[k]
		id := ids[k]
		if id >= 0 && avail.Get(id) {
			// The removed occurrence was redundant: the association
			// already holds, so availability is unchanged.
			removed++
			continue
		}
		px.AndNotKill(in, avail)
		if id >= 0 && !selfRef.Get(id) {
			avail.Set(id)
		}
		kept = append(kept, *in)
	}
	b.Instrs = kept
	return removed
}
