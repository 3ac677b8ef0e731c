package rae

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
)

// Step is Eliminate computed at basic-block granularity — the variant
// Table 2's footnote describes ("the analysis is employed at the
// instruction level … only for the ease of presentation; it can
// straightforwardly be modified to work on basic blocks") — on the
// encoded program c, rewriting its blocks in place. It returns the number
// of removed occurrences, which doubles as the precise change signal: the
// procedure only ever removes instructions.
//
// Per block the usual gen/kill composition summarizes the instruction
// sequence; a block-level availability analysis (#blocks nodes instead of
// #instructions) computes entry redundancy; a final in-block walk finds
// and removes the redundant occurrences. The walk realizes the paper's
// "successively eliminating" wording literally: removing a redundant
// occurrence leaves availability intact, so a chain of redundant
// occurrences within one block collapses in a single application — where
// the batch instruction-level Eliminate needs one application per link.
// Both variants are sound and reach the same rae-fixpoint (checked by
// property tests); per-application counts may differ on in-block chains.
//
// keep restricts the removals to the patterns it holds, as in aht.Step:
// the zero Vec keeps every pattern. The block gen/kill vectors are the
// encoding's own (analysis.Code.Transfer), recomputed only for the blocks
// a step rewrote since; a block this step removes from is rewritten with
// SetBlock, which marks it. Analysis storage comes from s's arena and is
// released before returning.
func Step(c *analysis.Code, s *analysis.Session, keep bitvec.Vec) int {
	n, bits := len(c.G.Blocks), c.U.Len()
	if bits == 0 {
		return 0
	}
	ar := s.Arena()
	mark := ar.Mark()
	defer ar.Release(mark)
	bv := c.View

	gen := ar.Vecs(n)
	kill := ar.Vecs(n)
	for i := range n {
		gen[i], kill[i] = c.Transfer(i)
	}

	entry := int(c.G.Entry)
	res := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Forward, Meet: dataflow.All,
		Preds: bv.Preds,
		Succs: bv.Succs,
		Order: bv.FwdOrder,
		Arena: ar,
		Stats: s.DataflowStats(),
		Gen:   gen,
		Kill:  kill,
		Boundary: func(i int, in bitvec.Vec) {
			if i == entry {
				in.ClearAll()
			}
		},
	})

	// The removal walk: starting from the availability at the block's
	// entry, drop every kept occurrence whose pattern is available where
	// it executes. A removed occurrence was redundant — its association
	// already holds — so availability is unchanged by the removal.
	removed := 0
	avail := ar.Vec(bits)
	selfRef := c.SelfRef()
	all := keep.Len() == 0
	for i := range n {
		ids := c.Block(i)
		avail.CopyFrom(res.In[i])
		kept := ar.Ints(len(ids))[:0]
		for _, id := range ids {
			if id >= 0 {
				if avail.Get(id) && (all || keep.Get(id)) {
					continue
				}
				avail.AndNot(c.Kill(id))
				if !selfRef.Get(id) {
					avail.Set(id)
				}
			}
			kept = append(kept, id)
		}
		if len(kept) < len(ids) {
			removed += len(ids) - len(kept)
			c.SetBlock(i, kept)
		}
	}
	return removed
}
