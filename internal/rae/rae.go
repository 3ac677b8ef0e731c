// Package rae implements redundant assignment elimination — procedure
// "rae" of the paper's assignment motion phase (Table 2).
//
// An occurrence of an assignment pattern α ≡ v := t is redundant if every
// path from s to it passes another occurrence of α with neither v nor an
// operand of t modified in between (Definition 3.4). Redundancy is computed
// by a forward bit-vector analysis over instructions:
//
//	N-REDUNDANT(ι) = false                       if ι = ι_s
//	               = ∏_{ι' ∈ pred(ι)} X-REDUNDANT(ι')   otherwise
//	X-REDUNDANT(ι) = GEN(ι) + ASS-TRANSP(ι) · N-REDUNDANT(ι)
//
// where GEN(ι,α) holds when ι is an occurrence of α and α is not
// self-referential (for x := x+1 the execution itself invalidates the
// association — the side condition of Table 2). The published equation
// reads ASS-TRANSP · (EXECUTED + N-REDUNDANT); taken literally that would
// never generate redundancy because an occurrence of α modifies v and so is
// not transparent for α. The availability form above is the intended
// reading (see DESIGN.md).
package rae

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

// Info holds the analysis result.
type Info struct {
	Prog *analysis.Prog
	U    *ir.PatternSet
	// NRedundant[i] is the redundancy vector at the entry of instruction i
	// (global index in Prog); XRedundant[i] at its exit.
	NRedundant []bitvec.Vec
	XRedundant []bitvec.Vec

	ids []int // pattern ID per instruction (Prog order), -1 for none
}

// Analyze computes the redundancy analysis for g at instruction level —
// the reference form of Table 2 that the block-level Step is tested
// against — over g's universe (analysis.NewUniverse), with vector storage
// from s. The result shares the session's arena and must be consumed
// before the arena is released.
func Analyze(g *ir.Graph, s *analysis.Session) *Info {
	prog := analysis.NewProg(g)
	u, px, occ := analysis.NewUniverse(g)
	ar := s.Arena()
	n, bits := prog.Len(), u.Len()
	ids := occ.All() // Prog order

	// Dense gen/kill form: GEN is the occurrence's own pattern (unless
	// self-referential) as a shared singleton vector, KILL the index's
	// shared per-definition kill vector — X-REDUNDANT = GEN ∨
	// (N-REDUNDANT ∧ ASS-TRANSP). GEN winning over KILL in the fused
	// kernel is exactly the availability reading: an occurrence kills its
	// own pattern's transparency but re-generates it.
	gen := ar.Vecs(n)
	kill := ar.Vecs(n)
	selfRef := px.SelfRef()
	for i := 0; i < n; i++ {
		in := &prog.Ins[i]
		kill[i] = px.KillVec(in)
		gen[i] = px.Empty()
		if id := ids[i]; id >= 0 && !selfRef.Get(id) {
			gen[i] = px.GenVec(id)
		}
	}

	entry := prog.EntryIndex()
	res := dataflow.Solve(dataflow.Problem{
		N:     n,
		Bits:  bits,
		Dir:   dataflow.Forward,
		Meet:  dataflow.All,
		Preds: prog.Preds,
		Succs: prog.Succs,
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
	return &Info{Prog: prog, U: u, NRedundant: res.In, XRedundant: res.Out, ids: ids}
}

func init() {
	pass.Register(pass.Pass{
		Name:        "rae",
		Description: "one redundant-assignment-elimination step: remove every totally redundant occurrence",
		Ref:         "§4.3, Table 2, Figure 14",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			c, done := analysis.Encode(g, s)
			defer done()
			return pass.Stats{Changes: Step(c, s, bitvec.Vec{}), Iterations: 1}, nil
		},
	})
}

// Eliminate applies the instruction-level elimination step: it removes
// every assignment that is redundant at its entry and returns the number
// of removed occurrences. The graph is re-normalized, so blocks never
// become empty. The count is the precise change signal (the procedure
// only removes instructions).
func Eliminate(g *ir.Graph, s *analysis.Session) int {
	ar := s.Arena()
	defer ar.Release(ar.Mark())
	info := Analyze(g, s)
	removed := 0
	idx := 0
	for _, b := range g.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if id := info.ids[idx]; id >= 0 && info.NRedundant[idx].Get(id) {
				removed++
			} else {
				kept = append(kept, in)
			}
			idx++
		}
		b.Instrs = kept
	}
	g.Normalize()
	return removed
}
