package analysis

import (
	"testing"

	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
)

// TestIndexMatchesPredicates is the differential test between the fast
// per-variable-vector index and the reference predicates: on random
// programs, every derived vector must agree bit-for-bit.
func TestIndexMatchesPredicates(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := cfggen.Structured(seed, cfggen.Config{Size: 8})
		s := NewSession()
		u, px, occ := NewUniverse(g)
		code := NewCode(g, s)
		bits := u.Len()

		for i, b := range g.Blocks {
			ids := occ.Block(i)
			for k := range b.Instrs {
				in := &b.Instrs[k]

				// OccID vs Executed.
				for id := 0; id < bits; id++ {
					p := u.PatternAt(id)
					occID, isOcc := px.OccID(in)
					if Executed(in, p) != (isOcc && occID == id) {
						t.Fatalf("seed %d: OccID disagrees with Executed at %v / %v", seed, in, p)
					}
				}

				// Kill vector vs ¬AssTransp.
				kill := px.KillVec(in)
				for id := 0; id < bits; id++ {
					if kill.Get(id) == AssTransp(in, u.PatternAt(id)) {
						t.Fatalf("seed %d: kill bit %d disagrees with AssTransp at %v", seed, id, in)
					}
				}

				// Blocked vector vs BlocksPattern.
				blocked := bitvec.New(bits)
				px.OrBlocked(in, blocked)
				for id := 0; id < bits; id++ {
					if blocked.Get(id) != BlocksPattern(in, u.PatternAt(id)) {
						t.Fatalf("seed %d: blocked bit %d disagrees with BlocksPattern at %v (%v)",
							seed, id, in, u.Pattern(id))
					}
				}
			}

			// Code.Locals vs LocHoistable/LocBlocked/CandidateIndex. The
			// generated blocks hold no skips, so encoded positions are
			// instruction positions.
			locH, locB := code.Locals(i)
			cands := Candidates(code.Block(i), locH, false, nil)
			for id := 0; id < bits; id++ {
				p := u.PatternAt(id)
				if locH.Get(id) != LocHoistable(b, p) {
					t.Fatalf("seed %d block %s: LocHoistable bit %d disagrees", seed, b.Name, id)
				}
				if locB.Get(id) != LocBlocked(b, p) {
					t.Fatalf("seed %d block %s: LocBlocked bit %d disagrees", seed, b.Name, id)
				}
				if k, ok := CandidateIndex(b, p); ok && !cands.Get(k) {
					t.Fatalf("seed %d block %s: candidate %d of %v not marked", seed, b.Name, k, p)
				}
			}
			if cands.PopCount() != locH.PopCount() {
				t.Fatalf("seed %d block %s: %d candidates for %d hoistable patterns",
					seed, b.Name, cands.PopCount(), locH.PopCount())
			}

			// BlockLocalsReverse: sinking candidates are the mirror image.
			locS, locBR := px.BlockLocalsReverse(b, ids, nil)
			scands := Candidates(ids, locS, true, nil)
			if !locBR.Equal(locB) {
				t.Fatalf("seed %d block %s: reverse LocBlocked differs", seed, b.Name)
			}
			for id := 0; id < bits; id++ {
				p := u.PatternAt(id)
				k, ok := refSinkCandidate(b, p)
				if locS.Get(id) != ok || (ok && !scands.Get(k)) {
					t.Fatalf("seed %d block %s: sink candidate for %v: %d/%v", seed, b.Name, p, k, ok)
				}
			}
			if scands.PopCount() != locS.PopCount() {
				t.Fatalf("seed %d block %s: %d sink candidates for %d sinkable patterns",
					seed, b.Name, scands.PopCount(), locS.PopCount())
			}
		}
		s.Close()
	}
}

// refSinkCandidate is the reference definition: the last occurrence not
// followed by a blocker.
func refSinkCandidate(b *ir.Block, p *ir.AssignPattern) (int, bool) {
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		if Executed(in, p) {
			return i, true
		}
		if BlocksPattern(in, p) {
			return 0, false
		}
	}
	return 0, false
}

func TestSelfRefVector(t *testing.T) {
	g := ir.NewGraph("t")
	b := g.AddBlock("a")
	b.Instrs = []ir.Instr{
		ir.NewAssign("x", ir.BinTerm(ir.OpAdd, ir.VarOp("x"), ir.ConstOp(1))),
		ir.NewAssign("y", ir.BinTerm(ir.OpAdd, ir.VarOp("a"), ir.VarOp("b"))),
	}
	u := ir.AssignUniverse(g)
	px := NewPatternIndex(u)
	sr := px.SelfRef()
	idX, _ := u.ID(ir.AssignPattern{LHS: "x", RHS: ir.BinTerm(ir.OpAdd, ir.VarOp("x"), ir.ConstOp(1))})
	idY, _ := u.ID(ir.AssignPattern{LHS: "y", RHS: ir.BinTerm(ir.OpAdd, ir.VarOp("a"), ir.VarOp("b"))})
	if !sr.Get(idX) || sr.Get(idY) {
		t.Errorf("selfref = %v", sr)
	}
}
