package analysis

import (
	"slices"

	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/ir"
)

// PatternIndex precomputes, for one assignment-pattern universe, the
// per-variable effect vectors that let the analyses build their local
// predicate vectors in O(1) bit-vector operations per instruction instead
// of testing every (instruction, pattern) pair:
//
//   - killByDef[v]: patterns invalidated when v is (re)defined — those
//     with LHS v or with v among their RHS operands;
//   - blockByUse[v]: patterns blocked when v is read — those with LHS v
//     (motion of x := t must not cross a read of x);
//   - selfRef: patterns whose LHS occurs in their RHS (never redundant,
//     Table 2's side condition).
type PatternIndex struct {
	U          *ir.PatternSet
	killByDef  map[ir.Var]bitvec.Vec
	blockByUse map[ir.Var]bitvec.Vec
	selfRef    bitvec.Vec
	empty      bitvec.Vec   // shared all-zero vector for absent variables
	singleton  []bitvec.Vec // lazily built shared {id} vectors (see GenVec)
}

// NewPatternIndex builds the index for u.
func NewPatternIndex(u *ir.PatternSet) *PatternIndex {
	bits := u.Len()
	px := &PatternIndex{
		U:          u,
		killByDef:  map[ir.Var]bitvec.Vec{},
		blockByUse: map[ir.Var]bitvec.Vec{},
		selfRef:    bitvec.New(bits),
		empty:      bitvec.New(bits),
	}
	vec := func(m map[ir.Var]bitvec.Vec, v ir.Var) bitvec.Vec {
		w, ok := m[v]
		if !ok {
			w = bitvec.New(bits)
			m[v] = w
		}
		return w
	}
	for id := 0; id < bits; id++ {
		p := u.PatternAt(id)
		vec(px.killByDef, p.LHS).Set(id)
		vec(px.blockByUse, p.LHS).Set(id)
		if !p.RHS.Args[0].IsConst {
			vec(px.killByDef, p.RHS.Args[0].Var).Set(id)
		}
		if !p.RHS.Trivial() && !p.RHS.Args[1].IsConst {
			vec(px.killByDef, p.RHS.Args[1].Var).Set(id)
		}
		if p.SelfReferential() {
			px.selfRef.Set(id)
		}
	}
	return px
}

// SelfRef returns the vector of self-referential patterns (shared; do not
// mutate).
func (px *PatternIndex) SelfRef() bitvec.Vec { return px.selfRef }

// OccID returns the pattern ID of instruction in when it is an assignment
// whose pattern belongs to the universe.
func (px *PatternIndex) OccID(in *ir.Instr) (int, bool) {
	if in.Kind != ir.KindAssign {
		return 0, false
	}
	return px.U.ID(ir.AssignPattern{LHS: in.LHS, RHS: in.RHS})
}

// killVec returns the patterns whose value association is destroyed by
// instruction in (Table 2's ¬ASS-TRANSP): those killed by in's definition.
func (px *PatternIndex) killVec(in *ir.Instr) bitvec.Vec {
	if in.Kind != ir.KindAssign {
		return px.empty
	}
	if v, ok := px.killByDef[in.LHS]; ok {
		return v
	}
	return px.empty
}

// KillVec returns killVec(in) for callers assembling the dense gen/kill
// form of an instruction-level problem. The vector is shared index state:
// read-only.
func (px *PatternIndex) KillVec(in *ir.Instr) bitvec.Vec { return px.killVec(in) }

// Empty returns the shared all-zero vector (read-only), the Gen/Kill
// entry of instructions with no effect on a problem.
func (px *PatternIndex) Empty() bitvec.Vec { return px.empty }

// GenVec returns the shared singleton vector {id} (read-only), the Gen
// entry of an occurrence of pattern id. Built lazily: only patterns that
// actually occur pay for a vector.
func (px *PatternIndex) GenVec(id int) bitvec.Vec {
	if px.singleton == nil {
		px.singleton = make([]bitvec.Vec, px.U.Len())
	}
	if px.singleton[id].Len() == 0 {
		v := bitvec.New(px.U.Len())
		v.Set(id)
		px.singleton[id] = v
	}
	return px.singleton[id]
}

// OrKill ors killVec(in) into dst.
func (px *PatternIndex) OrKill(in *ir.Instr, dst bitvec.Vec) {
	dst.Or(px.killVec(in))
}

// AndNotKill removes killVec(in) from dst (dst = dst · ASS-TRANSP(in)).
func (px *PatternIndex) AndNotKill(in *ir.Instr, dst bitvec.Vec) {
	dst.AndNot(px.killVec(in))
}

// OrBlocked ors into dst every pattern blocked by instruction in: those
// killed by in's definition plus those whose LHS is read by in.
func (px *PatternIndex) OrBlocked(in *ir.Instr, dst bitvec.Vec) {
	dst.Or(px.killVec(in))
	switch in.Kind {
	case ir.KindAssign:
		px.orUseBlocks(&in.RHS, dst)
	case ir.KindOut:
		for i := range in.Args {
			if !in.Args[i].IsConst {
				if v, ok := px.blockByUse[in.Args[i].Var]; ok {
					dst.Or(v)
				}
			}
		}
	case ir.KindCond:
		px.orUseBlocks(&in.CondL, dst)
		px.orUseBlocks(&in.CondR, dst)
	}
}

func (px *PatternIndex) orUseBlocks(t *ir.Term, dst bitvec.Vec) {
	if !t.Args[0].IsConst {
		if v, ok := px.blockByUse[t.Args[0].Var]; ok {
			dst.Or(v)
		}
	}
	if !t.Trivial() && !t.Args[1].IsConst {
		if v, ok := px.blockByUse[t.Args[1].Var]; ok {
			dst.Or(v)
		}
	}
}

// BlockLocals computes Table 1's LOC-HOISTABLE and LOC-BLOCKED vectors for
// block b in one forward walk, given the pattern IDs of b's instructions
// (Occurrences.Block). A pattern is LOC-HOISTABLE when its first
// occurrence is not preceded by a blocker; Candidates recovers the
// candidate positions. Storage comes from ar (heap when nil).
func (px *PatternIndex) BlockLocals(b *ir.Block, ids []int, ar *arena.Arena) (locHoistable, locBlocked bitvec.Vec) {
	bits := px.U.Len()
	locHoistable = ar.Vec(bits)
	locBlocked = ar.Vec(bits)
	for k, id := range ids {
		// An occurrence blocks its own pattern, so every later occurrence
		// already finds its bit in locBlocked.
		if id >= 0 && !locBlocked.Get(id) {
			locHoistable.Set(id)
		}
		px.OrBlocked(&b.Instrs[k], locBlocked)
	}
	return locHoistable, locBlocked
}

// BlockLocalsReverse is BlockLocals for sinking: a pattern is
// LOC-SINKABLE when its last occurrence is not followed by a blocker.
func (px *PatternIndex) BlockLocalsReverse(b *ir.Block, ids []int, ar *arena.Arena) (locSinkable, locBlocked bitvec.Vec) {
	bits := px.U.Len()
	locSinkable = ar.Vec(bits)
	locBlocked = ar.Vec(bits)
	for k := len(ids) - 1; k >= 0; k-- {
		if id := ids[k]; id >= 0 && !locBlocked.Get(id) {
			locSinkable.Set(id)
		}
		px.OrBlocked(&b.Instrs[k], locBlocked)
	}
	return locSinkable, locBlocked
}

// Candidates returns the block positions of the motion candidates of the
// patterns in loc, as a vector over ids' positions carved from ar: the
// first occurrence of each pattern when hoisting, the last when sinking
// (last). loc must be LOC-HOISTABLE (resp. LOC-SINKABLE) of the block ids
// describes. Every occurrence of a pattern blocks the pattern (it
// modifies the left-hand side), so when a candidate exists no blocker
// precedes the first occurrence — the candidate is that occurrence
// (Figure 13); the sinking case is the mirror image.
func Candidates(ids []int, loc bitvec.Vec, last bool, ar *arena.Arena) bitvec.Vec {
	at := ar.Vec(len(ids))
	pending := ar.Vec(loc.Len())
	pending.CopyFrom(loc)
	for j := range ids {
		k := j
		if last {
			k = len(ids) - 1 - j
		}
		if id := ids[k]; id >= 0 && pending.Get(id) {
			at.Set(k)
			pending.Clear(id)
		}
	}
	return at
}

// BlockTransfer computes into gen and kill, which must start empty, the
// block-level gen/kill form of Table 2 for block b (ids as for
// BlockLocals): GEN holds the patterns whose association some occurrence
// establishes and no later instruction of b destroys, KILL those destroyed
// and not re-established. Self-referential occurrences never generate.
func (px *PatternIndex) BlockTransfer(b *ir.Block, ids []int, gen, kill bitvec.Vec) {
	for k, id := range ids {
		in := &b.Instrs[k]
		if in.Kind != ir.KindAssign {
			continue
		}
		px.AndNotKill(in, gen)
		px.OrKill(in, kill)
		if id >= 0 && !px.selfRef.Get(id) {
			gen.Set(id)
			kill.Clear(id)
		}
	}
}

// Occurrences maps every instruction of one version of a graph to the ID
// of its assignment pattern, or -1 for instructions that are not
// assignments. The table is laid out in analysis.Prog order — block by
// block, then instruction by instruction — so All()[i] describes
// NewProg(g).Ins[i].
type Occurrences struct {
	ids   []int
	start []int // block index -> offset into ids; one extra end entry
}

// Block returns the pattern IDs of the instructions of the block at slice
// position i (read-only).
func (o *Occurrences) Block(i int) []int { return o.ids[o.start[i]:o.start[i+1]] }

// All returns the pattern IDs of every instruction in Prog order
// (read-only).
func (o *Occurrences) All() []int { return o.ids }

// scan records the pattern ID of every instruction of g, interning
// patterns missing from u, and reports whether u grew. It reuses o's
// storage, so a warmed-up session rescans without allocating.
func (o *Occurrences) scan(g *ir.Graph, u *ir.PatternSet) bool {
	before := u.Len()
	o.ids = slices.Grow(o.ids[:0], g.InstrCount())
	o.start = slices.Grow(o.start[:0], len(g.Blocks)+1)
	for _, b := range g.Blocks {
		o.start = append(o.start, len(o.ids))
		for k := range b.Instrs {
			id := -1
			if in := &b.Instrs[k]; in.Kind == ir.KindAssign {
				id = u.Intern(ir.AssignPattern{LHS: in.LHS, RHS: in.RHS})
			}
			o.ids = append(o.ids, id)
		}
	}
	o.start = append(o.start, len(o.ids))
	return u.Len() != before
}
