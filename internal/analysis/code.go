package analysis

import (
	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
)

// BlockView is the block-level solver geometry of one graph: int
// adjacency (so the solver's hot loop does not convert NodeIDs per visit)
// and the two iteration orders — reverse postorder from the entry along
// successors for forward problems, reverse postorder from the exit along
// predecessors for backward ones. It describes the block/edge structure
// at the time it was built, so code that only rewrites instructions
// afterwards (the motion rounds, pde's rounds, mr's systems) builds it
// once.
type BlockView struct {
	Preds    func(i int) []int
	Succs    func(i int) []int
	FwdOrder []int
	BwdOrder []int
}

// NewBlockView returns the solver geometry of g's basic blocks.
func NewBlockView(g *ir.Graph) BlockView {
	n := len(g.Blocks)
	succs := make([][]int, n)
	preds := make([][]int, n)
	for i, b := range g.Blocks {
		succs[i] = nodeInts(b.Succs)
		preds[i] = nodeInts(b.Preds)
	}
	v := BlockView{
		Preds: func(i int) []int { return preds[i] },
		Succs: func(i int) []int { return succs[i] },
	}
	v.FwdOrder = dataflow.FlowOrder(n, []int{int(g.Entry)}, v.Succs)
	v.BwdOrder = dataflow.FlowOrder(n, []int{int(g.Exit)}, v.Preds)
	return v
}

// nodeInts converts a NodeID adjacency list to int indices without
// allocation beyond the result slice.
func nodeInts(ids []ir.NodeID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// Code is a graph's instruction sequences encoded over its assignment-
// pattern universe: the form the aht/rae fixpoint of the assignment
// motion phase runs on. aht and rae only ever insert, drop or keep whole
// occurrences of patterns already in the universe, so a round can rewrite
// integer sequences instead of copying ir.Instr values and rehashing them.
// The AM phase encodes its graph once (NewCode), runs every round on the
// encoding, and writes Block.Instrs back once (WriteBack).
//
// Each pattern's kill and blocked vectors are resolved from the
// PatternIndex at encode time, so the local predicates of Tables 1 and 2
// (Locals, Transfer) cost no map lookup. A block's local predicates are a
// function of its entries and of those vectors alone, so the Code keeps
// them for the whole phase, in storage carved at encode time: a step
// rewrites a block only through SetBlock, which marks it, and Locals and
// Transfer recompute a block only when it was marked since they last ran.
// Skips are not encoded: they have no effect on any predicate, and
// WriteBack's Normalize restores them in empty blocks. The rounds only
// insert and remove assignments, so G's block structure, and with it View,
// stays fixed for the phase.
type Code struct {
	G    *ir.Graph
	U    *ir.PatternSet
	View BlockView

	// blocks[i] encodes G.Blocks[i]: the pattern ID of each assignment,
	// or ^k for entry k of the side table, which holds the out and branch
	// instructions — aht and rae never move them.
	blocks [][]int
	// Per block: Table 1's LOC-HOISTABLE and LOC-BLOCKED and Table 2's
	// block gen/kill, current for block i when fresh has bit i.
	locHoistable, locBlocked, gen, genKill []bitvec.Vec
	fresh                                  bitvec.Vec

	side        []ir.Instr
	sideBlocked []bitvec.Vec // per side entry: the patterns it blocks
	kill        []bitvec.Vec // per pattern: the patterns an occurrence kills
	blocked     []bitvec.Vec // per pattern: the patterns an occurrence blocks, its kills and its operand reads
	selfRef     bitvec.Vec
}

// NewCode encodes g over its universe (NewUniverse) and records its block
// geometry (NewBlockView). The resolved vectors, the block storage and the
// per-block local predicates are carved from s's arena, so the Code is
// valid until the caller releases the arena below the point where it was
// built. Each block gets room to grow; a block that outgrows it moves to
// the heap.
func NewCode(g *ir.Graph, s *Session) *Code {
	u, px, occ := NewUniverse(g)
	ar := s.Arena()
	bits := u.Len()
	c := &Code{
		G:       g,
		U:       u,
		View:    NewBlockView(g),
		blocks:  make([][]int, len(g.Blocks)),
		kill:    ar.Vecs(bits),
		blocked: ar.Vecs(bits),
		selfRef: px.selfRef,
	}
	for id := range bits {
		p := u.PatternAt(id)
		c.kill[id] = px.killByDef[p.LHS]
		in := ir.Instr{Kind: ir.KindAssign, LHS: p.LHS, RHS: p.RHS}
		c.blocked[id] = ar.Vec(bits)
		px.OrBlocked(&in, c.blocked[id])
	}
	sides := 0
	for _, b := range g.Blocks {
		for k := range b.Instrs {
			if kind := b.Instrs[k].Kind; kind == ir.KindOut || kind == ir.KindCond {
				sides++
			}
		}
	}
	c.side = make([]ir.Instr, 0, sides)
	c.sideBlocked = ar.Vecs(sides)
	for i, b := range g.Blocks {
		ids := occ.Block(i)
		enc := ar.Ints(2*len(b.Instrs) + 4)[:0]
		for k := range b.Instrs {
			in := &b.Instrs[k]
			switch in.Kind {
			case ir.KindSkip:
			case ir.KindAssign:
				enc = append(enc, ids[k])
			default:
				blocked := ar.Vec(bits)
				px.OrBlocked(in, blocked)
				c.sideBlocked[len(c.side)] = blocked
				enc = append(enc, ^len(c.side))
				c.side = append(c.side, *in)
			}
		}
		c.blocks[i] = enc
	}
	c.carveLocals(ar)
	return c
}

// carveLocals carves the per-block local predicates from ar, all of them
// to be computed on first use.
func (c *Code) carveLocals(ar *arena.Arena) {
	n, bits := len(c.blocks), c.U.Len()
	c.fresh = ar.Vec(n)
	c.locHoistable, c.locBlocked = ar.Vecs(n), ar.Vecs(n)
	c.gen, c.genKill = ar.Vecs(n), ar.Vecs(n)
	for i := range n {
		c.locHoistable[i], c.locBlocked[i] = ar.Vec(bits), ar.Vec(bits)
		c.gen[i], c.genKill[i] = ar.Vec(bits), ar.Vec(bits)
	}
}

// Encode is NewCode bracketed by s's arena: done writes the encoding back
// to g (WriteBack) and releases everything carved from the arena since
// the encode. Callers defer it, so every return path, an error included,
// leaves g at its last completed step.
func Encode(g *ir.Graph, s *Session) (c *Code, done func()) {
	ar := s.Arena()
	m := ar.Mark()
	c = NewCode(g, s)
	return c, func() {
		c.WriteBack()
		ar.Release(m)
	}
}

// WriteBack rewrites G's instruction sequences from the encoding, each
// block into its own storage, and normalizes G once. The blocks that
// outgrew their storage share one new array.
func (c *Code) WriteBack() {
	grown := 0
	for i, b := range c.G.Blocks {
		if n := len(c.blocks[i]); n > cap(b.Instrs) {
			grown += n
		}
	}
	var slab []ir.Instr
	if grown > 0 {
		slab = make([]ir.Instr, grown)
	}
	for i, b := range c.G.Blocks {
		ins := b.Instrs[:0]
		if n := len(c.blocks[i]); n > cap(ins) {
			ins, slab = slab[:0:n], slab[n:]
		}
		for _, e := range c.blocks[i] {
			if e < 0 {
				ins = append(ins, c.side[^e])
				continue
			}
			p := c.U.PatternAt(e)
			ins = append(ins, ir.Instr{Kind: ir.KindAssign, LHS: p.LHS, RHS: p.RHS})
		}
		b.Instrs = ins
	}
	c.G.Normalize()
}

// Copy returns a scratch copy of c whose blocks and local predicates live
// in ar, sharing the resolved vectors: steps may rewrite it without
// touching c. The copy starts with c's local predicates. A copy is never
// written back.
func (c *Code) Copy(ar *arena.Arena) *Code {
	t := *c
	t.blocks = make([][]int, len(c.blocks))
	for i, ids := range c.blocks {
		t.blocks[i] = append(ar.Ints(cap(ids))[:0], ids...)
	}
	t.carveLocals(ar)
	t.fresh.CopyFrom(c.fresh)
	for i := range c.blocks {
		t.locHoistable[i].CopyFrom(c.locHoistable[i])
		t.locBlocked[i].CopyFrom(c.locBlocked[i])
		t.gen[i].CopyFrom(c.gen[i])
		t.genKill[i].CopyFrom(c.genKill[i])
	}
	return &t
}

// Block returns the entries of block i. The slice is the Code's own
// storage: read-only, and valid until the next SetBlock(i).
func (c *Code) Block(i int) []int { return c.blocks[i] }

// SetBlock replaces the entries of block i with ids, copied into the
// block's storage, and marks the block so that Locals and Transfer
// recompute it. It is the one way a step rewrites the encoding.
func (c *Code) SetBlock(i int, ids []int) {
	c.blocks[i] = append(c.blocks[i][:0], ids...)
	c.fresh.Clear(i)
}

// Branch reports whether block i ends in a branch condition.
func (c *Code) Branch(i int) bool {
	ids := c.blocks[i]
	return len(ids) > 0 && ids[len(ids)-1] < 0 && c.side[^ids[len(ids)-1]].Kind == ir.KindCond
}

// Kill returns the patterns whose association an occurrence of pattern id
// destroys (Table 2's ¬ASS-TRANSP). Shared index state: read-only.
func (c *Code) Kill(id int) bitvec.Vec { return c.kill[id] }

// SelfRef returns the self-referential patterns, whose occurrences never
// generate (Table 2's side condition). Shared index state: read-only.
func (c *Code) SelfRef() bitvec.Vec { return c.selfRef }

// Locals returns Table 1's LOC-HOISTABLE and LOC-BLOCKED vectors of block
// i. A pattern is LOC-HOISTABLE when its first occurrence is not preceded
// by a blocker; Candidates recovers the candidate positions. The vectors
// are the Code's own storage: read-only, and valid until the next step
// rewrites block i.
func (c *Code) Locals(i int) (locHoistable, locBlocked bitvec.Vec) {
	c.refresh(i)
	return c.locHoistable[i], c.locBlocked[i]
}

// Transfer returns the block-level gen/kill form of Table 2 for block i:
// GEN holds the patterns whose association some occurrence establishes
// and no later instruction of the block destroys, KILL those destroyed and
// not re-established. Self-referential occurrences never generate. The
// vectors are the Code's own storage: read-only, and valid until the next
// step rewrites block i.
func (c *Code) Transfer(i int) (gen, kill bitvec.Vec) {
	c.refresh(i)
	return c.gen[i], c.genKill[i]
}

// refresh recomputes the local predicates of block i in one forward walk
// unless they are current.
func (c *Code) refresh(i int) {
	if c.fresh.Get(i) {
		return
	}
	c.fresh.Set(i)
	locH, locB, gen, kill := c.locHoistable[i], c.locBlocked[i], c.gen[i], c.genKill[i]
	locH.ClearAll()
	locB.ClearAll()
	gen.ClearAll()
	kill.ClearAll()
	for _, e := range c.blocks[i] {
		if e < 0 {
			locB.Or(c.sideBlocked[^e])
			continue
		}
		// An occurrence blocks its own pattern, so every later occurrence
		// already finds its bit in locB.
		if !locB.Get(e) {
			locH.Set(e)
		}
		locB.Or(c.blocked[e])
		gen.AndNot(c.kill[e])
		kill.Or(c.kill[e])
		if !c.selfRef.Get(e) {
			gen.Set(e)
			kill.Clear(e)
		}
	}
}
