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
// Each pattern's kill and use-block vectors are resolved from the
// PatternIndex at encode time, so the local predicates of Tables 1 and 2
// (Locals, Transfer) cost no map lookup. Skips are not encoded: they have
// no effect on any predicate, and WriteBack's Normalize restores them in
// empty blocks. The rounds only insert and remove assignments, so G's
// block structure, and with it View, stays fixed for the phase.
type Code struct {
	G    *ir.Graph
	U    *ir.PatternSet
	View BlockView
	// Blocks[i] encodes G.Blocks[i]: the pattern ID of each assignment,
	// or ^k for entry k of the side table, which holds the out and branch
	// instructions — aht and rae never move them.
	Blocks [][]int

	side        []ir.Instr
	sideBlocked []bitvec.Vec // per side entry: the patterns it blocks
	kill        []bitvec.Vec // per pattern: the patterns an occurrence kills
	use         []bitvec.Vec // per pattern, two entries: the patterns blocked by each RHS operand read, zero when none
	selfRef     bitvec.Vec
}

// NewCode encodes g over its universe (NewUniverse) and records its block
// geometry (NewBlockView). The resolved vectors and the block storage are
// carved from s's arena, so the Code is valid until the caller releases
// the arena below the point where it was built. Each block gets room to
// grow; a block that outgrows it moves to the heap.
func NewCode(g *ir.Graph, s *Session) *Code {
	u, px, occ := NewUniverse(g)
	ar := s.Arena()
	bits := u.Len()
	c := &Code{
		G:       g,
		U:       u,
		View:    NewBlockView(g),
		Blocks:  make([][]int, len(g.Blocks)),
		kill:    ar.Vecs(bits),
		use:     ar.Vecs(2 * bits),
		selfRef: px.selfRef,
	}
	for id := range bits {
		p := u.PatternAt(id)
		c.kill[id] = px.killByDef[p.LHS]
		c.use[2*id] = px.useBlocks(p.RHS.Args[0])
		if !p.RHS.Trivial() {
			c.use[2*id+1] = px.useBlocks(p.RHS.Args[1])
		}
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
		c.Blocks[i] = enc
	}
	return c
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
		if n := len(c.Blocks[i]); n > cap(b.Instrs) {
			grown += n
		}
	}
	var slab []ir.Instr
	if grown > 0 {
		slab = make([]ir.Instr, grown)
	}
	for i, b := range c.G.Blocks {
		ins := b.Instrs[:0]
		if n := len(c.Blocks[i]); n > cap(ins) {
			ins, slab = slab[:0:n], slab[n:]
		}
		for _, e := range c.Blocks[i] {
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

// Copy returns a scratch copy of c whose blocks live in ar, sharing the
// resolved vectors: steps may rewrite it without touching c. A copy is
// never written back.
func (c *Code) Copy(ar *arena.Arena) *Code {
	t := *c
	t.Blocks = make([][]int, len(c.Blocks))
	for i, ids := range c.Blocks {
		t.Blocks[i] = append(ar.Ints(cap(ids))[:0], ids...)
	}
	return &t
}

// Branch reports whether block i ends in a branch condition.
func (c *Code) Branch(i int) bool {
	ids := c.Blocks[i]
	return len(ids) > 0 && ids[len(ids)-1] < 0 && c.side[^ids[len(ids)-1]].Kind == ir.KindCond
}

// Kill returns the patterns whose association an occurrence of pattern id
// destroys (Table 2's ¬ASS-TRANSP). Shared index state: read-only.
func (c *Code) Kill(id int) bitvec.Vec { return c.kill[id] }

// SelfRef returns the self-referential patterns, whose occurrences never
// generate (Table 2's side condition). Shared index state: read-only.
func (c *Code) SelfRef() bitvec.Vec { return c.selfRef }

// Locals computes Table 1's LOC-HOISTABLE and LOC-BLOCKED vectors for
// block i in one forward walk, with storage from ar (heap when nil). A
// pattern is LOC-HOISTABLE when its first occurrence is not preceded by a
// blocker; Candidates recovers the candidate positions.
func (c *Code) Locals(i int, ar *arena.Arena) (locHoistable, locBlocked bitvec.Vec) {
	bits := c.U.Len()
	locHoistable = ar.Vec(bits)
	locBlocked = ar.Vec(bits)
	for _, e := range c.Blocks[i] {
		if e < 0 {
			locBlocked.Or(c.sideBlocked[^e])
			continue
		}
		// An occurrence blocks its own pattern, so every later occurrence
		// already finds its bit in locBlocked.
		if !locBlocked.Get(e) {
			locHoistable.Set(e)
		}
		locBlocked.Or(c.kill[e])
		for _, use := range c.use[2*e : 2*e+2] {
			if use.Len() > 0 {
				locBlocked.Or(use)
			}
		}
	}
	return locHoistable, locBlocked
}

// Transfer computes into gen and kill, which must start empty, the
// block-level gen/kill form of Table 2 for block i: GEN holds the
// patterns whose association some occurrence establishes and no later
// instruction of the block destroys, KILL those destroyed and not
// re-established. Self-referential occurrences never generate.
func (c *Code) Transfer(i int, gen, kill bitvec.Vec) {
	for _, e := range c.Blocks[i] {
		if e < 0 {
			continue
		}
		gen.AndNot(c.kill[e])
		kill.Or(c.kill[e])
		if !c.selfRef.Get(e) {
			gen.Set(e)
			kill.Clear(e)
		}
	}
}
