package ir

import (
	"fmt"
	"sort"
)

// NodeID identifies a basic block within one Graph. IDs are dense indices
// into Graph.Blocks and are never reused within a graph.
type NodeID int

// Block is a basic block: a named node carrying a sequence of instructions.
// A block with two successors must end in a KindCond instruction; control
// transfers to Succs[0] when the condition holds and to Succs[1] otherwise.
type Block struct {
	ID     NodeID
	Name   string
	Instrs []Instr
	Succs  []NodeID
	Preds  []NodeID
}

// Cond returns the block's trailing branch condition, if any.
func (b *Block) Cond() (Instr, bool) {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Kind == KindCond {
		return b.Instrs[n-1], true
	}
	return Instr{}, false
}

// Graph is a directed flow graph G = (N, E, s, e) with unique start and end
// nodes; the start node has no predecessors and the end node no successors
// (§2). Graph also owns the registry of temporaries h_ε so that every
// expression pattern maps to one temporary throughout all phases.
type Graph struct {
	Name   string
	Blocks []*Block
	Entry  NodeID
	Exit   NodeID

	tempByExpr map[Term]Var // expression pattern -> temporary
	exprByTemp map[Var]Term // temporary -> expression pattern
	nextTemp   int
	nextSynth  int
}

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph {
	return &Graph{
		Name:       name,
		tempByExpr: map[Term]Var{},
		exprByTemp: map[Var]Term{},
		nextTemp:   1,
		nextSynth:  1,
	}
}

// AddBlock appends a new empty block and returns it. Names must be unique;
// an empty name is replaced by a generated one.
func (g *Graph) AddBlock(name string) *Block {
	if name == "" {
		name = fmt.Sprintf("n%d", len(g.Blocks)+1)
	}
	b := &Block{ID: NodeID(len(g.Blocks)), Name: name}
	g.Blocks = append(g.Blocks, b)
	return b
}

// Block returns the block with the given ID.
func (g *Graph) Block(id NodeID) *Block { return g.Blocks[int(id)] }

// BlockByName returns the block with the given name, or nil.
func (g *Graph) BlockByName(name string) *Block {
	for _, b := range g.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// AddEdge appends the edge (from, to) to both adjacency lists. Successor
// order is meaningful for branch nodes (then/else).
func (g *Graph) AddEdge(from, to NodeID) {
	g.Block(from).Succs = append(g.Block(from).Succs, to)
	g.Block(to).Preds = append(g.Block(to).Preds, from)
}

// EntryBlock returns the start node s.
func (g *Graph) EntryBlock() *Block { return g.Block(g.Entry) }

// ExitBlock returns the end node e.
func (g *Graph) ExitBlock() *Block { return g.Block(g.Exit) }

// TempFor returns the unique temporary h_ε for expression pattern ε,
// creating it on first use. It panics when ε is trivial: only non-trivial
// terms are expression patterns (§2).
func (g *Graph) TempFor(expr Term) Var {
	if expr.Trivial() {
		panic("ir: TempFor on trivial term")
	}
	if h, ok := g.tempByExpr[expr]; ok {
		return h
	}
	h := Var(fmt.Sprintf("%s%d", tempPrefix, g.nextTemp))
	g.nextTemp++
	g.tempByExpr[expr] = h
	g.exprByTemp[h] = expr
	return h
}

// TempExpr returns the expression pattern associated with temporary h.
func (g *Graph) TempExpr(h Var) (Term, bool) {
	t, ok := g.exprByTemp[h]
	return t, ok
}

// IsTemp reports whether v is a temporary registered in this graph.
func (g *Graph) IsTemp(v Var) bool {
	_, ok := g.exprByTemp[v]
	return ok
}

// Temps returns all registered temporaries in creation order.
func (g *Graph) Temps() []Var {
	out := make([]Var, 0, len(g.exprByTemp))
	for h := range g.exprByTemp {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		// Creation order coincides with numeric suffix order.
		return tempNum(out[i]) < tempNum(out[j])
	})
	return out
}

func tempNum(v Var) int {
	n := 0
	for _, r := range string(v)[len(tempPrefix):] {
		n = n*10 + int(r-'0')
	}
	return n
}

// RegisterTemp records an externally chosen temporary h for expression ε.
// It is used by graph cloning and by tests that construct post-init graphs
// directly. Registering a conflicting association panics (caller bug).
func (g *Graph) RegisterTemp(h Var, expr Term) {
	if prev, ok := g.exprByTemp[h]; ok {
		if !prev.Equal(expr) {
			panic(fmt.Sprintf("ir: temp %s already bound to %s", h, prev))
		}
		return
	}
	if prev, ok := g.tempByExpr[expr]; ok && prev != h {
		panic(fmt.Sprintf("ir: expression %s already bound to %s", expr, prev))
	}
	g.exprByTemp[h] = expr
	g.tempByExpr[expr] = h
	if IsTempName(h) && tempNum(h) >= g.nextTemp {
		g.nextTemp = tempNum(h) + 1
	}
}

// Vars returns every variable occurring in the program (used or defined),
// sorted, excluding none. Useful for interpreters and generators.
func (g *Graph) Vars() []Var {
	seen := map[Var]bool{}
	var scratch []Var
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			scratch = in.Uses(scratch[:0])
			for _, v := range scratch {
				seen[v] = true
			}
			if v, ok := in.Defs(); ok {
				seen[v] = true
			}
		}
	}
	out := make([]Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SourceVars returns the non-temporary variables of the program, sorted.
func (g *Graph) SourceVars() []Var {
	var out []Var
	for _, v := range g.Vars() {
		if !g.IsTemp(v) {
			out = append(out, v)
		}
	}
	return out
}

// Normalize removes skip instructions from blocks that contain any other
// instruction and gives otherwise-empty blocks a single skip, so that every
// block carries at least one instruction. The instruction-level analyses
// rely on this invariant. It returns g for chaining.
func (g *Graph) Normalize() *Graph {
	for _, b := range g.Blocks {
		// Compact in place, copying an instruction only once a skip has
		// opened a gap before it.
		kept := 0
		for i := range b.Instrs {
			if b.Instrs[i].Kind == KindSkip {
				continue
			}
			if kept != i {
				b.Instrs[kept] = b.Instrs[i]
			}
			kept++
		}
		if kept == 0 {
			b.Instrs = append(b.Instrs[:0], Skip())
		} else {
			b.Instrs = b.Instrs[:kept]
		}
	}
	return g
}

// Encode returns a canonical, deterministic rendering of the graph used for
// structural comparison in tests and diagnostics. (The fixpoint loops of
// the motion passes no longer re-encode the graph to detect change; they
// use the precise change signals of aht.Step and rae elimination counts.)
func (g *Graph) Encode() string {
	// The length estimate lets one buffer usually hold the rendering.
	buf := make([]byte, 0, 16*len(g.Blocks)+12*g.InstrCount())
	buf = appendBlocksCanon(buf, g.Blocks, func(buf []byte, id NodeID) []byte {
		return append(buf, g.Blocks[id].Name...)
	})
	return string(buf)
}

// appendBlocksCanon appends the shared canonical block rendering —
// "name[instr;instr]->succ,succ\n" per block, in the given order, naming
// blocks via appendName — to buf and returns the extended buffer. It is
// the single serialization used by both Encode (declaration order, source
// names) and Fingerprint (canonical DFS order, rank names), so the
// printer and the cache key cannot drift.
func appendBlocksCanon(buf []byte, blocks []*Block, appendName func([]byte, NodeID) []byte) []byte {
	for _, b := range blocks {
		buf = appendName(buf, b.ID)
		buf = append(buf, '[')
		for i := range b.Instrs {
			if i > 0 {
				buf = append(buf, ';')
			}
			buf = b.Instrs[i].appendKey(buf)
		}
		buf = append(buf, "]->"...)
		for i, s := range b.Succs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendName(buf, s)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// Clone returns a deep copy of g sharing no mutable state. The copy's
// blocks, instructions and edge lists are carved from one slab each (every
// block's slices with capacity equal to length, so an append on one block
// reallocates instead of overwriting its neighbour). A slab stays alive
// while any block still points into it.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:       g.Name,
		Entry:      g.Entry,
		Exit:       g.Exit,
		tempByExpr: make(map[Term]Var, len(g.tempByExpr)),
		exprByTemp: make(map[Var]Term, len(g.exprByTemp)),
		nextTemp:   g.nextTemp,
		nextSynth:  g.nextSynth,
	}
	nInstrs, nEdges := 0, 0
	for _, b := range g.Blocks {
		nInstrs += len(b.Instrs)
		nEdges += len(b.Succs) + len(b.Preds)
	}
	blocks := make([]Block, len(g.Blocks))
	instrs := make([]Instr, 0, nInstrs)
	edges := make([]NodeID, 0, nEdges)
	c.Blocks = make([]*Block, len(g.Blocks))
	for i, b := range g.Blocks {
		nb := &blocks[i]
		nb.ID, nb.Name = b.ID, b.Name
		lo := len(instrs)
		instrs = append(instrs, b.Instrs...)
		nb.Instrs = instrs[lo:len(instrs):len(instrs)]
		nb.Succs, edges = carve(edges, b.Succs)
		nb.Preds, edges = carve(edges, b.Preds)
		c.Blocks[i] = nb
	}
	for h, e := range g.exprByTemp {
		c.exprByTemp[h] = e
		c.tempByExpr[e] = h
	}
	return c
}

// carve appends ids to slab and returns them as a full slice expression
// over it (nil when ids is empty) together with the grown slab.
func carve(slab, ids []NodeID) (carved, grown []NodeID) {
	lo := len(slab)
	slab = append(slab, ids...)
	return window(slab, lo, len(slab)), slab
}

// window returns slab[lo:hi] with capacity hi-lo, so that an append to it
// reallocates instead of overwriting the next list; nil when it is empty.
func window(slab []NodeID, lo, hi int) []NodeID {
	if lo == hi {
		return nil
	}
	return slab[lo:hi:hi]
}

// Edge is the flow edge From→To.
type Edge struct{ From, To NodeID }

// Assemble returns the graph name over blocks with the given entry and
// exit. It adopts the blocks slice and reads only each block's Name and
// Instrs: block i gets ID i, and its Succs and Preds list the edges that
// leave and enter it in the order edges gives them — what one AddEdge
// call per edge would build. All edge lists are carved from one slab, as
// Clone carves them. Every edge must name blocks of blocks. Assemble
// neither normalizes nor validates; the parser and Builder.Finish do
// both.
func Assemble(name string, blocks []Block, edges []Edge, entry, exit NodeID) *Graph {
	g := NewGraph(name)
	g.Entry, g.Exit = entry, exit
	// A counting sort, stable in edge order, into lists 2i (block i's
	// successors) and 2i+1 (its predecessors): count each list, turn the
	// counts into start offsets, then place every edge at its lists'
	// next free slot, which leaves end[k] at the end of list k.
	end := make([]int, 2*len(blocks)+1)
	for _, e := range edges {
		end[2*e.From+1]++
		end[2*e.To+2]++
	}
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	slab := make([]NodeID, 2*len(edges))
	for _, e := range edges {
		slab[end[2*e.From]] = e.To
		end[2*e.From]++
		slab[end[2*e.To+1]] = e.From
		end[2*e.To+1]++
	}
	g.Blocks = make([]*Block, len(blocks))
	lo := 0
	for i := range blocks {
		b := &blocks[i]
		b.ID = NodeID(i)
		b.Succs = window(slab, lo, end[2*i])
		b.Preds = window(slab, end[2*i], end[2*i+1])
		lo = end[2*i+1]
		g.Blocks[i] = b
	}
	return g
}

// Restore overwrites g in place with the contents of snapshot, adopting
// the snapshot's storage: the snapshot must not be used or mutated by the
// caller afterwards. It is the rollback half of the pipeline's
// checkpoint/rollback discipline — the caller holds *g, so recovery must
// happen in place rather than by returning a different graph.
func (g *Graph) Restore(snapshot *Graph) {
	g.Name = snapshot.Name
	g.Blocks = snapshot.Blocks
	g.Entry, g.Exit = snapshot.Entry, snapshot.Exit
	g.tempByExpr, g.exprByTemp = snapshot.tempByExpr, snapshot.exprByTemp
	g.nextTemp, g.nextSynth = snapshot.nextTemp, snapshot.nextSynth
}

// InstrCount returns the total number of instructions in the program.
func (g *Graph) InstrCount() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// CountPattern returns the number of occurrences of assignment pattern p.
func (g *Graph) CountPattern(p AssignPattern) int {
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == KindAssign && in.LHS == p.LHS && in.RHS.Equal(p.RHS) {
				n++
			}
		}
	}
	return n
}
