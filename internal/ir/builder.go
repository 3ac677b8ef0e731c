package ir

import "fmt"

// Builder offers a fluent API for constructing flow graphs programmatically.
// The textual parser (internal/parse) is the usual front end; the builder
// exists for generators and tests that assemble graphs in code.
//
//	b := ir.NewBuilder("example")
//	b.Block("b1").Assign("y", ir.BinTerm(ir.OpAdd, ir.VarOp("c"), ir.VarOp("d")))
//	b.Block("b2").CondInstr(ir.OpGT, ..., ...)
//	b.Edge("b1", "b2")
//	...
//	g, err := b.Finish("b1", "b4")
type Builder struct {
	name   string
	ids    map[string]NodeID
	blocks []*BlockBuilder // in creation order: block i gets NodeID i
	edges  []Edge
}

// BlockBuilder accumulates the instructions of one block.
type BlockBuilder struct {
	name   string
	instrs []Instr
}

// NewBuilder returns a builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, ids: map[string]NodeID{}}
}

// Block returns the block builder for name, creating the block on first use.
func (b *Builder) Block(name string) *BlockBuilder {
	return b.blocks[b.id(name)]
}

// id returns the NodeID of the block called name, creating it on first use.
func (b *Builder) id(name string) NodeID {
	if id, ok := b.ids[name]; ok {
		return id
	}
	id := NodeID(len(b.blocks))
	b.ids[name] = id
	b.blocks = append(b.blocks, &BlockBuilder{name: name})
	return id
}

// Edge records the edge from→to. Blocks are created on demand, so edges may
// be declared before their endpoints hold instructions.
func (b *Builder) Edge(from, to string) *Builder {
	f := b.id(from)
	b.edges = append(b.edges, Edge{f, b.id(to)})
	return b
}

// Assign appends v := t.
func (bb *BlockBuilder) Assign(v Var, t Term) *BlockBuilder {
	bb.instrs = append(bb.instrs, NewAssign(v, t))
	return bb
}

// AssignVar appends the copy v := w.
func (bb *BlockBuilder) AssignVar(v, w Var) *BlockBuilder {
	return bb.Assign(v, VarTerm(w))
}

// AssignBin appends v := a op b.
func (bb *BlockBuilder) AssignBin(v Var, op Op, a, c Operand) *BlockBuilder {
	return bb.Assign(v, BinTerm(op, a, c))
}

// Out appends out(args...).
func (bb *BlockBuilder) Out(args ...Operand) *BlockBuilder {
	bb.instrs = append(bb.instrs, NewOut(args...))
	return bb
}

// OutVars appends out(vars...).
func (bb *BlockBuilder) OutVars(vars ...Var) *BlockBuilder {
	args := make([]Operand, len(vars))
	for i, v := range vars {
		args[i] = VarOp(v)
	}
	return bb.Out(args...)
}

// Cond appends the branch condition "l op r"; the block must then be given
// exactly two outgoing edges, then-target first.
func (bb *BlockBuilder) Cond(op Op, l, r Term) *BlockBuilder {
	bb.instrs = append(bb.instrs, NewCond(op, l, r))
	return bb
}

// Instr appends a pre-built instruction.
func (bb *BlockBuilder) Instr(in Instr) *BlockBuilder {
	bb.instrs = append(bb.instrs, in)
	return bb
}

// Finish materializes the graph with the given entry and exit block names
// through Assemble. It normalizes and validates the result.
func (b *Builder) Finish(entry, exit string) (*Graph, error) {
	en, ok := b.ids[entry]
	if !ok {
		return nil, fmt.Errorf("ir: unknown entry block %q", entry)
	}
	ex, ok := b.ids[exit]
	if !ok {
		return nil, fmt.Errorf("ir: unknown exit block %q", exit)
	}
	blocks := make([]Block, len(b.blocks))
	for i, bb := range b.blocks {
		blocks[i].Name, blocks[i].Instrs = bb.name, bb.instrs
	}
	g := Assemble(b.name, blocks, b.edges, en, ex)
	g.Normalize()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustFinish is Finish that panics on error, for graphs valid by
// construction: tests, examples, and the typed dialect's lowering of a
// checked unit.
func (b *Builder) MustFinish(entry, exit string) *Graph {
	g, err := b.Finish(entry, exit)
	if err != nil {
		panic(err)
	}
	return g
}
