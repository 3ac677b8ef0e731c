package ir

import "fmt"

// IsCriticalEdge reports whether the edge (from, to) is critical: it leads
// from a node with more than one successor to a node with more than one
// predecessor (§2.1). Code motion across such an edge is unsafe, so every
// pipeline splits them first.
func (g *Graph) IsCriticalEdge(from, to NodeID) bool {
	return len(g.Block(from).Succs) > 1 && len(g.Block(to).Preds) > 1
}

// SplitCriticalEdges inserts a synthetic node into every critical edge
// (Figure 10) and returns the number of edges split. Synthetic nodes carry
// a single skip instruction and are named "s<from>_<to>" after the blocks
// the edge connected. The operation is idempotent: synthetic nodes have one
// predecessor and one successor, so their edges are never critical.
func (g *Graph) SplitCriticalEdges() int {
	split := 0
	// Collect first: AddBlock invalidates nothing, but we must not walk
	// blocks appended during the loop.
	type edge struct{ from, to NodeID }
	var critical []edge
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if g.IsCriticalEdge(b.ID, s) {
				critical = append(critical, edge{b.ID, s})
			}
		}
	}
	for _, e := range critical {
		g.splitEdge(e.from, e.to)
		split++
	}
	return split
}

// splitEdge replaces one occurrence of the edge (from, to) by from→synth→to.
// Successor order of `from` is preserved so branch targets stay meaningful.
func (g *Graph) splitEdge(from, to NodeID) {
	name := fmt.Sprintf("s%s_%s", g.Block(from).Name, g.Block(to).Name)
	if g.BlockByName(name) != nil {
		name = fmt.Sprintf("%s_%d", name, g.nextSynth)
		g.nextSynth++
	}
	synth := g.AddBlock(name)
	synth.Instrs = []Instr{Skip()}

	fb, tb := g.Block(from), g.Block(to)
	replaced := false
	for i, s := range fb.Succs {
		if s == to && !replaced {
			fb.Succs[i] = synth.ID
			replaced = true
		}
	}
	if !replaced {
		panic("ir: splitEdge on missing edge")
	}
	replaced = false
	for i, p := range tb.Preds {
		if p == from && !replaced {
			tb.Preds[i] = synth.ID
			replaced = true
		}
	}
	if !replaced {
		panic("ir: splitEdge on inconsistent preds")
	}
	synth.Succs = []NodeID{to}
	synth.Preds = []NodeID{from}
}
