package ir

// Tidy cleans a graph up for presentation after optimization:
//
//  1. skip-only blocks with a single successor are bypassed (their
//     predecessors are rewired around them) — these are typically
//     synthetic edge-split nodes that received no insertions;
//  2. straight-line chains (a block with a single successor whose only
//     predecessor it is, with no intervening branch) are merged.
//
// Tidy preserves semantics exactly but may re-create critical edges, so
// it must run after, never before, the motion passes; re-optimizing a
// tidied graph simply re-splits. The entry and exit blocks are never
// removed. It returns the number of blocks eliminated.
func (g *Graph) Tidy() int {
	removed := 0
	for {
		n := g.bypassSkipBlocks() + g.mergeChains()
		if n == 0 {
			break
		}
		removed += n
	}
	return removed
}

// bypassSkipBlocks rewires predecessors around skip-only single-successor
// blocks and drops them.
func (g *Graph) bypassSkipBlocks() int {
	drop := map[NodeID]bool{}
	for _, b := range g.Blocks {
		if b.ID == g.Entry || b.ID == g.Exit {
			continue
		}
		if len(b.Succs) != 1 || b.Succs[0] == b.ID {
			continue
		}
		onlySkips := true
		for i := range b.Instrs {
			if b.Instrs[i].Kind != KindSkip {
				onlySkips = false
				break
			}
		}
		if !onlySkips {
			continue
		}
		drop[b.ID] = true
	}
	if len(drop) == 0 {
		return 0
	}
	// resolve follows dropped blocks to the surviving target.
	resolve := func(id NodeID) NodeID {
		seen := 0
		for drop[id] {
			id = g.Block(id).Succs[0]
			seen++
			if seen > len(g.Blocks) {
				panic("ir: tidy cycle of skip blocks")
			}
		}
		return id
	}
	for _, b := range g.Blocks {
		if drop[b.ID] {
			continue
		}
		for i, s := range b.Succs {
			b.Succs[i] = resolve(s)
		}
	}
	g.Entry = resolve(g.Entry)
	return g.compact(drop)
}

// mergeChains merges b with its unique successor s when s has b as its
// unique predecessor and b does not branch.
func (g *Graph) mergeChains() int {
	merged := 0
	for _, b := range g.Blocks {
		for {
			if len(b.Succs) != 1 {
				break
			}
			s := g.Block(b.Succs[0])
			if s.ID == b.ID || s.ID == g.Entry || len(s.Preds) != 1 {
				break
			}
			if b.ID == g.Exit {
				break
			}
			// Absorb s into b.
			for i := range s.Instrs {
				if s.Instrs[i].Kind != KindSkip {
					b.Instrs = append(b.Instrs, s.Instrs[i])
				}
			}
			b.Succs = append([]NodeID(nil), s.Succs...)
			s.Succs = nil
			s.Instrs = []Instr{Skip()}
			// Rewire successors' pred entries from s to b.
			for _, ns := range b.Succs {
				preds := g.Block(ns).Preds
				for i, p := range preds {
					if p == s.ID {
						preds[i] = b.ID
					}
				}
			}
			if s.ID == g.Exit {
				g.Exit = b.ID
			}
			// Mark s dropped by cutting it loose; compact below.
			s.Preds = nil
			merged++
			// b now ends like s did; try to keep merging.
		}
	}
	if merged == 0 {
		return 0
	}
	drop := map[NodeID]bool{}
	for _, b := range g.Blocks {
		if b.ID != g.Entry && b.ID != g.Exit && len(b.Preds) == 0 && len(b.Succs) == 0 {
			drop[b.ID] = true
		}
	}
	return g.compact(drop)
}

// compact removes the dropped blocks, renumbers IDs densely, and rebuilds
// predecessor lists.
func (g *Graph) compact(drop map[NodeID]bool) int {
	if len(drop) == 0 {
		return 0
	}
	remap := make(map[NodeID]NodeID, len(g.Blocks))
	var kept []*Block
	for _, b := range g.Blocks {
		if drop[b.ID] {
			continue
		}
		remap[b.ID] = NodeID(len(kept))
		kept = append(kept, b)
	}
	for _, b := range kept {
		oldID := b.ID
		b.ID = remap[oldID]
		succs := b.Succs[:0]
		for _, s := range b.Succs {
			if ns, ok := remap[s]; ok {
				succs = append(succs, ns)
			}
		}
		b.Succs = succs
		b.Preds = b.Preds[:0]
	}
	g.Blocks = kept
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			g.Block(s).Preds = append(g.Block(s).Preds, b.ID)
		}
	}
	g.Entry = remap[g.Entry]
	g.Exit = remap[g.Exit]
	g.Normalize()
	return len(drop)
}
