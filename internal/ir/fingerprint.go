package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
)

// Fingerprint is a content address of a graph: a collision-resistant hash
// of the graph's canonical form. Two graphs share a fingerprint exactly
// when they are identical up to block naming and block declaration order
// (variables, instructions, branch targets, and temporary bindings all
// participate). The batch engine keys its result cache on fingerprints.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 12 hex digits, for logs and reports.
func (f Fingerprint) Short() string { return f.String()[:12] }

// Fingerprint computes the graph's content address: one SHA-256 stream
// over the canonical form. The canonical form renames blocks to their
// rank in a deterministic depth-first traversal from the entry node
// (successor order preserved, since it selects branch arms), appends
// unreachable blocks in declaration order, and records every
// instruction, edge, and occurring temporary binding h_ε ↦ ε. Graph and
// block names are deliberately excluded, so structurally equal programs
// parsed from differently named sources coincide.
func (g *Graph) Fingerprint() Fingerprint {
	order, rank := g.canonicalOrder()

	h := sha256.New()
	fmt.Fprintf(h, "entry %d exit %d\n", rank[g.Entry], rank[g.Exit])
	writeBlocksCanon(h, order, func(id NodeID) string { return "n" + strconv.Itoa(rank[id]) })
	var temps []Var
	seen := map[Var]bool{}
	note := func(v Var) {
		if !seen[v] && g.IsTemp(v) {
			seen[v] = true
			temps = append(temps, v)
		}
	}
	var uses []Var
	for _, b := range order {
		for i := range b.Instrs {
			uses = b.Instrs[i].Uses(uses[:0])
			for _, v := range uses {
				note(v)
			}
			if v, ok := b.Instrs[i].Defs(); ok {
				note(v)
			}
		}
	}
	// Temporary bindings are semantic state (IsTemp / TempExpr steer the
	// phases), so occurring temporaries contribute their bound patterns.
	sort.Slice(temps, func(i, j int) bool { return temps[i] < temps[j] })
	for _, v := range temps {
		e, _ := g.TempExpr(v)
		fmt.Fprintf(h, "temp %s=%s\n", v, e.Key())
	}

	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// canonicalOrder computes the deterministic entry-first DFS traversal
// that canonical encoding and fingerprinting use: successor order
// preserved (it selects branch arms), unreachable blocks appended in
// declaration order. rank[id] is the 1-based canonical position.
func (g *Graph) canonicalOrder() (order []*Block, rank []int) {
	rank = make([]int, len(g.Blocks))
	order = make([]*Block, 0, len(g.Blocks))
	visit := func(id NodeID) {
		stack := []NodeID{id}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rank[n] != 0 {
				continue
			}
			order = append(order, g.Block(n))
			rank[n] = len(order)
			succs := g.Block(n).Succs
			for i := len(succs) - 1; i >= 0; i-- {
				if rank[succs[i]] == 0 {
					stack = append(stack, succs[i])
				}
			}
		}
	}
	if len(g.Blocks) > 0 {
		visit(g.Entry)
	}
	for _, b := range g.Blocks {
		if rank[b.ID] == 0 {
			visit(b.ID)
		}
	}
	return order, rank
}
