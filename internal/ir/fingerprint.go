package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
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
	rankName := func(buf []byte, id NodeID) []byte {
		return strconv.AppendInt(append(buf, 'n'), int64(rank[id]), 10)
	}

	// The canonical form is appended into one buffer that is hashed and
	// reset whenever it reaches fingerprintChunk bytes.
	h := sha256.New()
	buf := make([]byte, 0, 2*fingerprintChunk)
	flushFull := func() {
		if len(buf) >= fingerprintChunk {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	buf = append(buf, "entry "...)
	buf = strconv.AppendInt(buf, int64(rank[g.Entry]), 10)
	buf = append(buf, " exit "...)
	buf = strconv.AppendInt(buf, int64(rank[g.Exit]), 10)
	buf = append(buf, '\n')
	for i := range order {
		buf = appendBlocksCanon(buf, order[i:i+1], rankName)
		flushFull()
	}

	// Temporary bindings are semantic state (IsTemp / TempExpr steer the
	// phases), so the temporaries the instructions read or write
	// contribute their bound patterns, in sorted order. The instructions
	// are walked in place: Uses and Defs would copy each one.
	temps := make([]Var, 0, len(g.exprByTemp))
	seen := make(map[Var]bool, len(g.exprByTemp))
	note := func(v Var) {
		if !seen[v] && g.IsTemp(v) {
			seen[v] = true
			temps = append(temps, v)
		}
	}
	noteOperand := func(o *Operand) {
		if !o.IsConst {
			note(o.Var)
		}
	}
	noteTerm := func(t *Term) {
		noteOperand(&t.Args[0])
		if !t.Trivial() {
			noteOperand(&t.Args[1])
		}
	}
	for _, b := range order {
		for i := range b.Instrs {
			switch in := &b.Instrs[i]; in.Kind {
			case KindAssign:
				note(in.LHS)
				noteTerm(&in.RHS)
			case KindOut:
				for j := range in.Args {
					noteOperand(&in.Args[j])
				}
			case KindCond:
				noteTerm(&in.CondL)
				noteTerm(&in.CondR)
			}
		}
	}
	slices.Sort(temps)
	for _, v := range temps {
		e, _ := g.TempExpr(v)
		buf = append(buf, "temp "...)
		buf = append(buf, v...)
		buf = append(buf, '=')
		buf = e.appendKey(buf)
		buf = append(buf, '\n')
		flushFull()
	}
	h.Write(buf)

	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// fingerprintChunk is the buffer length at which Fingerprint hands the
// canonical form to the hash.
const fingerprintChunk = 4096

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
