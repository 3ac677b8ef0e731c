package ir

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The io.Writer-based canonical serialization that Encode and Fingerprint
// used before they appended into one buffer, kept as a test-only
// reference: the kernels must reproduce its bytes exactly, since the
// fingerprint keys every cache tier. Instructions are spelled by the
// string-concatenating Key bodies of the same version (refInstrKey and
// friends), so the reference shares no code with appendKey.

// RefEncode is the reference Encode.
func RefEncode(g *Graph) string {
	var sb strings.Builder
	refWriteBlocksCanon(&sb, g.Blocks, func(id NodeID) string { return g.Block(id).Name })
	return sb.String()
}

// RefFingerprint is the reference Fingerprint.
func RefFingerprint(g *Graph) Fingerprint {
	order, rank := g.canonicalOrder()

	h := sha256.New()
	fmt.Fprintf(h, "entry %d exit %d\n", rank[g.Entry], rank[g.Exit])
	refWriteBlocksCanon(h, order, func(id NodeID) string { return "n" + strconv.Itoa(rank[id]) })
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
	sort.Slice(temps, func(i, j int) bool { return temps[i] < temps[j] })
	for _, v := range temps {
		e, _ := g.TempExpr(v)
		fmt.Fprintf(h, "temp %s=%s\n", v, refTermKey(e))
	}

	var f Fingerprint
	h.Sum(f[:0])
	return f
}

func refWriteBlocksCanon(w io.Writer, blocks []*Block, name func(NodeID) string) {
	for _, b := range blocks {
		io.WriteString(w, name(b.ID))
		io.WriteString(w, "[")
		for i, in := range b.Instrs {
			if i > 0 {
				io.WriteString(w, ";")
			}
			io.WriteString(w, refInstrKey(in))
		}
		io.WriteString(w, "]->")
		for i, s := range b.Succs {
			if i > 0 {
				io.WriteString(w, ",")
			}
			io.WriteString(w, name(s))
		}
		io.WriteString(w, "\n")
	}
}

func refOperandKey(o Operand) string {
	if o.IsConst {
		return strconv.FormatInt(o.Const, 10)
	}
	return string(o.Var)
}

func refTermKey(t Term) string {
	if t.Trivial() {
		return refOperandKey(t.Args[0])
	}
	return refOperandKey(t.Args[0]) + string(t.Op) + refOperandKey(t.Args[1])
}

func refInstrKey(in Instr) string {
	switch in.Kind {
	case KindSkip:
		return "skip"
	case KindAssign:
		return string(in.LHS) + ":=" + refTermKey(in.RHS)
	case KindOut:
		parts := make([]string, len(in.Args))
		for i, o := range in.Args {
			parts[i] = refOperandKey(o)
		}
		return "out(" + strings.Join(parts, ",") + ")"
	case KindCond:
		return refTermKey(in.CondL) + string(in.CondOp) + refTermKey(in.CondR)
	}
	panic("ir: unknown instruction kind")
}
