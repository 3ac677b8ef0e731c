// Package printer renders flow graphs back into the ".fg" source language
// (round-trippable through internal/parse) and into Graphviz dot for
// visual inspection of transformation results.
package printer

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"assignmentmotion/internal/ir"
)

// Fprint writes g in .fg syntax to w in one Write. The output parses back
// (with AllowTemps) to a graph with the same Encode() value.
func Fprint(w io.Writer, g *ir.Graph) error {
	_, err := w.Write(render(g))
	return err
}

// String renders g in .fg syntax.
func String(g *ir.Graph) string { return string(render(g)) }

// render returns g in .fg syntax, appended into one buffer whose size,
// estimated from the block and instruction counts, usually holds it all.
func render(g *ir.Graph) []byte {
	buf := make([]byte, 0, 64+len(g.Name)+40*len(g.Blocks)+20*g.InstrCount())
	buf = append(buf, "graph "...)
	buf = append(buf, g.Name...)
	buf = append(buf, " {\n  entry "...)
	buf = append(buf, g.EntryBlock().Name...)
	buf = append(buf, "\n  exit "...)
	buf = append(buf, g.ExitBlock().Name...)
	buf = append(buf, '\n')
	for _, b := range g.Blocks {
		buf = append(buf, "  block "...)
		buf = append(buf, b.Name...)
		buf = append(buf, " {\n"...)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Kind {
			case ir.KindSkip:
				// A lone skip keeps otherwise-empty blocks parseable;
				// skips next to real instructions are not printed.
				if len(b.Instrs) == 1 {
					buf = append(buf, "    skip\n"...)
				}
			case ir.KindAssign:
				buf = append(buf, "    "...)
				buf = append(buf, in.LHS...)
				buf = append(buf, " := "...)
				buf = appendTerm(buf, in.RHS)
				buf = append(buf, '\n')
			case ir.KindOut:
				buf = append(buf, "    out("...)
				for j, o := range in.Args {
					if j > 0 {
						buf = append(buf, ", "...)
					}
					buf = appendOperand(buf, o)
				}
				buf = append(buf, ")\n"...)
			case ir.KindCond:
				buf = append(buf, "    if "...)
				buf = appendTerm(buf, in.CondL)
				buf = append(buf, ' ')
				buf = append(buf, in.CondOp...)
				buf = append(buf, ' ')
				buf = appendTerm(buf, in.CondR)
				buf = append(buf, " then "...)
				buf = append(buf, g.Block(b.Succs[0]).Name...)
				buf = append(buf, " else "...)
				buf = append(buf, g.Block(b.Succs[1]).Name...)
				buf = append(buf, '\n')
			}
		}
		if _, hasCond := b.Cond(); !hasCond && len(b.Succs) == 1 {
			buf = append(buf, "    goto "...)
			buf = append(buf, g.Block(b.Succs[0]).Name...)
			buf = append(buf, '\n')
		}
		buf = append(buf, "  }\n"...)
	}
	return append(buf, "}\n"...)
}

// appendTerm appends t as "a" or "a op b".
func appendTerm(buf []byte, t ir.Term) []byte {
	buf = appendOperand(buf, t.Args[0])
	if t.Trivial() {
		return buf
	}
	buf = append(buf, ' ')
	buf = append(buf, t.Op...)
	buf = append(buf, ' ')
	return appendOperand(buf, t.Args[1])
}

// appendOperand appends o as a variable name or a decimal constant.
func appendOperand(buf []byte, o ir.Operand) []byte {
	if o.IsConst {
		return strconv.AppendInt(buf, o.Const, 10)
	}
	return append(buf, o.Var...)
}

// Dot renders g as a Graphviz digraph. Blocks become record-shaped nodes
// listing their instructions; branch edges are labelled T/F.
func Dot(g *ir.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", g.Name)
	sb.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, b := range g.Blocks {
		var lines []string
		lines = append(lines, b.Name)
		for _, in := range b.Instrs {
			lines = append(lines, in.String())
		}
		label := strings.Join(lines, "\\l") + "\\l"
		attrs := ""
		if b.ID == g.Entry {
			attrs = ", penwidth=2"
		}
		if b.ID == g.Exit {
			attrs = ", peripheries=2"
		}
		fmt.Fprintf(&sb, "  %q [label=\"%s\"%s];\n", b.Name, label, attrs)
	}
	for _, b := range g.Blocks {
		_, branch := b.Cond()
		for i, s := range b.Succs {
			label := ""
			if branch {
				if i == 0 {
					label = " [label=\"T\"]"
				} else {
					label = " [label=\"F\"]"
				}
			}
			fmt.Fprintf(&sb, "  %q -> %q%s;\n", b.Name, g.Block(s).Name, label)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
