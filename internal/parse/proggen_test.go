package parse_test

import (
	"fmt"
	"math/rand"
	"strings"
)

// genProg returns seed's program of the prog-source generator: assignments
// with nested arithmetic, out, skip, if/else, while, do … while and
// trailing break/continue, with compound statements nested at most three
// deep. Every loop counts its own fresh counter up from 0 as the first
// statement of its body, so every generated program terminates. The
// generator is pinned: the table in prog_test.go holds fingerprints of its
// output, so changing what it emits for a seed invalidates the table.
func genProg(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	fmt.Fprintf(&g.b, "prog p%d {\n", seed)
	if g.r.Intn(50) == 0 {
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			g.line(1, "skip")
		}
	} else {
		g.stmts(0, 1, false)
		if g.r.Intn(5) != 0 {
			g.line(1, "out(x, y, z)")
		}
	}
	g.b.WriteString("}\n")
	return g.b.String()
}

type progGen struct {
	r     *rand.Rand
	b     strings.Builder
	loops int // loop counters allocated so far
}

var (
	genTargets = []string{"x", "y", "z"}
	genReads   = []string{"a", "b", "c", "x", "y", "z"}
	genArith   = []string{"+", "-", "*", "/", "%"}
	genRel     = []string{"<", "<=", ">", ">=", "==", "!="}
)

func (g *progGen) line(indent int, format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *progGen) pick(from []string) string { return from[g.r.Intn(len(from))] }

// stmts emits one to four statements at nesting depth depth, then, inside
// a loop, sometimes a closing break or continue.
func (g *progGen) stmts(depth, indent int, inLoop bool) {
	for n := 1 + g.r.Intn(4); n > 0; n-- {
		g.stmt(depth, indent, inLoop)
	}
	if inLoop && g.r.Intn(4) == 0 {
		if g.r.Intn(2) == 0 {
			g.line(indent, "break")
		} else {
			g.line(indent, "continue")
		}
	}
}

func (g *progGen) stmt(depth, indent int, inLoop bool) {
	k := g.r.Intn(20)
	if depth >= 3 {
		k = g.r.Intn(11) // no compound statement below depth 3
	}
	switch {
	case k < 7:
		g.line(indent, "%s := %s", g.pick(genTargets), g.expr(2))
	case k < 9:
		args := make([]string, 1+g.r.Intn(3))
		for i := range args {
			args[i] = g.expr(1)
		}
		g.line(indent, "out(%s)", strings.Join(args, ", "))
	case k < 11:
		g.line(indent, "skip")
	case k < 15:
		g.line(indent, "if %s {", g.cond())
		g.stmts(depth+1, indent+1, inLoop)
		if g.r.Intn(2) == 0 {
			g.line(indent, "} else {")
			g.stmts(depth+1, indent+1, inLoop)
		}
		g.line(indent, "}")
	case k < 17:
		ctr := g.counter(indent)
		g.line(indent, "while %s < %d {", ctr, 1+g.r.Intn(3))
		g.line(indent+1, "%s := %s + 1", ctr, ctr)
		g.stmts(depth+1, indent+1, true)
		g.line(indent, "}")
	default:
		ctr := g.counter(indent)
		g.line(indent, "do {")
		g.line(indent+1, "%s := %s + 1", ctr, ctr)
		g.stmts(depth+1, indent+1, true)
		g.line(indent, "} while %s < %d", ctr, 1+g.r.Intn(3))
	}
}

// counter allocates a fresh loop counter and emits its reset.
func (g *progGen) counter(indent int) string {
	g.loops++
	k := fmt.Sprintf("k%d", g.loops)
	g.line(indent, "%s := 0", k)
	return k
}

func (g *progGen) cond() string {
	return g.expr(1) + " " + g.pick(genRel) + " " + g.expr(1)
}

// expr emits an arithmetic expression at most depth operators deep;
// compound operands are parenthesized at random, so both precedence and
// parentheses are exercised.
func (g *progGen) expr(depth int) string {
	if depth == 0 || g.r.Intn(3) == 0 {
		return g.leaf()
	}
	l, r := g.expr(depth-1), g.expr(depth-1)
	if strings.Contains(l, " ") && g.r.Intn(2) == 0 {
		l = "(" + l + ")"
	}
	if strings.Contains(r, " ") && g.r.Intn(2) == 0 {
		r = "(" + r + ")"
	}
	return l + " " + g.pick(genArith) + " " + r
}

// leaf emits a variable, a small literal, a negative literal, rarely an
// int64 extreme, or rarely t1, which moves the decomposition temporaries
// off the t prefix.
func (g *progGen) leaf() string {
	switch k := g.r.Intn(200); {
	case k < 90:
		return g.pick(genReads)
	case k < 160:
		return fmt.Sprint(g.r.Intn(10))
	case k < 195:
		return fmt.Sprint(-1 - g.r.Intn(9))
	case k == 195:
		return "-9223372036854775808"
	case k == 196:
		return "9223372036854775807"
	default:
		return "t1"
	}
}
