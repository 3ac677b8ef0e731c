package printer_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/typeinference"
)

// refFprint is the fmt-based printer that String and Fprint replaced,
// kept as a test-only reference: the served program text, and with it
// every golden file and disk-tier entry, must not change by a byte.
func refFprint(w io.Writer, g *ir.Graph) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n", g.Name)
	fmt.Fprintf(&sb, "  entry %s\n", g.EntryBlock().Name)
	fmt.Fprintf(&sb, "  exit %s\n", g.ExitBlock().Name)
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "  block %s {\n", b.Name)
		for _, in := range b.Instrs {
			switch in.Kind {
			case ir.KindSkip:
				// A lone skip keeps otherwise-empty blocks parseable;
				// skips next to real instructions are not printed.
				if len(b.Instrs) == 1 {
					sb.WriteString("    skip\n")
				}
			case ir.KindAssign:
				fmt.Fprintf(&sb, "    %s := %s\n", in.LHS, refFormatTerm(in.RHS))
			case ir.KindOut:
				args := make([]string, len(in.Args))
				for i, o := range in.Args {
					args[i] = o.Key()
				}
				fmt.Fprintf(&sb, "    out(%s)\n", strings.Join(args, ", "))
			case ir.KindCond:
				fmt.Fprintf(&sb, "    if %s %s %s then %s else %s\n",
					refFormatTerm(in.CondL), in.CondOp, refFormatTerm(in.CondR),
					g.Block(b.Succs[0]).Name, g.Block(b.Succs[1]).Name)
			}
		}
		if _, hasCond := b.Cond(); !hasCond && len(b.Succs) == 1 {
			fmt.Fprintf(&sb, "    goto %s\n", g.Block(b.Succs[0]).Name)
		}
		sb.WriteString("  }\n")
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func refString(g *ir.Graph) string {
	var sb strings.Builder
	if err := refFprint(&sb, g); err != nil {
		panic(err) // strings.Builder never errors
	}
	return sb.String()
}

func refFormatTerm(t ir.Term) string {
	if t.Trivial() {
		return t.Args[0].Key()
	}
	return fmt.Sprintf("%s %s %s", t.Args[0].Key(), t.Op, t.Args[1].Key())
}

type namedGraph struct {
	name string
	g    *ir.Graph
}

var (
	printSetOnce sync.Once
	printSet     []namedGraph
)

// printGraphs is the fg and fun corpora and cfggen Structured and
// Unstructured graphs of 6, 12, 40 and 200 blocks on seeds 1–20, each
// before and after core.Optimize: 356 graphs.
// optimize is core.Optimize on a fresh session. It panics on an error:
// the graphs here run without a budget or deadline, so only a fixpoint
// bug can fail.
func optimize(g *ir.Graph) {
	s := analysis.NewSession()
	defer s.Close()
	if _, err := core.Optimize(g, s); err != nil {
		panic(err)
	}
}

func printGraphs() []namedGraph {
	printSetOnce.Do(func() {
		add := func(name string, mk func() *ir.Graph) {
			opt := mk()
			optimize(opt)
			printSet = append(printSet, namedGraph{name, mk()}, namedGraph{name + "/optimized", opt})
		}
		for _, n := range corpus.Names() {
			add(n, func() *ir.Graph { return corpus.Load(n) })
		}
		for _, n := range corpus.FunNames() {
			add(n, func() *ir.Graph {
				g, _, err := typeinference.Compile(corpus.FunSource(n))
				if err != nil {
					panic(err)
				}
				return g
			})
		}
		for _, size := range []int{6, 12, 40, 200} {
			for seed := int64(1); seed <= 20; seed++ {
				cfg := cfggen.Config{Size: size}
				add(fmt.Sprintf("structured%d_%d", size, seed), func() *ir.Graph { return cfggen.Structured(seed, cfg) })
				add(fmt.Sprintf("unstructured%d_%d", size, seed), func() *ir.Graph { return cfggen.Unstructured(seed, cfg) })
			}
		}
	})
	return printSet
}

func TestPrintMatchesReference(t *testing.T) {
	gs := printGraphs()
	if len(gs) != 356 {
		t.Fatalf("graph set has %d graphs, want 356", len(gs))
	}
	for _, ng := range gs {
		want := refString(ng.g)
		if got := printer.String(ng.g); got != want {
			t.Errorf("%s: String differs from the reference:\n%s\nwant\n%s", ng.name, got, want)
		}
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, ng.g); err != nil || buf.String() != want {
			t.Errorf("%s: Fprint differs from the reference (err %v)", ng.name, err)
		}
	}
}

// TestPrintAllocs pins String's allocations with a fixed bound that holds
// from ~100 to ~10k instructions: one buffer and the string, plus one
// regrowth of the buffer should its size estimate fall short.
func TestPrintAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes a 1000-block graph")
	}
	for _, size := range []int{12, 200, 1000} {
		g := cfggen.Structured(1, cfggen.Config{Size: size})
		opt := cfggen.Structured(1, cfggen.Config{Size: size})
		optimize(opt)
		for _, ng := range []namedGraph{{fmt.Sprint("structured", size), g}, {fmt.Sprint("structured", size, "/optimized"), opt}} {
			allocs := testing.AllocsPerRun(5, func() { printer.String(ng.g) })
			t.Logf("%s (%d instrs): %.0f allocs", ng.name, ng.g.InstrCount(), allocs)
			if allocs > 3 {
				t.Errorf("%s: String made %.0f allocations, want at most 3", ng.name, allocs)
			}
		}
	}
}
