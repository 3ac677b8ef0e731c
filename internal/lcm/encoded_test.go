package lcm

import (
	"fmt"
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/rae"
)

// refRun is em with graph-level rounds on fresh sessions: each round
// encodes the graph for one hoisting step restricted to the
// initialization patterns (aht.Step, written back), then removes their
// redundant occurrences by the instruction-level reference analysis of
// Table 2 (rae.Analyze) instead of the block-level rae.Step.
func refRun(g *ir.Graph) Stats {
	var st Stats
	g.SplitCriticalEdges()
	st.Decomposed = core.Initialize(g)
	isInit := func(p ir.AssignPattern) bool {
		e, ok := g.TempExpr(p.LHS)
		return ok && e.Equal(p.RHS)
	}
	for {
		st.Iterations++
		hoisted := hoistMasked(g, isInit)
		removed := eliminateMasked(g, isInit)
		st.Eliminated += removed
		if !hoisted && removed == 0 {
			break
		}
	}
	s := analysis.NewSession()
	defer s.Close()
	st.Flush = flush.Run(g, s)
	return st
}

// hoistMasked is one graph-level hoisting step restricted to the
// patterns mask accepts.
func hoistMasked(g *ir.Graph, mask func(ir.AssignPattern) bool) bool {
	s := analysis.NewSession()
	defer s.Close()
	c, done := analysis.Encode(g, s)
	defer done()
	keep := s.Arena().Vec(c.U.Len())
	for id, p := range c.U.Patterns() {
		if mask(p) {
			keep.Set(id)
		}
	}
	return aht.Step(c, s, keep)
}

// eliminateMasked removes every occurrence of a pattern mask accepts that
// rae.Analyze finds redundant at its entry.
func eliminateMasked(g *ir.Graph, mask func(ir.AssignPattern) bool) int {
	s := analysis.NewSession()
	defer s.Close()
	info := rae.Analyze(g, s)
	removed, i := 0, 0
	for _, b := range g.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			p := ir.AssignPattern{LHS: in.LHS, RHS: in.RHS}
			id, ok := info.U.ID(p)
			if in.Kind == ir.KindAssign && ok && mask(p) && info.NRedundant[i].Get(id) {
				removed++
			} else {
				kept = append(kept, in)
			}
			i++
		}
		b.Instrs = kept
	}
	g.Normalize()
	return removed
}

// TestEncodedFixpointMatchesReference: on the fg corpus, the figures and
// cfggen Structured/Unstructured 6/12/40/200 × seeds 1–40, Run prints the
// same program as refRun, with the same statistics.
func TestEncodedFixpointMatchesReference(t *testing.T) {
	type named struct {
		name string
		g    *ir.Graph
	}
	var graphs []named
	for _, n := range corpus.Names() {
		graphs = append(graphs, named{n, corpus.Load(n)})
	}
	for _, n := range figures.Names() {
		graphs = append(graphs, named{n, figures.Load(n)})
	}
	for _, size := range []int{6, 12, 40, 200} {
		for seed := int64(1); seed <= 40; seed++ {
			cfg := cfggen.Config{Size: size}
			graphs = append(graphs,
				named{fmt.Sprintf("structured%d/%d", size, seed), cfggen.Structured(seed, cfg)},
				named{fmt.Sprintf("unstructured%d/%d", size, seed), cfggen.Unstructured(seed, cfg)})
		}
	}
	for _, ng := range graphs {
		want := ng.g.Clone()
		ws := refRun(want)
		got := ng.g.Clone()
		gs := run(t, got)
		if gs != ws {
			t.Errorf("%s: stats %+v, reference %+v", ng.name, gs, ws)
		}
		if g, w := printer.String(got), printer.String(want); g != w {
			t.Errorf("%s: program differs from the reference:\n%s\nvs\n%s", ng.name, g, w)
		}
	}
	t.Logf("%d graphs", len(graphs))
}
