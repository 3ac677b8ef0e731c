package lcm

import (
	"fmt"
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/rae"
)

// refRun is em as it ran before the rounds moved onto one encoding, minus
// the session: each round is one graph-level hoisting step
// (aht.ApplyMasked) and one instruction-level elimination
// (rae.EliminateMasked), and each re-encodes the graph.
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
		hoisted := aht.ApplyMasked(g, isInit)
		removed := rae.EliminateMasked(g, isInit)
		st.Eliminated += removed
		if !hoisted && removed == 0 {
			break
		}
	}
	st.Flush = flush.Run(g)
	return st
}

// TestEncodedFixpointMatchesReference: on the fg corpus, the figures and
// cfggen Structured/Unstructured 6/12/40/200 × seeds 1–40, RunWith prints
// the same program as refRun, with the same statistics.
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
		gs, err := RunWith(got, nil)
		if err != nil {
			t.Fatalf("%s: %v", ng.name, err)
		}
		if gs != ws {
			t.Errorf("%s: stats %+v, reference %+v", ng.name, gs, ws)
		}
		if g, w := printer.String(got), printer.String(want); g != w {
			t.Errorf("%s: program differs from the reference:\n%s\nvs\n%s", ng.name, g, w)
		}
	}
	t.Logf("%d graphs", len(graphs))
}
