package engine

import (
	"context"
	"fmt"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/verify"
)

// diffCheck verifies one engine result against its untouched input:
// structural validity, trace equivalence on random inputs, and the
// paper's cost-measure inequalities. ExprEvals may never increase
// (Theorem 5.2); executed *source* assignments may never increase
// either — raw AssignExecs can rise because initialization introduces
// temporary assignments, which Theorems 5.3/5.4 account separately, so
// the inequality is stated net of TempAssignExecs.
func diffCheck(t *testing.T, label string, base, opt *ir.Graph, seed int64) {
	t.Helper()
	if err := opt.Validate(); err != nil {
		t.Fatalf("%s: invalid optimized graph: %v", label, err)
	}
	rep := verify.Equivalent(base, opt, 3, seed)
	if !rep.Equivalent {
		t.Fatalf("%s: semantics changed: %s", label, rep.Detail)
	}
	if rep.B.ExprEvals > rep.A.ExprEvals {
		t.Errorf("%s: expression evaluations increased %d -> %d", label, rep.A.ExprEvals, rep.B.ExprEvals)
	}
	srcA := rep.A.AssignExecs - rep.A.TempAssignExecs
	srcB := rep.B.AssignExecs - rep.B.TempAssignExecs
	if srcB > srcA {
		t.Errorf("%s: source assignment executions increased %d -> %d", label, srcA, srcB)
	}
}

// TestDifferentialAgainstSerial runs random graphs of every generator
// family through the parallel engine and checks each result both against
// the serial core.Optimize output (bit-identical) and against the
// original program (trace-equivalent, non-increasing costs).
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

func TestDifferentialAgainstSerial(t *testing.T) {
	var graphs []*ir.Graph
	for seed := int64(0); seed < 12; seed++ {
		graphs = append(graphs,
			cfggen.Structured(seed, cfggen.Config{Size: 10}),
			cfggen.Unstructured(seed, cfggen.Config{Size: 10}),
		)
	}
	for k := 1; k <= 6; k++ {
		graphs = append(graphs, cfggen.RedundantChain(k))
	}

	rep := OptimizeBatch(context.Background(), graphs, Options{Parallelism: 4})
	if rep.Failed != 0 {
		t.Fatalf("failures in batch: %+v", rep)
	}
	for i, r := range rep.Results {
		label := fmt.Sprintf("%d/%s", i, r.Name)
		want := graphs[i].Clone()
		optimize(want)
		if r.Graph.Encode() != want.Encode() {
			t.Errorf("%s: engine output differs from serial core.Optimize", label)
		}
		diffCheck(t, label, graphs[i], r.Graph, int64(i)+1)
	}
}

// TestDifferentialCacheHit asserts that a result served from the cache is
// as good as a freshly computed one: equivalent to ITS OWN original, not
// just to the graph that populated the entry.
func TestDifferentialCacheHit(t *testing.T) {
	e := New(Options{Parallelism: 1})
	ctx := context.Background()
	base := cfggen.Structured(42, cfggen.Config{Size: 12})

	miss := e.Optimize(ctx, base)
	if miss.Err != nil || miss.CacheHit {
		t.Fatalf("first optimization: err=%v hit=%v", miss.Err, miss.CacheHit)
	}
	dup := base.Clone()
	dup.Name = "renamed_duplicate"
	hit := e.Optimize(ctx, dup)
	if hit.Err != nil || !hit.CacheHit {
		t.Fatalf("duplicate optimization: err=%v hit=%v", hit.Err, hit.CacheHit)
	}
	if hit.Graph.Name != "renamed_duplicate" {
		t.Errorf("cache hit kept the donor's name %q", hit.Graph.Name)
	}
	if hit.Result != miss.Result {
		t.Errorf("cache hit result stats differ: %+v vs %+v", hit.Result, miss.Result)
	}
	diffCheck(t, "cache-hit", dup, hit.Graph, 7)
}
