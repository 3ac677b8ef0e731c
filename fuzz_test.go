package assignmentmotion

// The differential fuzzing layer (PR 1). Lazy-code-motion-style pipelines
// are classically validated by differential execution against the
// unoptimized program; here every generated graph is optimized by the
// batch engine and the result is compared with the untouched original:
//
//   - trace equivalence on random input ensembles (verify.Equivalent,
//     the Theorem 5.1 oracle), and
//   - the paper's cost-measure inequalities: evaluations of non-trivial
//     expressions never increase (Theorem 5.2), and executed SOURCE
//     assignments never increase. Raw AssignExecs may legitimately rise
//     because the initialization phase introduces temporaries h_ε; the
//     paper accounts those separately (Theorems 5.3/5.4), so the
//     assignment inequality is stated net of TempAssignExecs.
//
// TestDifferentialFuzz covers ≥ 500 graphs per regular `go test` run.
// FuzzOptimize is the native fuzz target (go test -fuzz=FuzzOptimize),
// seeded with every embedded paper figure and corpus kernel.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
)

// checkOptimized asserts the differential property for one (base,
// optimized) pair. It returns an error string instead of failing so both
// the test and the fuzz target can use it.
func checkOptimized(base, opt *Graph, runs int, seed int64) error {
	if err := opt.Validate(); err != nil {
		return fmt.Errorf("invalid optimized graph: %w", err)
	}
	rep := Equivalent(base, opt, runs, seed)
	if !rep.Equivalent {
		return fmt.Errorf("semantics changed: %s", rep.Detail)
	}
	if rep.A.Truncated > 0 || rep.B.Truncated > 0 {
		// Step-budget truncation makes the cost counters incomparable;
		// the prefix trace check above is still meaningful.
		return nil
	}
	if rep.B.ExprEvals > rep.A.ExprEvals {
		return fmt.Errorf("expression evaluations increased %d -> %d", rep.A.ExprEvals, rep.B.ExprEvals)
	}
	srcA := rep.A.AssignExecs - rep.A.TempAssignExecs
	srcB := rep.B.AssignExecs - rep.B.TempAssignExecs
	if srcB > srcA {
		return fmt.Errorf("source assignment executions increased %d -> %d", srcA, srcB)
	}
	return nil
}

// TestDifferentialFuzz runs the property over ≥ 500 generated graphs —
// chain, structured, and unstructured variants — through the parallel
// batch engine. -short keeps a representative sliver.
func TestDifferentialFuzz(t *testing.T) {
	type variant struct {
		name string
		gen  func(seed int64) *Graph
	}
	variants := []variant{
		{"structured", func(s int64) *Graph { return RandomStructured(s, GenConfig{Size: 8}) }},
		{"structured-large", func(s int64) *Graph { return RandomStructured(s, GenConfig{Size: 20, Vars: 4}) }},
		{"structured-noloops", func(s int64) *Graph { return RandomStructured(s, GenConfig{Size: 10, NoLoops: true}) }},
		{"unstructured", func(s int64) *Graph { return RandomUnstructured(s, GenConfig{Size: 8}) }},
		{"unstructured-dense", func(s int64) *Graph { return RandomUnstructured(s, GenConfig{Size: 16, OutProb: 0.6}) }},
		{"chain", func(s int64) *Graph { return cfggen.RedundantChain(1 + int(s%24)) }},
	}
	seedsPerVariant := 85 // 6 * 85 = 510 graphs
	if testing.Short() {
		seedsPerVariant = 10
	}

	var graphs []*Graph
	var labels []string
	for _, v := range variants {
		for s := 0; s < seedsPerVariant; s++ {
			graphs = append(graphs, v.gen(int64(s)))
			labels = append(labels, fmt.Sprintf("%s/seed%d", v.name, s))
		}
	}

	rep := OptimizeBatch(context.Background(), graphs, BatchOptions{
		Parallelism: 2 * runtime.GOMAXPROCS(0),
	})
	if rep.Failed != 0 {
		for _, r := range rep.Results {
			if r.Err != nil {
				t.Errorf("%s: %v", labels[r.Index], r.Err)
			}
		}
		t.Fatalf("%d/%d graphs failed to optimize", rep.Failed, rep.Graphs)
	}
	if rep.Graphs < 500 && !testing.Short() {
		t.Fatalf("fuzz corpus shrank to %d graphs; keep it ≥ 500", rep.Graphs)
	}
	for i, r := range rep.Results {
		if err := checkOptimized(graphs[i], r.Graph, 3, int64(i)+1); err != nil {
			t.Errorf("%s: %v", labels[i], err)
		}
	}
	// The chain variant repeats fingerprints across seeds (k = seed%24
	// collides), so the run also exercises the cache under load.
	if rep.CacheHits == 0 {
		t.Error("expected duplicate fingerprints to hit the cache")
	}
}

// FuzzOptimize is the native differential fuzz target: any .fg source the
// parser accepts must optimize to a valid, trace-equivalent program with
// non-increasing cost measures. The seed corpus is every paper figure and
// every corpus kernel.
//
// Run with: go test -fuzz=FuzzOptimize -fuzztime=30s .
func FuzzOptimize(f *testing.F) {
	for _, name := range figures.Names() {
		f.Add(figures.Source(name))
	}
	for _, name := range corpus.Names() {
		f.Add(corpus.Source(name))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		base, err := Parse(src)
		if err != nil {
			t.Skip("unparsable input")
		}
		if base.InstrCount() > 400 || len(base.Blocks) > 200 {
			t.Skip("oversized graph")
		}
		g := base.Clone()
		// A panic or an error here is a fuzz finding.
		if _, err := Optimize(g); err != nil {
			t.Fatalf("%v\n--- input\n%s", err, src)
		}
		if err := checkOptimized(base, g, 3, 1); err != nil {
			t.Fatalf("%v\n--- input\n%s\n--- optimized\n%s", err, src, Format(g))
		}
	})
}
