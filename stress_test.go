package assignmentmotion

import (
	"testing"
)

// TestStressLargePrograms pushes the whole stack through a few hundred
// instructions of structured and unstructured code, verifying validity,
// semantics, dominance, and tidy cleanliness at scale. Skipped in -short
// runs.
func TestStressLargePrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	shapes := []struct {
		name string
		gen  func(int64) *Graph
	}{
		{"structured", func(s int64) *Graph { return RandomStructured(s, GenConfig{Size: 120}) }},
		{"unstructured", func(s int64) *Graph { return RandomUnstructured(s, GenConfig{Size: 120}) }},
	}
	for _, shape := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			base := shape.gen(seed)
			m := Measure(base)
			if m.Instrs < 200 {
				t.Fatalf("%s seed %d: stress workload too small (%d instrs)", shape.name, seed, m.Instrs)
			}
			g := base.Clone()
			res, err := Optimize(g)
			if err != nil {
				t.Fatalf("%s seed %d: %v", shape.name, seed, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", shape.name, seed, err)
			}
			rep := Equivalent(base, g, 5, seed+1)
			if !rep.Equivalent {
				t.Fatalf("%s seed %d: semantics changed: %s", shape.name, seed, rep.Detail)
			}
			if rep.B.ExprEvals > rep.A.ExprEvals {
				t.Errorf("%s seed %d: expression evaluations increased", shape.name, seed)
			}
			if res.AM.Iterations > 64 {
				t.Errorf("%s seed %d: suspicious iteration count %d", shape.name, seed, res.AM.Iterations)
			}
			g.Tidy()
			if err := g.Validate(); err != nil {
				t.Fatalf("%s seed %d: tidy broke the graph: %v", shape.name, seed, err)
			}
			rep2 := Equivalent(base, g, 5, seed+2)
			if !rep2.Equivalent {
				t.Fatalf("%s seed %d: tidy changed semantics: %s", shape.name, seed, rep2.Detail)
			}
		}
	}
}

// TestStressPipelineMatrix runs every public pass over medium random
// programs — nothing may panic or corrupt the graph, whatever the order.
func TestStressPipelineMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	sequences := [][]Pass{
		{PassEM, PassAM, PassFlush},
		{PassAM, PassEM},
		{PassMR, PassGlobAlg},
		{PassGlobAlg, PassCopyProp, PassGlobAlg},
		{PassInit, PassFlush},
		{PassSplit, PassTidy, PassGlobAlg, PassTidy},
		{PassAMRestricted, PassEMCP},
	}
	for seed := int64(0); seed < 4; seed++ {
		base := RandomStructured(seed, GenConfig{Size: 25})
		for i, seq := range sequences {
			g := base.Clone()
			if err := Apply(g, seq...); err != nil {
				t.Fatalf("seed %d seq %d: %v", seed, i, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d seq %v: invalid graph: %v", seed, seq, err)
			}
			rep := Equivalent(base, g, 4, seed+int64(i))
			if !rep.Equivalent {
				t.Fatalf("seed %d seq %v: semantics changed: %s", seed, seq, rep.Detail)
			}
		}
	}
}
