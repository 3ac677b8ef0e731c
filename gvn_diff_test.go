package assignmentmotion

// The differential-testing layer for the value-numbering/propagation pass
// family (PR 6). Three properties prove the new passes correct the same way
// PR 1 proved the batch optimizer:
//
//   - trace equivalence: `gvn`, `copyprop`, and their composites preserve
//     the Theorem 5.1 oracle over the whole golden corpus;
//   - the cost inequalities: ExprEvals and source AssignExecs never
//     increase under the new pipelines across the ≥ 500-graph fuzz sweep
//     (GVN only ever turns a recomputation into a trivial copy or skip,
//     copy propagation only substitutes and folds — both can only shrink
//     the measures Theorems 5.2–5.4 bound);
//   - algebraic properties: gvn is idempotent (the second run is a no-op,
//     byte-identical Encode) and commutes with tidy on the generated
//     corpus (block bypassing neither creates nor destroys value
//     equivalences).

import (
	"strings"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/gvn"
	"path/filepath"
)

// gvnPipelines are the pass sequences the differential layer certifies.
// Plain emcp rides along: this sweep found a real miscompile in it
// (re-initialization clobbering a propagated temporary — see
// TestInitializeClobberGuard in internal/core), so it stays pinned here.
var gvnPipelines = [][]Pass{
	{PassGVN},
	{PassCopyProp},
	{PassGVN, PassCopyProp},
	{PassEMCP},
	{PassGVNEMCP},
	{PassGVN, PassInit, PassAM, PassFlush},
}

func pipelineName(ps []Pass) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = string(p)
	}
	return strings.Join(parts, ",")
}

// TestGVNPipelinesPreserveGoldenCorpus runs every certified pipeline over
// every golden-corpus program and asserts trace equivalence plus the cost
// inequalities against the untouched original.
// runGVN is gvn.Run on a fresh session, failing t on an error.
func runGVN(t *testing.T, g *Graph) int {
	t.Helper()
	s := analysis.NewSession()
	defer s.Close()
	n, _, err := gvn.Run(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGVNPipelinesPreserveGoldenCorpus(t *testing.T) {
	for _, path := range goldenInputs(t) {
		base := strings.TrimSuffix(filepath.Base(path), ".fg")
		orig, err := ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, ps := range gvnPipelines {
			ps := ps
			t.Run(base+"/"+pipelineName(ps), func(t *testing.T) {
				g := orig.Clone()
				if err := Apply(g, ps...); err != nil {
					t.Fatalf("Apply: %v", err)
				}
				if err := checkOptimized(orig, g, 4, 1); err != nil {
					t.Errorf("%v\n--- transformed\n%s", err, Format(g))
				}
			})
		}
	}
}

// TestGVNCostInequalityFuzz is the PR 1 differential sweep re-run for the
// new pass family: the same ≥ 500-graph generator ensemble, each graph
// pushed through each certified pipeline, each result checked for trace
// equivalence and non-increasing cost measures. -short keeps a sliver.
func TestGVNCostInequalityFuzz(t *testing.T) {
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
	seedsPerVariant := 85 // 6 * 85 = 510 graphs, matching TestDifferentialFuzz
	if testing.Short() {
		seedsPerVariant = 10
	}

	graphs := 0
	for _, v := range variants {
		for s := 0; s < seedsPerVariant; s++ {
			base := v.gen(int64(s))
			for _, ps := range gvnPipelines {
				g := base.Clone()
				if err := Apply(g, ps...); err != nil {
					t.Fatalf("%s/seed%d/%s: %v", v.name, s, pipelineName(ps), err)
				}
				if err := checkOptimized(base, g, 3, int64(s)+1); err != nil {
					t.Errorf("%s/seed%d/%s: %v", v.name, s, pipelineName(ps), err)
				}
			}
			graphs++
		}
	}
	if graphs < 500 && !testing.Short() {
		t.Fatalf("fuzz corpus shrank to %d graphs; keep it ≥ 500", graphs)
	}
}

// TestGVNIdempotent pins value numbering as a one-shot transformation: a
// second run finds no new equivalences (every redundant computation is
// already a copy or skip) and leaves the graph byte-identical.
func TestGVNIdempotent(t *testing.T) {
	type variant struct {
		name string
		gen  func(seed int64) *Graph
	}
	variants := []variant{
		{"structured", func(s int64) *Graph { return RandomStructured(s, GenConfig{Size: 12}) }},
		{"unstructured", func(s int64) *Graph { return RandomUnstructured(s, GenConfig{Size: 10}) }},
		{"chain", func(s int64) *Graph { return cfggen.RedundantChain(1 + int(s%24)) }},
	}
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for _, v := range variants {
		for s := 0; s < seeds; s++ {
			g := v.gen(int64(s))
			runGVN(t, g)
			enc := g.Encode()
			if n := runGVN(t, g); n != 0 {
				t.Errorf("%s/seed%d: second gvn run rewrote %d instructions", v.name, s, n)
			}
			if g.Encode() != enc {
				t.Errorf("%s/seed%d: second gvn run changed the graph", v.name, s)
			}
		}
	}
}

// TestGVNCommutesWithTidy pins gvn∘tidy = tidy∘gvn (byte-identical Format)
// on the generated corpus: tidy only bypasses skip blocks and merges
// straight-line chains, which neither creates nor destroys the value
// equivalences gvn acts on.
func TestGVNCommutesWithTidy(t *testing.T) {
	type variant struct {
		name string
		gen  func(seed int64) *Graph
	}
	variants := []variant{
		{"structured", func(s int64) *Graph { return RandomStructured(s, GenConfig{Size: 12}) }},
		{"unstructured", func(s int64) *Graph { return RandomUnstructured(s, GenConfig{Size: 10}) }},
		{"chain", func(s int64) *Graph { return cfggen.RedundantChain(1 + int(s%24)) }},
	}
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for _, v := range variants {
		for s := 0; s < seeds; s++ {
			g1 := v.gen(int64(s))
			g2 := g1.Clone()

			runGVN(t, g1)
			g1.Tidy()

			g2.Tidy()
			runGVN(t, g2)

			if a, b := Format(g1), Format(g2); a != b {
				t.Errorf("%s/seed%d: gvn and tidy do not commute.\n--- gvn,tidy\n%s\n--- tidy,gvn\n%s", v.name, s, a, b)
			}
		}
	}
}
