package verify_test

import (
	"testing"
	"testing/quick"

	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"

	// Registers the passes the tests run by name: em, mr, dce, pde and,
	// through their imports, init, am, am-restricted, globalg, copyprop
	// and flush.
	_ "assignmentmotion/internal/dce"
	_ "assignmentmotion/internal/emcp"
	_ "assignmentmotion/internal/mr"
	_ "assignmentmotion/internal/pde"
)

const seeds = 25
const runsPerSeed = 6

type pipeline struct {
	name   string
	passes []string
}

// paperPipelines are the semantics-preserving transformations of the
// paper; dce is excluded because it is only observationally safe under the
// total interpreter semantics (it still appears in TestDCEPreservesTotal).
var paperPipelines = []pipeline{
	{"init", []string{"init"}},
	{"am", []string{"am"}},
	{"am-restricted", []string{"am-restricted"}},
	{"lcm", []string{"em"}},
	{"mr", []string{"mr"}},
	{"globalg", []string{"globalg"}},
	{"globalg+tidy", []string{"globalg", "tidy"}},
	{"copyprop", []string{"copyprop"}},
}

// apply runs the registered passes on g in order through one pipeline.
// It panics on an error: the graphs here run without a budget or
// deadline, so only a fixpoint bug can fail.
func apply(g *ir.Graph, names ...string) {
	pl, err := pass.FromNames(names...)
	if err == nil {
		_, err = pl.Run(g)
	}
	if err != nil {
		panic(err)
	}
}

func generators() map[string]func(int64) *ir.Graph {
	return map[string]func(int64) *ir.Graph{
		"structured": func(s int64) *ir.Graph {
			return cfggen.Structured(s, cfggen.Config{Size: 10})
		},
		"unstructured": func(s int64) *ir.Graph {
			return cfggen.Unstructured(s, cfggen.Config{Size: 12})
		},
	}
}

// TestPipelinesPreserveSemantics is the Theorem 5.1 property check: every
// pipeline preserves the out-trace on random programs and inputs.
func TestPipelinesPreserveSemantics(t *testing.T) {
	for genName, gen := range generators() {
		for seed := int64(0); seed < seeds; seed++ {
			orig := gen(seed)
			for _, p := range paperPipelines {
				g := orig.Clone()
				apply(g, p.passes...)
				if err := g.Validate(); err != nil {
					t.Fatalf("%s seed %d %s: invalid graph: %v\n%s",
						genName, seed, p.name, err, printer.String(g))
				}
				rep := Equivalent(orig, g, runsPerSeed, seed*31+7)
				if !rep.Equivalent {
					t.Fatalf("%s seed %d: %s changed semantics: %s\noriginal:\n%s\ntransformed:\n%s",
						genName, seed, p.name, rep.Detail, printer.String(orig), printer.String(g))
				}
			}
		}
	}
}

// TestExpressionOptimalityDominance is the Theorem 5.2 property check on
// sampled executions: the global algorithm never evaluates more
// expressions than the original program or any baseline.
func TestExpressionOptimalityDominance(t *testing.T) {
	for genName, gen := range generators() {
		for seed := int64(0); seed < seeds; seed++ {
			orig := gen(seed)
			glob := orig.Clone()
			apply(glob, "globalg")

			rivals := map[string]*ir.Graph{"original": orig}
			for _, p := range []pipeline{paperPipelines[1], paperPipelines[2], paperPipelines[3]} {
				g := orig.Clone()
				apply(g, p.passes...)
				rivals[p.name] = g
			}
			for name, rival := range rivals {
				rep := Equivalent(rival, glob, runsPerSeed, seed*17+3)
				if !rep.Equivalent {
					t.Fatalf("%s seed %d: globalg vs %s diverged: %s", genName, seed, name, rep.Detail)
				}
				if rep.B.ExprEvals > rep.A.ExprEvals {
					t.Errorf("%s seed %d: globalg evaluates more expressions than %s (%d > %d)\nglob:\n%s\nrival:\n%s",
						genName, seed, name, rep.B.ExprEvals, rep.A.ExprEvals,
						printer.String(glob), printer.String(rival))
				}
			}
		}
	}
}

// TestOptimizeStableOnRandomPrograms is the fixpoint-stability check
// behind relative optimality (Theorems 5.3/5.4): re-running the global
// algorithm must not improve any cost measure. Syntactic one-shot
// idempotence does not hold for the composite — the final flush may sink
// an initialization and thereby re-enable a purely cosmetic within-block
// reorder on the next run — so the check is (a) all static and dynamic
// costs are unchanged by a second run, and (b) the process converges
// syntactically by the third run.
func TestOptimizeStableOnRandomPrograms(t *testing.T) {
	for genName, gen := range generators() {
		for seed := int64(0); seed < seeds; seed++ {
			g := gen(seed)
			apply(g, "globalg")
			first := g.Clone()
			apply(g, "globalg")

			rep := Equivalent(first, g, runsPerSeed, seed*13+5)
			if !rep.Equivalent {
				t.Fatalf("%s seed %d: second Optimize changed semantics: %s", genName, seed, rep.Detail)
			}
			if rep.B.ExprEvals != rep.A.ExprEvals ||
				rep.B.AssignExecs != rep.A.AssignExecs ||
				rep.B.TempAssignExecs != rep.A.TempAssignExecs {
				t.Errorf("%s seed %d: second Optimize changed costs: %+v vs %+v",
					genName, seed, rep.A, rep.B)
			}
			m1, m2 := metrics.Measure(first), metrics.Measure(g)
			if m1.Instrs != m2.Instrs || m1.Assignments != m2.Assignments ||
				m1.Expressions != m2.Expressions {
				t.Errorf("%s seed %d: second Optimize changed static shape: %v vs %v",
					genName, seed, m1, m2)
			}
			// TempLifetime counts instructions inside the init→use range;
			// a second run may cosmetically shrink it by hoisting an
			// unrelated assignment out of the range, but must never grow it.
			if m2.TempLifetime > m1.TempLifetime {
				t.Errorf("%s seed %d: second Optimize grew temp lifetimes: %d -> %d",
					genName, seed, m1.TempLifetime, m2.TempLifetime)
			}

			enc := g.Encode()
			apply(g, "globalg")
			if g.Encode() != enc {
				t.Errorf("%s seed %d: Optimize did not converge by the third run", genName, seed)
			}
		}
	}
}

// TestAMIsAssignmentStable: after the AM phase, neither hoisting nor
// elimination applies — Lemma 4.2's relative assignment optimality.
func TestAMIsAssignmentStable(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		g := cfggen.Structured(seed, cfggen.Config{Size: 10})
		apply(g, "am")
		enc := g.Encode()
		s := analysis.NewSession()
		st, err := am.Run(g, s)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if g.Encode() != enc || st.Eliminated != 0 {
			t.Errorf("seed %d: AM phase not stable (eliminated %d)", seed, st.Eliminated)
		}
	}
}

// TestAMOrderConfluence: by local confluence (Lemma 3.6) the hoist-first
// and eliminate-first fixpoints are cost-equivalent on random programs.
func TestAMOrderConfluence(t *testing.T) {
	for genName, gen := range generators() {
		for seed := int64(0); seed < seeds; seed++ {
			g1 := gen(seed)
			g2 := g1.Clone()
			apply(g1, "am")
			eliminateFirst(t, g2)
			rep := Equivalent(g1, g2, runsPerSeed, seed*19+11)
			if !rep.Equivalent {
				t.Fatalf("%s seed %d: orders diverge semantically: %s", genName, seed, rep.Detail)
			}
			if rep.A.ExprEvals != rep.B.ExprEvals || rep.A.AssignExecs != rep.B.AssignExecs {
				t.Errorf("%s seed %d: orders reach different costs: evals %d/%d assigns %d/%d",
					genName, seed, rep.A.ExprEvals, rep.B.ExprEvals,
					rep.A.AssignExecs, rep.B.AssignExecs)
			}
		}
	}
}

// TestPDESafeUnderTotalSemantics: like dce, pde is observationally safe
// under the total interpreter semantics and must never increase cost.
func TestPDESafeUnderTotalSemantics(t *testing.T) {
	for genName, gen := range generators() {
		for seed := int64(0); seed < seeds; seed++ {
			orig := gen(seed)
			g := orig.Clone()
			apply(g, "pde")
			if err := g.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", genName, seed, err)
			}
			rep := Equivalent(orig, g, runsPerSeed, seed+13)
			if !rep.Equivalent {
				t.Fatalf("%s seed %d: pde changed semantics: %s", genName, seed, rep.Detail)
			}
			if rep.B.AssignExecs > rep.A.AssignExecs {
				t.Errorf("%s seed %d: pde increased assignments %d -> %d",
					genName, seed, rep.A.AssignExecs, rep.B.AssignExecs)
			}
		}
	}
}

// TestDCEPreservesTotal: under the total semantics, dce must preserve
// traces too.
func TestDCEPreservesTotal(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		orig := cfggen.Structured(seed, cfggen.Config{Size: 10})
		g := orig.Clone()
		apply(g, "dce")
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep := Equivalent(orig, g, runsPerSeed, seed)
		if !rep.Equivalent {
			t.Errorf("seed %d: dce changed semantics: %s", seed, rep.Detail)
		}
	}
}

// TestQuickStructuredGlobAlg drives the whole pipeline through
// testing/quick over arbitrary seeds.
func TestQuickStructuredGlobAlg(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		seed %= 1 << 20
		orig := cfggen.Structured(seed, cfggen.Config{Size: 8})
		g := orig.Clone()
		apply(g, "globalg")
		rep := Equivalent(orig, g, 4, seed+1)
		return rep.Equivalent && rep.B.ExprEvals <= rep.A.ExprEvals
	}
	cfgq := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfgq); err != nil {
		t.Error(err)
	}
}

// TestQuickUnstructuredAM drives assignment motion over arbitrary
// unstructured seeds.
func TestQuickUnstructuredAM(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		seed %= 1 << 20
		orig := cfggen.Unstructured(seed, cfggen.Config{Size: 10})
		g := orig.Clone()
		apply(g, "am")
		return Equivalent(orig, g, 4, seed+1).Equivalent
	}
	cfgq := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfgq); err != nil {
		t.Error(err)
	}
}

// TestEquivalentDetectsDifference sanity-checks the oracle itself.
func TestEquivalentDetectsDifference(t *testing.T) {
	a := parse.MustParse(`
graph a {
  entry s
  exit e
  block s { x := p + 1
    goto e }
  block e { out(x) }
}
`)
	b := parse.MustParse(`
graph b {
  entry s
  exit e
  block s { x := p + 2
    goto e }
  block e { out(x) }
}
`)
	rep := Equivalent(a, b, 5, 1)
	if rep.Equivalent {
		t.Error("oracle failed to distinguish +1 from +2")
	}
	if rep.Detail == "" {
		t.Error("no detail reported")
	}
}
