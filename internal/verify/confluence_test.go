package verify_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/rae"
)

// multisetEncode renders g ignoring instruction order within blocks:
// single-pattern steps re-prepend their own pattern in front of other
// co-located independent patterns, so the *textual* encoding can cycle
// through permutations at the motion fixpoint while the per-block
// instruction multisets — which determine all dynamic costs and all
// cross-block motion opportunities — are stable.
func multisetEncode(g *ir.Graph) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		keys := make([]string, 0, len(b.Instrs))
		for i := range b.Instrs {
			keys = append(keys, b.Instrs[i].Key())
		}
		sort.Strings(keys)
		sb.WriteString(b.Name)
		sb.WriteByte('[')
		sb.WriteString(strings.Join(keys, ";"))
		sb.WriteString("]\n")
	}
	return sb.String()
}

// patternStep is one hoisting (hoist) or elimination step on g restricted
// to pattern p, on one encoding of g written back afterwards.
func patternStep(g *ir.Graph, p ir.AssignPattern, hoist bool) {
	s := analysis.NewSession()
	defer s.Close()
	c, done := analysis.Encode(g, s)
	defer done()
	only := s.Arena().Vec(c.U.Len())
	if id, ok := c.U.ID(p); ok {
		only.Set(id)
	}
	if hoist {
		aht.Step(c, s, only)
	} else {
		rae.Step(c, s, only)
	}
}

// eliminateFirst is the AM phase with the two procedures in the opposite
// order within each round (rae before aht), on one encoding of g. By the
// local confluence of the rewrite relation (Lemma 3.6) it reaches a
// fixpoint cost-equivalent to am.Run's.
func eliminateFirst(t *testing.T, g *ir.Graph) {
	t.Helper()
	g.SplitCriticalEdges()
	limit := analysis.RoundLimit(g)
	s := analysis.NewSession()
	defer s.Close()
	c, done := analysis.Encode(g, s)
	defer done()
	for round := 1; ; round++ {
		if round > limit {
			t.Fatalf("%s: no fixpoint after %d rounds", g.Name, limit)
		}
		removed := rae.Step(c, s, bitvec.Vec{})
		hoisted := aht.Step(c, s, bitvec.Vec{})
		if removed == 0 && !hoisted {
			return
		}
	}
}

// randomInterleaving drives the rewrite relation ` with single-pattern
// steps in a random order until the per-block instruction multisets stop
// changing. Lemma 3.6 (local confluence) plus termination implies every
// maximal strategy reaches the same fixpoint costs as the canonical
// aht/rae iteration.
func randomInterleaving(g *ir.Graph, rng *rand.Rand) {
	g.SplitCriticalEdges()
	for round := 0; ; round++ {
		if round > 10_000 {
			panic("confluence: no fixpoint after 10000 rounds")
		}
		before := multisetEncode(g)
		u := ir.AssignUniverse(g)
		pats := append([]ir.AssignPattern(nil), u.Patterns()...)
		rng.Shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
		for _, p := range pats {
			hoistFirst := rng.Intn(2) == 0
			patternStep(g, p, hoistFirst)
			patternStep(g, p, !hoistFirst)
		}
		if multisetEncode(g) == before {
			return
		}
	}
}

// TestConfluenceRandomInterleavings: several random maximal strategies and
// the canonical AM phase all reach programs with identical dynamic costs.
func TestConfluenceRandomInterleavings(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		base := cfggen.Structured(seed, cfggen.Config{Size: 8})
		canonical := base.Clone()
		apply(canonical, "am")

		for variant := int64(0); variant < 3; variant++ {
			g := base.Clone()
			randomInterleaving(g, rand.New(rand.NewSource(seed*100+variant)))
			g.MustValidate()
			rep := Equivalent(canonical, g, 6, seed*7+variant)
			if !rep.Equivalent {
				t.Fatalf("seed %d variant %d: interleaving diverges semantically: %s\ncanonical:\n%s\nvariant:\n%s",
					seed, variant, rep.Detail, printer.String(canonical), printer.String(g))
			}
			if rep.A.ExprEvals != rep.B.ExprEvals || rep.A.AssignExecs != rep.B.AssignExecs {
				t.Errorf("seed %d variant %d: interleaving reaches different costs: evals %d/%d assigns %d/%d\ncanonical:\n%s\nvariant:\n%s",
					seed, variant, rep.A.ExprEvals, rep.B.ExprEvals,
					rep.A.AssignExecs, rep.B.AssignExecs,
					printer.String(canonical), printer.String(g))
			}
		}
	}
}
