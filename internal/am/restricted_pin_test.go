package am

import (
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/rae"
)

// This file pins the batched admission test of RunRestricted to the
// historical per-pattern-clone implementation: the reference below is a
// copy of the pre-batching fixpoint loop, whose graph-level steps encode
// the graph and write it back each time, and the tests assert
// byte-identical output (and identical Stats) across the whole golden
// corpus plus a generated graph sweep. If a future change makes the
// batched trial diverge from per-pattern trials — the per-pattern
// hoisting analyses interfering would be the mechanism — these tests
// catch it with the offending graph named.

// hoistPattern is one graph-level hoisting step restricted to pattern p.
func hoistPattern(g *ir.Graph, s *analysis.Session, p ir.AssignPattern) bool {
	c, done := analysis.Encode(g, s)
	defer done()
	only := s.Arena().Vec(c.U.Len())
	if id, ok := c.U.ID(p); ok {
		only.Set(id)
	}
	return aht.Step(c, s, only)
}

// eliminate is one graph-level block-level elimination step.
func eliminate(g *ir.Graph, s *analysis.Session) int {
	c, done := analysis.Encode(g, s)
	defer done()
	return rae.Step(c, s, bitvec.Vec{})
}

// profitableSolo is the historical admission test: one clone, on its own
// session, and one hoist+eliminate trial for a single pattern.
func profitableSolo(g *ir.Graph, p ir.AssignPattern) bool {
	trial := g.Clone()
	before := trial.CountPattern(p)
	if before == 0 {
		return false
	}
	s := analysis.NewSession()
	defer s.Close()
	hoistPattern(trial, s, p)
	eliminate(trial, s)
	return trial.CountPattern(p) < before
}

// runRestrictedReference is the pre-batching RunRestricted, kept as the
// differential oracle: per-pattern profitability trials, each on its own
// clone, evaluated on the evolving graph.
func runRestrictedReference(g *ir.Graph, s *analysis.Session) (Stats, error) {
	var st Stats
	st.SplitEdges = g.SplitCriticalEdges()
	limit := analysis.RoundLimit(g)
	for {
		st.Iterations++
		if st.Iterations > limit {
			st.Iterations = limit
			return st, &fault.NoFixpointError{Proc: "am-restricted", Iterations: limit, Limit: limit}
		}
		removed := eliminate(g, s)
		st.Eliminated += removed
		changed := removed > 0

		u, _, _ := analysis.NewUniverse(g)
		for _, p := range u.Patterns() {
			if profitableSolo(g, p) {
				if hoistPattern(g, s, p) {
					changed = true
				}
				r := eliminate(g, s)
				st.Eliminated += r
				changed = changed || r > 0
			}
		}
		if !changed {
			return st, nil
		}
	}
}

func pinOne(t *testing.T, name string, g *ir.Graph) {
	t.Helper()
	batched := g.Clone()
	reference := g.Clone()

	sb := analysis.NewSession()
	stB, errB := RunRestricted(batched, sb)
	sb.Close()
	sr := analysis.NewSession()
	stR, errR := runRestrictedReference(reference, sr)
	sr.Close()

	if (errB == nil) != (errR == nil) {
		t.Fatalf("%s: batched err %v, reference err %v", name, errB, errR)
	}
	if got, want := batched.Encode(), reference.Encode(); got != want {
		t.Errorf("%s: batched admission diverges from per-pattern reference\nbatched:\n%s\nreference:\n%s", name, got, want)
	}
	if stB != stR {
		t.Errorf("%s: stats diverge: batched %+v, reference %+v", name, stB, stR)
	}
}

func TestRestrictedBatchedAdmissionPinsGoldenCorpus(t *testing.T) {
	for _, name := range corpus.Names() {
		pinOne(t, name, corpus.Load(name))
	}
}

func TestRestrictedBatchedAdmissionPinsGeneratedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("generated sweep is slow under -short")
	}
	for seed := 0; seed < 40; seed++ {
		g := cfggen.Structured(int64(seed), cfggen.Config{Size: 12})
		pinOne(t, g.Name, g)
	}
	for seed := 0; seed < 20; seed++ {
		g := cfggen.Unstructured(int64(seed), cfggen.Config{Size: 12})
		pinOne(t, g.Name, g)
	}
	for k := 1; k <= 6; k++ {
		pinOne(t, "chain", cfggen.RedundantChain(k))
	}
}
