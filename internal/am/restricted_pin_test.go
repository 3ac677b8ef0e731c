package am

import (
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/rae"
)

// This file pins the batched admission test of TryRunRestrictedWith to
// the historical per-pattern-clone implementation: the reference below is
// a verbatim copy of the pre-batching fixpoint loop, and the tests assert
// byte-identical output (and identical Stats) across the whole golden
// corpus plus a generated graph sweep. If a future change makes the
// batched trial diverge from per-pattern trials — the per-pattern
// hoisting analyses interfering would be the mechanism — these tests
// catch it with the offending graph named.

// profitableSolo is the historical admission test: one clone and one
// hoist+eliminate trial for a single pattern.
func profitableSolo(g *ir.Graph, p ir.AssignPattern) bool {
	trial := g.Clone()
	before := trial.CountPattern(p)
	if before == 0 {
		return false
	}
	aht.ApplyMasked(trial, func(q ir.AssignPattern) bool { return q == p })
	rae.EliminateBlocks(trial)
	return trial.CountPattern(p) < before
}

// runRestrictedReference is the pre-batching TryRunRestrictedWith,
// kept as the differential oracle: per-pattern profitability trials, each
// on its own clone, evaluated on the evolving graph.
func runRestrictedReference(g *ir.Graph, s *analysis.Session) (Stats, error) {
	var st Stats
	st.SplitEdges = g.SplitCriticalEdges()
	limit := iterationLimit(g)
	for {
		st.Iterations++
		if st.Iterations > limit {
			st.Iterations = limit
			return st, &fault.NoFixpointError{Proc: "am-restricted", Iterations: limit, Limit: limit}
		}
		removed := rae.EliminateBlocksWith(g, s)
		st.Eliminated += removed
		changed := removed > 0

		u, _, _ := s.Universe(g)
		for _, p := range u.Patterns() {
			if profitableSolo(g, p) {
				if aht.ApplyWith(g, s, func(q ir.AssignPattern) bool { return q == p }) {
					changed = true
				}
				r := rae.EliminateBlocksWith(g, s)
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
	stB, errB := TryRunRestrictedWith(batched, sb)
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
