package am

import (
	"errors"
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/rae"
)

// TestRunBoundedCapBites: a run bounded by fault.Budget.MaxAMIterations
// stops with ErrBudgetExceeded after the capped round and leaves a
// correct program.
func TestRunBoundedCapBites(t *testing.T) {
	// The cross-block redundant chain needs one round per link (the
	// within-block cascade of rae.Step does not apply across blocks); with
	// a cap of 1, later links survive.
	g := cfggen.RedundantChain(4)
	full := g.Clone()
	s := analysis.NewSession()
	defer s.Close()
	s.SetBudget(fault.Budget{MaxAMIterations: 1})
	st, err := Run(g, s)
	if !errors.Is(err, fault.ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	if st.Iterations != 1 {
		t.Errorf("iterations = %d", st.Iterations)
	}
	if st.Eliminated >= 4 {
		t.Errorf("eliminated = %d; the cap did not bite", st.Eliminated)
	}
	stFull := run(t, Run, full)
	if stFull.Eliminated != 4 {
		t.Errorf("full run eliminated %d, want 4", stFull.Eliminated)
	}
	// Bounded result is still correct.
	env := map[ir.Var]int64{"v0": 3}
	r1 := interp.Run(g, env, 0)
	r2 := interp.Run(full, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Error("bounded run changed semantics")
	}
}

// eliminateFirst is Run with the two procedures in the opposite order
// within each round (rae before aht), on one encoding of g. By the local
// confluence of the rewrite relation (Lemma 3.6) both orders reach
// cost-equivalent fixpoints.
func eliminateFirst(t *testing.T, g *ir.Graph) {
	t.Helper()
	g.SplitCriticalEdges()
	limit := analysis.RoundLimit(g)
	s := analysis.NewSession()
	defer s.Close()
	c, done := analysis.Encode(g, s)
	defer done()
	for round := 1; round <= limit; round++ {
		removed := rae.Step(c, s, bitvec.Vec{})
		if hoisted := aht.Step(c, s, bitvec.Vec{}); removed == 0 && !hoisted {
			return
		}
	}
	t.Fatalf("%s: no fixpoint after %d rounds", g.Name, limit)
}

func TestEliminateFirstReachesSameCosts(t *testing.T) {
	for _, src := range []string{fig02, fig08, fig10} {
		g1 := parse.MustParse(src)
		g2 := parse.MustParse(src)
		run(t, Run, g1)
		eliminateFirst(t, g2)
		g1.MustValidate()
		g2.MustValidate()
		envs := []map[ir.Var]int64{
			{"c": -1, "d": -5, "a": 1, "b": 2, "x": 3, "y": 4, "z": 5},
			{"c": 1, "d": 5, "a": 1, "b": 2, "x": 3, "y": 4, "z": 5},
			{"c": 1, "d": 50, "a": 1, "b": 2, "x": 3, "y": 90, "z": 5},
		}
		for _, env := range envs {
			r1 := interp.Run(g1, env, 0)
			r2 := interp.Run(g2, env, 0)
			if !interp.TraceEqual(r1, r2) {
				t.Fatalf("%s: orders diverge semantically", g1.Name)
			}
			if r1.Counts.ExprEvals != r2.Counts.ExprEvals ||
				r1.Counts.AssignExecs != r2.Counts.AssignExecs {
				t.Errorf("%s env %v: costs differ between orders: evals %d/%d assigns %d/%d",
					g1.Name, env, r1.Counts.ExprEvals, r2.Counts.ExprEvals,
					r1.Counts.AssignExecs, r2.Counts.AssignExecs)
			}
		}
	}
}
