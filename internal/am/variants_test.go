package am

import (
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
)

func TestRunBoundedCapBites(t *testing.T) {
	// The cross-block redundant chain needs one round per link (the
	// within-block cascade of EliminateBlocks does not apply across
	// blocks); with a cap of 1, later links survive.
	g := cfggen.RedundantChain(4)
	full := g.Clone()
	st := RunBounded(g, 1)
	if st.Iterations != 1 {
		t.Errorf("iterations = %d", st.Iterations)
	}
	if st.Eliminated >= 4 {
		t.Errorf("eliminated = %d; the cap did not bite", st.Eliminated)
	}
	stFull := Run(full)
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

func TestRunBoundedZeroMeansOne(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := p + q
    x := p + q
    goto e
  }
  block e { out(x) }
}
`)
	st := RunBounded(g, 0)
	if st.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", st.Iterations)
	}
	if st.Eliminated != 1 {
		t.Errorf("eliminated = %d", st.Eliminated)
	}
}

func TestEliminateFirstReachesSameCosts(t *testing.T) {
	for _, src := range []string{fig02, fig08, fig10} {
		g1 := parse.MustParse(src)
		g2 := parse.MustParse(src)
		Run(g1)
		if _, err := RunEliminateFirst(g2); err != nil {
			t.Fatal(err)
		}
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
