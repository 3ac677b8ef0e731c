package corpus

import (
	"testing"

	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/verify"

	// Registers the passes the tests run by name: em, and through its
	// imports am, am-restricted and globalg.
	_ "assignmentmotion/internal/lcm"
)

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

func TestCorpusLoadsAndTerminates(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("corpus too small: %v", names)
	}
	for _, name := range names {
		g := Load(name)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, env := range metrics.RandomEnvs(g.SourceVars(), 10, 77) {
			if r := interp.Run(g, env, 0); r.Truncated {
				t.Errorf("%s: did not terminate on %v", name, env)
			}
		}
	}
}

func TestCorpusPipelinesPreserveSemantics(t *testing.T) {
	for _, name := range Names() {
		base := Load(name)
		for _, pname := range []string{"em", "am", "am-restricted", "globalg"} {
			g := base.Clone()
			apply(g, pname)
			g.MustValidate()
			rep := verify.Equivalent(base, g, 12, 9)
			if !rep.Equivalent {
				t.Fatalf("%s/%s: semantics changed: %s\n%s", name, pname, rep.Detail, printer.String(g))
			}
		}
	}
}

func TestCorpusGlobAlgDominates(t *testing.T) {
	improvedSomewhere := false
	for _, name := range Names() {
		base := Load(name)
		glob := base.Clone()
		apply(glob, "globalg")
		rep := verify.Equivalent(base, glob, 12, 5)
		if !rep.Equivalent {
			t.Fatalf("%s: semantics changed: %s", name, rep.Detail)
		}
		if rep.B.ExprEvals > rep.A.ExprEvals {
			t.Errorf("%s: globalg increased expression evaluations %d -> %d",
				name, rep.A.ExprEvals, rep.B.ExprEvals)
		}
		if rep.B.ExprEvals < rep.A.ExprEvals {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Error("globalg improved nothing across the corpus — workloads too easy")
	}
}

// TestQuantizeNeedsAssignmentMotion: the quantize kernel is the running
// example's pattern in the wild — the loop-invariant scale := num/den can
// only leave the loop as an assignment; EM keeps a copy per iteration.
func TestQuantizeNeedsAssignmentMotion(t *testing.T) {
	base := Load("quantize")
	em := base.Clone()
	apply(em, "em")
	glob := base.Clone()
	apply(glob, "globalg")

	env := map[ir.Var]int64{"num": 9, "den": 2, "v": 50}
	rBase := interp.Run(base, env, 0)
	rEM := interp.Run(em, env, 0)
	rGlob := interp.Run(glob, env, 0)
	if !(rGlob.Counts.ExprEvals < rBase.Counts.ExprEvals) {
		t.Errorf("no expression win: %d -> %d", rBase.Counts.ExprEvals, rGlob.Counts.ExprEvals)
	}
	if rGlob.Counts.ExprEvals > rEM.Counts.ExprEvals {
		t.Errorf("globalg (%d) worse than em (%d)", rGlob.Counts.ExprEvals, rEM.Counts.ExprEvals)
	}
	if !(rGlob.Counts.AssignExecs < rEM.Counts.AssignExecs) {
		t.Errorf("globalg assigns (%d) not better than em (%d): the invariant assignment stayed put",
			rGlob.Counts.AssignExecs, rEM.Counts.AssignExecs)
	}
}

// TestDotprodCSE: the duplicated products collapse to one evaluation each.
func TestDotprodCSE(t *testing.T) {
	base := Load("dotprod")
	glob := base.Clone()
	apply(glob, "globalg")
	env := map[ir.Var]int64{"u0": 1, "v0": 2, "u1": 3, "v1": 4, "u2": 5, "v2": 6}
	rBase := interp.Run(base, env, 0)
	rGlob := interp.Run(glob, env, 0)
	// Original: 6 products + 3 adds + chk = 9-10 evals; optimized: each
	// product once = 3 products + 3 adds (+ possibly 0-s).
	if rGlob.Counts.ExprEvals >= rBase.Counts.ExprEvals {
		t.Errorf("no CSE win: %d -> %d\n%s", rBase.Counts.ExprEvals, rGlob.Counts.ExprEvals, printer.String(glob))
	}
	if !interp.TraceEqual(rBase, rGlob) {
		t.Error("trace changed")
	}
}
