package verify_test

import (
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/dce"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
)

// TestFootnote3DCERemovesTraps reproduces the paper's footnote 3: the
// assignment q := p / d is dead (q is never read), yet under trapping
// semantics its evaluation is observable when d = 0. Dead code
// elimination removes it — and with it the run-time error — which is why
// the paper's admissible motions exclude dead-code elimination. The
// paper's own transformations must preserve the trap.
func TestFootnote3DCERemovesTraps(t *testing.T) {
	src := `
graph trapdemo {
  entry a
  exit e
  block a {
    q := p / d
    x := p + 1
    goto e
  }
  block e { out(x) }
}
`
	env := map[ir.Var]int64{"p": 5, "d": 0}
	opts := interp.Options{TrapOnDivZero: true}

	orig := parse.MustParse(src)
	rOrig := interp.RunWith(orig, env, 0, opts)
	if !rOrig.Trapped {
		t.Fatal("original program did not trap — witness broken")
	}

	// DCE removes the dead division — and the trap with it.
	gDCE := parse.MustParse(src)
	s := analysis.NewSession()
	defer s.Close()
	if n, _, err := dce.Run(gDCE, s); err != nil || n == 0 {
		t.Fatal("dce removed nothing — witness broken")
	}
	rDCE := interp.RunWith(gDCE, env, 0, opts)
	if rDCE.Trapped {
		t.Errorf("dce kept the trap?\n%s", printer.String(gDCE))
	}

	// The paper's pipelines preserve it.
	for _, name := range []string{"am", "globalg"} {
		g := parse.MustParse(src)
		apply(g, name)
		r := interp.RunWith(g, env, 0, opts)
		if !r.Trapped {
			t.Errorf("%s removed the run-time error — motion not admissible:\n%s",
				name, printer.String(g))
		}
	}
}

// TestMotionPreservesTrapsOnRandomPrograms: the stronger Theorem 5.1
// statement under trapping semantics — on every sampled program and
// input, the paper's pipelines trap exactly when the original does
// (hoisting may only move an evaluation to a point with identical
// operand values, and elimination removes only re-evaluations).
func TestMotionPreservesTrapsOnRandomPrograms(t *testing.T) {
	opts := interp.Options{TrapOnDivZero: true}
	trapsSeen := 0
	for seed := int64(0); seed < 20; seed++ {
		orig := cfggen.Structured(seed, cfggen.Config{Size: 8})
		envs := metrics.RandomEnvs(orig.SourceVars(), 6, seed*3+1)
		for _, pname := range []string{"am", "globalg"} {
			g := orig.Clone()
			apply(g, pname)
			for _, env := range envs {
				r1 := interp.RunWith(orig, env, 0, opts)
				r2 := interp.RunWith(g, env, 0, opts)
				if r1.Trapped {
					trapsSeen++
				}
				if r1.Trapped != r2.Trapped {
					t.Fatalf("seed %d %s env %v: trap behaviour changed (%v -> %v)\n%s",
						seed, pname, env, r1.Trapped, r2.Trapped, printer.String(g))
				}
				if !r1.Trapped && !interp.TraceEqual(r1, r2) {
					t.Fatalf("seed %d %s env %v: trace changed", seed, pname, env)
				}
			}
		}
	}
	if trapsSeen == 0 {
		t.Log("note: no traps occurred on this suite; property held vacuously")
	}
}

// TestTrapSemanticsNormalRunsUnaffected: on trap-free inputs, RunWith and
// Run agree completely.
func TestTrapSemanticsNormalRunsUnaffected(t *testing.T) {
	src := `
graph ok {
  entry a
  exit e
  block a {
    q := p / d
    x := q % d
    goto e
  }
  block e { out(q, x) }
}
`
	g := parse.MustParse(src)
	env := map[ir.Var]int64{"p": 7, "d": 2}
	r1 := interp.Run(g, env, 0)
	r2 := interp.RunWith(g, env, 0, interp.Options{TrapOnDivZero: true})
	if r2.Trapped || !interp.TraceEqual(r1, r2) {
		t.Errorf("trap mode changed a trap-free run: %+v vs %+v", r1.Trace, r2.Trace)
	}
	// And trapping in a condition side stops the run too.
	g2 := parse.MustParse(`
graph condtrap {
  entry a
  exit e
  block a { if p / d > 1 then b else e }
  block b { x := 1
    goto e }
  block e { out(x) }
}
`)
	r3 := interp.RunWith(g2, map[ir.Var]int64{"p": 3, "d": 0}, 0, interp.Options{TrapOnDivZero: true})
	if !r3.Trapped {
		t.Error("condition-side division by zero did not trap")
	}
}
