package assignmentmotion

import (
	"strings"
	"testing"
)

const facadeSrc = `
graph demo {
  entry b1
  exit b4
  block b1 {
    y := c + d
    goto b2
  }
  block b2 {
    if x + z > y + i then b3 else b4
  }
  block b3 {
    y := c + d
    x := y + z
    i := i + x
    goto b2
  }
  block b4 {
    x := y + z
    x := c + d
    out(i, x, y)
  }
}
`

func TestFacadeOptimize(t *testing.T) {
	g, err := Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	orig := g.Clone()
	res, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decomposed == 0 || res.AM.Iterations == 0 {
		t.Errorf("suspicious result: %+v", res)
	}
	rep := Equivalent(orig, g, 10, 1)
	if !rep.Equivalent {
		t.Fatalf("optimize changed semantics: %s", rep.Detail)
	}
	if rep.B.ExprEvals > rep.A.ExprEvals {
		t.Errorf("expression evaluations increased: %d -> %d", rep.A.ExprEvals, rep.B.ExprEvals)
	}
}

func TestFacadeApplyPipelines(t *testing.T) {
	for _, pass := range Passes() {
		g := MustParse(facadeSrc)
		orig := g.Clone()
		if err := Apply(g, pass); err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", pass, err)
		}
		if pass == PassDCE || pass == PassPDE {
			continue // not semantics-preserving in general (see docs)
		}
		rep := Equivalent(orig, g, 8, 3)
		if !rep.Equivalent {
			t.Errorf("%s changed semantics: %s", pass, rep.Detail)
		}
	}
	if err := Apply(MustParse(facadeSrc), Pass("bogus")); err == nil {
		t.Error("unknown pass accepted")
	}
}

func TestFacadeFormatRoundTrip(t *testing.T) {
	g := MustParse(facadeSrc)
	text := Format(g)
	if !strings.Contains(text, "graph demo {") {
		t.Errorf("format output unexpected:\n%s", text)
	}
	dot := Dot(g)
	if !strings.Contains(dot, "digraph") {
		t.Errorf("dot output unexpected:\n%s", dot)
	}
}

func TestFacadeRunAndMeasure(t *testing.T) {
	g := MustParse(facadeSrc)
	r := Run(g, map[Var]int64{"x": 10, "z": 1, "c": 2, "d": 3}, 0)
	if len(r.Trace) == 0 {
		t.Error("no output produced")
	}
	m := Measure(g)
	if m.Blocks != 4 || m.Assignments != 6 {
		t.Errorf("measure = %v", m)
	}
}

func TestFacadeGenerators(t *testing.T) {
	gs := RandomStructured(7, GenConfig{Size: 8})
	gu := RandomUnstructured(7, GenConfig{Size: 8})
	for _, g := range []*Graph{gs, gu} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		orig := g.Clone()
		if _, err := Optimize(g); err != nil {
			t.Fatal(err)
		}
		rep := Equivalent(orig, g, 6, 11)
		if !rep.Equivalent {
			t.Errorf("%s: semantics changed: %s", g.Name, rep.Detail)
		}
	}
	envs := RandomEnvs([]Var{"a", "b"}, 3, 1)
	if len(envs) != 3 || len(envs[0]) != 2 {
		t.Errorf("envs = %v", envs)
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder("built")
	b.Block("s").AssignVar("x", "y").OutVars("x")
	b.Block("e").OutVars("x")
	b.Edge("s", "e")
	g, err := b.Finish("s", "e")
	if err != nil {
		t.Fatal(err)
	}
	r := Run(g, map[Var]int64{"y": 9}, 0)
	if len(r.Trace) != 2 || r.Trace[0] != 9 || r.Trace[1] != 9 {
		t.Errorf("trace = %v", r.Trace)
	}
}
