package dce

import (
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
)

// run is Run on a fresh session, failing t on an error.
func run(t *testing.T, g *ir.Graph) int {
	t.Helper()
	s := analysis.NewSession()
	defer s.Close()
	n, _, err := Run(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRemovesDeadAssignment(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := 1
    y := 2
    goto e
  }
  block e { out(y) }
}
`)
	if n := run(t, g); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	for _, in := range g.BlockByName("a").Instrs {
		if in.Key() == "x:=1" {
			t.Error("dead x := 1 survived")
		}
	}
}

func TestCascadingDeadCode(t *testing.T) {
	// y feeds only x, x feeds nothing: both die across iterations.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := 2
    x := y + 1
    z := 3
    goto e
  }
  block e { out(z) }
}
`)
	if n := run(t, g); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
}

func TestKeepsLiveThroughBranch(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := 1
    if c < 0 then b else e
  }
  block b { out(x)
    goto e }
  block e { skip }
}
`)
	if n := run(t, g); n != 0 {
		t.Errorf("removed %d live assignments", n)
	}
}

func TestLoopCarriedLiveness(t *testing.T) {
	// i is used by the loop condition and its own increment: live.
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre {
    i := 0
    goto body
  }
  block body {
    i := i + 1
    if i < 5 then body else e
  }
  block e { out(i) }
}
`)
	orig := g.Clone()
	if n := run(t, g); n != 0 {
		t.Errorf("removed %d", n)
	}
	r1, r2 := interp.Run(orig, nil, 0), interp.Run(g, nil, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Error("trace changed")
	}
}

func TestDeadLoopVariable(t *testing.T) {
	// s accumulates but is never read outside: dead in every iteration.
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre {
    i := 0
    s := 0
    goto body
  }
  block body {
    s := s + i
    i := i + 1
    if i < 5 then body else e
  }
  block e { out(i) }
}
`)
	if n := run(t, g); n != 2 {
		t.Errorf("removed %d, want 2 (both s assignments)", n)
	}
	var envs []map[ir.Var]int64
	envs = append(envs, nil)
	for _, env := range envs {
		r := interp.Run(g, env, 0)
		if len(r.Trace) != 1 || r.Trace[0] != 5 {
			t.Errorf("trace = %v", r.Trace)
		}
	}
}

func TestCondUsesKeepVarsAlive(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    x := 5
    if x < 10 then b else e
  }
  block b { y := 1
    goto e }
  block e { out(y) }
}
`)
	if n := run(t, g); n != 0 {
		t.Errorf("removed %d (x is read by the condition)", n)
	}
}
