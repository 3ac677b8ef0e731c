package copyprop

import (
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
)

func instrKeys(g *ir.Graph, name string) []string {
	var out []string
	for _, in := range g.BlockByName(name).Instrs {
		out = append(out, in.Key())
	}
	return out
}

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

func TestStraightLinePropagation(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    t := s
    x := t + 1
    goto e
  }
  block e { out(x, t) }
}
`)
	orig := g.Clone()
	n := run(t, g)
	if n == 0 {
		t.Fatal("nothing propagated")
	}
	keys := instrKeys(g, "a")
	if keys[1] != "x:=s+1" {
		t.Errorf("a = %v", keys)
	}
	// out(t) also becomes out(s).
	if e := instrKeys(g, "e"); e[0] != "out(x,s)" {
		t.Errorf("e = %v", e)
	}
	checkTraces(t, orig, g, []map[ir.Var]int64{{"s": 5}})
}

func TestKillStopsPropagation(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    t := s
    s := 9
    x := t + 1
    goto e
  }
  block e { out(x, s) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "a"); keys[2] != "x:=t+1" {
		t.Errorf("propagated past kill of s: %v", keys)
	}
	checkTraces(t, orig, g, []map[ir.Var]int64{{"s": 5}})
}

func TestDstKillStopsPropagation(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    t := s
    t := 9
    x := t + 1
    goto e
  }
  block e { out(x) }
}
`)
	orig := g.Clone()
	run(t, g)
	// The dead copy t := s must NOT reach the use — but the literal copy
	// t := 9 that killed it does, and 9+1 folds.
	if keys := instrKeys(g, "a"); keys[2] != "x:=10" {
		t.Errorf("want the literal copy propagated and folded, got: %v", keys)
	}
	for _, in := range g.BlockByName("a").Instrs {
		if in.Key() == "x:=s+1" {
			t.Errorf("propagated past kill of t := s: %v", instrKeys(g, "a"))
		}
	}
	checkTraces(t, orig, g, []map[ir.Var]int64{{"s": 5}})
}

func TestDiamondMeet(t *testing.T) {
	// The copy holds on one path only: no propagation below the join.
	g := parse.MustParse(`
graph g {
  entry s0
  exit e
  block s0 { if c < 0 then l else r }
  block l { t := s
    goto j }
  block r { t := 9
    goto j }
  block j { x := t + 1
    goto e }
  block e { out(x) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "j"); keys[0] != "x:=t+1" {
		t.Errorf("unsafe propagation at join: %v", keys)
	}
	checkTraces(t, orig, g, []map[ir.Var]int64{{"c": -1, "s": 5}, {"c": 1, "s": 5}})
}

func TestChainPropagation(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    t := s
    u := t
    x := u + 1
    goto e
  }
  block e { out(x) }
}
`)
	orig := g.Clone()
	run(t, g)
	if keys := instrKeys(g, "a"); keys[2] != "x:=s+1" {
		t.Errorf("chain not resolved: %v", keys)
	}
	checkTraces(t, orig, g, []map[ir.Var]int64{{"s": 5}})
}

func TestCopyCycleBecomesSkip(t *testing.T) {
	// y := x; x := y — the second copy turns into x := x ≡ skip.
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    y := x
    x := y
    goto e
  }
  block e { out(x, y) }
}
`)
	orig := g.Clone()
	run(t, g)
	for _, in := range g.BlockByName("a").Instrs {
		if in.Key() == "x:=y" {
			t.Errorf("x := y not simplified: %v", instrKeys(g, "a"))
		}
	}
	checkTraces(t, orig, g, []map[ir.Var]int64{{"x": 3}})
}

func TestPropagateIntoCondition(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a {
    t := s
    if t < 10 then b else e
  }
  block b { x := 1
    goto e }
  block e { out(x) }
}
`)
	orig := g.Clone()
	run(t, g)
	cond, _ := g.BlockByName("a").Cond()
	if cond.Key() != "s<10" {
		t.Errorf("cond = %v", cond)
	}
	checkTraces(t, orig, g, []map[ir.Var]int64{{"s": 5}, {"s": 50}})
}

func TestLoopCarriedCopyNotPropagated(t *testing.T) {
	// t := s inside the loop, but s changes each iteration: within one
	// iteration the copy holds until s := s+1 kills it.
	g := parse.MustParse(`
graph g {
  entry pre
  exit e
  block pre { goto body }
  block body {
    t := s
    s := s + 1
    x := t + 1
    if s < 5 then body else e
  }
  block e { out(x, t, s) }
}
`)
	orig := g.Clone()
	run(t, g)
	// x := t+1 sits after the kill of s; must not become x := s+1.
	if keys := instrKeys(g, "body"); keys[2] != "x:=t+1" {
		t.Errorf("body = %v", keys)
	}
	checkTraces(t, orig, g, []map[ir.Var]int64{{"s": 0}})
}

func checkTraces(t *testing.T, orig, xform *ir.Graph, envs []map[ir.Var]int64) {
	t.Helper()
	for _, env := range envs {
		r1, r2 := interp.Run(orig, env, 0), interp.Run(xform, env, 0)
		if !interp.TraceEqual(r1, r2) {
			t.Errorf("env %v: trace changed %v -> %v\n%s", env, r1.Trace, r2.Trace, printer.String(xform))
		}
	}
}
