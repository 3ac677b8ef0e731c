package flush

import (
	"reflect"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
)

func keys(b *ir.Block) []string {
	out := make([]string, 0, len(b.Instrs))
	for _, in := range b.Instrs {
		out = append(out, in.Key())
	}
	return out
}

// run is Run on a fresh session.
func run(g *ir.Graph) Stats {
	s := analysis.NewSession()
	defer s.Close()
	return Run(g, s)
}

func TestSingleUseReconstructed(t *testing.T) {
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    x := h1
    goto e
  }
  block e { out(x) }
}
`)
	st := run(g)
	g.MustValidate()
	if st.Reconstructed != 1 || st.DroppedInits != 1 || st.InsertedInits != 0 {
		t.Errorf("stats = %+v", st)
	}
	if got := keys(g.BlockByName("a")); !reflect.DeepEqual(got, []string{"x:=a+b"}) {
		t.Errorf("a = %v", got)
	}
}

func TestDoubleUseKeepsInit(t *testing.T) {
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    x := h1
    y := h1
    goto e
  }
  block e { out(x, y) }
}
`)
	st := run(g)
	if st.InsertedInits != 1 || st.Reconstructed != 0 {
		t.Errorf("stats = %+v\n%s", st, printer.String(g))
	}
	if got := keys(g.BlockByName("a")); !reflect.DeepEqual(got, []string{"h1:=a+b", "x:=h1", "y:=h1"}) {
		t.Errorf("a = %v", got)
	}
}

func TestDeadInitDropped(t *testing.T) {
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    x := 1
    goto e
  }
  block e { out(x) }
}
`)
	st := run(g)
	if st.DroppedInits != 1 || st.InsertedInits != 0 {
		t.Errorf("stats = %+v\n%s", st, printer.String(g))
	}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.KindAssign && g.IsTemp(in.LHS) {
				t.Errorf("dead init survived: %v", in)
			}
		}
	}
}

func TestInitSunkToUse(t *testing.T) {
	// The init is delayable through unrelated code; it must land right
	// before its (double) use, shortening the lifetime.
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    q := 1
    r := 2
    x := h1
    y := h1
    goto e
  }
  block e { out(x, y, q, r) }
}
`)
	run(g)
	want := []string{"q:=1", "r:=2", "h1:=a+b", "x:=h1", "y:=h1"}
	if got := keys(g.BlockByName("a")); !reflect.DeepEqual(got, want) {
		t.Errorf("a = %v, want %v", got, want)
	}
}

func TestInitStopsAtBlockade(t *testing.T) {
	// a := 7 modifies an operand of a+b, so the init cannot sink past it
	// even though the use is further down.
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    a := 7
    x := h1
    y := h1
    goto e
  }
  block e { out(x, y, a) }
}
`)
	orig := g.Clone()
	run(g)
	want := []string{"h1:=a+b", "a:=7", "x:=h1", "y:=h1"}
	if got := keys(g.BlockByName("a")); !reflect.DeepEqual(got, want) {
		t.Errorf("a = %v, want %v", got, want)
	}
	env := map[ir.Var]int64{"a": 1, "b": 2}
	r1, r2 := interp.Run(orig, env, 0), interp.Run(g, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Errorf("trace changed: %v -> %v", r1.Trace, r2.Trace)
	}
}

func TestBlockedSingleUseReconstructs(t *testing.T) {
	// Single use behind a blockade: latest point is before the blockade
	// (a := 7), the use site itself is not latest, so the init must stay
	// (it cannot be reconstructed at x := h1 because the value of a+b
	// there differs).
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    a := 7
    x := h1
    goto e
  }
  block e { out(x, a) }
}
`)
	orig := g.Clone()
	run(g)
	g.MustValidate()
	want := []string{"h1:=a+b", "a:=7", "x:=h1"}
	if got := keys(g.BlockByName("a")); !reflect.DeepEqual(got, want) {
		t.Errorf("a = %v, want %v", got, want)
	}
	env := map[ir.Var]int64{"a": 1, "b": 2}
	r1, r2 := interp.Run(orig, env, 0), interp.Run(g, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Errorf("trace changed: %v -> %v (flush unsoundly reconstructed)", r1.Trace, r2.Trace)
	}
}

func TestReconstructIntoCondition(t *testing.T) {
	// A temp used once, in a branch condition side, is inlined
	// (Figure 15's "h2 > y+i").
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := y + i
    if x > h1 then b else e
  }
  block b { x := 0
    goto e }
  block e { out(x) }
}
`)
	st := run(g)
	g.MustValidate()
	if st.Reconstructed != 1 {
		t.Errorf("stats = %+v\n%s", st, printer.String(g))
	}
	cond, _ := g.BlockByName("a").Cond()
	if cond.Key() != "x>y+i" {
		t.Errorf("cond = %v", cond)
	}
}

func TestOutUseForcesInit(t *testing.T) {
	// out(h1) cannot carry a compound term; the initialization must be
	// kept even for a single use.
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    goto e
  }
  block e { out(h1) }
}
`)
	orig := g.Clone()
	st := run(g)
	g.MustValidate()
	if st.InsertedInits != 1 {
		t.Errorf("stats = %+v\n%s", st, printer.String(g))
	}
	e := g.BlockByName("e")
	if got := keys(e); !reflect.DeepEqual(got, []string{"h1:=a+b", "out(h1)"}) {
		t.Errorf("e = %v", got)
	}
	env := map[ir.Var]int64{"a": 1, "b": 2}
	r1, r2 := interp.Run(orig, env, 0), interp.Run(g, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Errorf("trace changed: %v -> %v", r1.Trace, r2.Trace)
	}
}

func TestPartialDeadInitSunkIntoBranch(t *testing.T) {
	// h1 is used only on the left arm; lazy placement moves the init into
	// that arm so the right arm never computes a+b.
	g := parse.MustParseTemps(`
graph g {
  entry s
  exit e
  block s {
    h1 := a + b
    if c < 0 then l else r
  }
  block l {
    x := h1
    y := h1
    goto e
  }
  block r {
    x := 0
    goto e
  }
  block e { out(x, y) }
}
`)
	orig := g.Clone()
	run(g)
	g.MustValidate()
	if got := keys(g.BlockByName("l")); !reflect.DeepEqual(got, []string{"h1:=a+b", "x:=h1", "y:=h1"}) {
		t.Errorf("l = %v", got)
	}
	for _, in := range g.BlockByName("s").Instrs {
		if in.Kind == ir.KindAssign && g.IsTemp(in.LHS) {
			t.Errorf("init not sunk out of s: %v", in)
		}
	}
	// The right path now evaluates nothing.
	r := interp.Run(g, map[ir.Var]int64{"c": 1, "a": 1, "b": 2}, 0)
	if r.Counts.ExprEvals != 0 {
		t.Errorf("right path evaluates %d expressions, want 0", r.Counts.ExprEvals)
	}
	checkSameTraces(t, orig, g)
}

func TestMergeRequiresInitOnBothPaths(t *testing.T) {
	// Instances on both arms of a diamond, use below the join: delayable
	// on both paths, so the inits merge into a single latest init at the
	// join-side use.
	g := parse.MustParseTemps(`
graph g {
  entry s
  exit e
  block s { if c < 0 then l else r }
  block l {
    h1 := a + b
    goto j
  }
  block r {
    h1 := a + b
    goto j
  }
  block j {
    x := h1
    y := h1
    goto e
  }
  block e { out(x, y) }
}
`)
	run(g)
	g.MustValidate()
	if got := keys(g.BlockByName("j")); !reflect.DeepEqual(got, []string{"h1:=a+b", "x:=h1", "y:=h1"}) {
		t.Errorf("j = %v", got)
	}
	total := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.KindAssign && in.LHS == "h1" {
				total++
			}
		}
	}
	if total != 1 {
		t.Errorf("h1 init count = %d, want 1 (merged)", total)
	}
}

func TestXLatestAtPathIntoJoin(t *testing.T) {
	// The init is delayable on the left path but the join has a
	// non-delayable right path; the init must materialize at the end of
	// the left arm (X-INIT), not above the branch and not at the join.
	g := parse.MustParseTemps(`
graph g {
  entry s
  exit e
  block s { if c < 0 then l else r }
  block l {
    h1 := a + b
    q := 1
    goto j
  }
  block r {
    a := 5
    goto j
  }
  block j {
    x := h1
    y := h1
    goto e
  }
  block e { out(x, y, q) }
}
`)
	orig := g.Clone()
	run(g)
	g.MustValidate()
	l := g.BlockByName("l")
	if got := keys(l); !reflect.DeepEqual(got, []string{"q:=1", "h1:=a+b"}) {
		t.Errorf("l = %v (init must sink to the arm exit)", got)
	}
	checkSameTraces(t, orig, g)
}

func TestNoTempsNoChange(t *testing.T) {
	g := parse.MustParse(`
graph g {
  entry a
  exit e
  block a { x := a + b
    goto e }
  block e { out(x) }
}
`)
	enc := g.Encode()
	st := run(g)
	if st != (Stats{}) || g.Encode() != enc {
		t.Errorf("flush changed a temp-free program: %+v", st)
	}
}

func TestIdempotent(t *testing.T) {
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    x := h1
    y := h1
    goto e
  }
  block e { out(x, y) }
}
`)
	run(g)
	enc := g.Encode()
	run(g)
	if g.Encode() != enc {
		t.Errorf("flush not idempotent:\n%s\nvs\n%s", enc, g.Encode())
	}
}

func TestAnalyzeVectors(t *testing.T) {
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a + b
    q := 1
    x := h1
    goto e
  }
  block e { out(x, q) }
}
`)
	s := analysis.NewSession()
	defer s.Close()
	info := Analyze(g, s)
	if len(info.Temps) != 1 || info.Temps[0] != "h1" {
		t.Fatalf("temps = %v", info.Temps)
	}
	// Instruction indices: 0 h1:=a+b, 1 q:=1, 2 x:=h1, 3 out.
	if !info.XDelayable[0].Get(0) || !info.NDelayable[1].Get(0) || !info.NDelayable[2].Get(0) {
		t.Error("delayability wrong")
	}
	if info.XDelayable[2].Get(0) {
		t.Error("delayable past the use")
	}
	if !info.NLatest[2].Get(0) {
		t.Error("latest not at the use")
	}
	if info.XUsable[2].Get(0) {
		t.Error("usable after the only use")
	}
	if !info.NUsable[2].Get(0) || !info.XUsable[1].Get(0) {
		t.Error("usability wrong")
	}
}

func checkSameTraces(t *testing.T, orig, xform *ir.Graph) {
	t.Helper()
	envs := []map[ir.Var]int64{
		{"a": 1, "b": 2, "c": -1},
		{"a": 1, "b": 2, "c": 1},
		{"a": -3, "b": 7, "c": 0},
	}
	for _, env := range envs {
		r1, r2 := interp.Run(orig, env, 0), interp.Run(xform, env, 0)
		if !interp.TraceEqual(r1, r2) {
			t.Errorf("env %v: trace changed %v -> %v\n%s", env, r1.Trace, r2.Trace, printer.String(xform))
		}
	}
}
