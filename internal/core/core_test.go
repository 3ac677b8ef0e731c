package core

import (
	"reflect"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/verify"
)

// Figure 4: the running example.
const running = `
graph running {
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

func keys(b *ir.Block) []string {
	out := make([]string, 0, len(b.Instrs))
	for _, in := range b.Instrs {
		out = append(out, in.Key())
	}
	return out
}

// optimize is Optimize on a fresh session, failing t on an error.
func optimize(t *testing.T, g *ir.Graph) Result {
	t.Helper()
	s := analysis.NewSession()
	defer s.Close()
	res, err := Optimize(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigure12Initialization(t *testing.T) {
	g := parse.MustParse(running)
	n := Initialize(g)
	g.MustValidate()
	// 8 sites: y:=c+d (b1), both sides of b2's condition, three
	// assignments in b3, and two in b4.
	if n != 8 {
		t.Errorf("decomposed %d sites, want 8", n)
	}
	// Figure 12, with the paper's temp numbering: h1=c+d, h2=x+z, h3=y+i,
	// h4=y+z, h5=i+x.
	want := map[string][]string{
		"b1": {"h1:=c+d", "y:=h1"},
		"b2": {"h2:=x+z", "h3:=y+i", "h2>h3"},
		"b3": {"h1:=c+d", "y:=h1", "h4:=y+z", "x:=h4", "h5:=i+x", "i:=h5"},
		"b4": {"h4:=y+z", "x:=h4", "h1:=c+d", "x:=h1", "out(i,x,y)"},
	}
	for name, w := range want {
		if got := keys(g.BlockByName(name)); !reflect.DeepEqual(got, w) {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestInitializeIdempotent(t *testing.T) {
	g := parse.MustParse(running)
	Initialize(g)
	enc := g.Encode()
	if n := Initialize(g); n != 0 {
		t.Errorf("second Initialize decomposed %d", n)
	}
	if g.Encode() != enc {
		t.Error("second Initialize changed the program")
	}
}

func TestInitializeSemantics(t *testing.T) {
	g := parse.MustParse(running)
	orig := g.Clone()
	Initialize(g)
	for _, env := range runningEnvs() {
		r1 := interp.Run(orig, env, 0)
		r2 := interp.Run(g, env, 0)
		if !interp.TraceEqual(r1, r2) {
			t.Errorf("env %v: trace %v -> %v", env, r1.Trace, r2.Trace)
		}
		// Initialization changes no expression evaluation counts.
		if r1.Counts.ExprEvals != r2.Counts.ExprEvals {
			t.Errorf("env %v: expr evals %d -> %d", env, r1.Counts.ExprEvals, r2.Counts.ExprEvals)
		}
	}
}

func TestFigure15GlobalAlgorithm(t *testing.T) {
	g := parse.MustParse(running)
	orig := g.Clone()
	optimize(t, g)
	g.MustValidate()

	// Figure 5 / Figure 15: the unique result of the uniform algorithm.
	want := map[string][]string{
		"b1": {"h1:=c+d", "y:=h1", "h2:=x+z", "x:=y+z"},
		"b2": {"h2>y+i"},
		"b3": {"i:=i+x", "h2:=x+z"},
		"b4": {"x:=h1", "out(i,x,y)"},
	}
	for name, w := range want {
		if got := keys(g.BlockByName(name)); !reflect.DeepEqual(got, w) {
			t.Errorf("%s = %v, want %v\nfull result:\n%s", name, got, w, printer.String(g))
		}
	}
	checkSame(t, orig, g)
}

func TestGlobAlgSemanticsAndWins(t *testing.T) {
	g := parse.MustParse(running)
	orig := g.Clone()
	optimize(t, g)
	for _, env := range runningEnvs() {
		r1 := interp.Run(orig, env, 0)
		r2 := interp.Run(g, env, 0)
		if r2.Counts.ExprEvals > r1.Counts.ExprEvals {
			t.Errorf("env %v: expression evaluations increased %d -> %d",
				env, r1.Counts.ExprEvals, r2.Counts.ExprEvals)
		}
	}
	// On a looping execution, the win must be strict: y := c+d and
	// x := y+z leave the loop.
	env := map[ir.Var]int64{"x": 100, "z": 0, "y": 0, "i": 1, "c": 2, "d": 3}
	r1 := interp.Run(orig, env, 0)
	r2 := interp.Run(g, env, 0)
	if r2.Counts.ExprEvals >= r1.Counts.ExprEvals {
		t.Errorf("loop env: expr evals %d -> %d, want strict decrease", r1.Counts.ExprEvals, r2.Counts.ExprEvals)
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	g := parse.MustParse(running)
	optimize(t, g)
	enc := g.Encode()
	optimize(t, g)
	if g.Encode() != enc {
		t.Errorf("Optimize not idempotent:\n%s\nvs\n%s", enc, g.Encode())
	}
}

// Figure 3: after initialization, AM alone performs the motion EM would.
func TestFigure03AMSubsumesEM(t *testing.T) {
	g := parse.MustParse(`
graph fig03 {
  entry n1
  exit n4
  block n1 { if c < 0 then n2 else n3 }
  block n2 {
    z := a + b
    x := a + b
    goto n4
  }
  block n3 {
    x := a + b
    y := x + y
    if y < 100 then n3 else n4
  }
  block n4 { out(x, y, z) }
}
`)
	orig := g.Clone()
	optimize(t, g)
	g.MustValidate()
	// a+b must be evaluated exactly once on every execution — the
	// lazy placement may keep one static site per path, so the check is
	// dynamic, not static.
	envs := []map[ir.Var]int64{
		{"c": -1, "a": 2, "b": 3, "y": 0},  // n2 path
		{"c": 1, "a": 2, "b": 3, "y": 0},   // loop path, many iterations
		{"c": 1, "a": 2, "b": 3, "y": 999}, // loop path, zero iterations
	}
	for _, env := range envs {
		r := interp.Run(g, env, 0)
		abEvals := 0
		// Count a+b evaluations by comparing against a graph with the
		// pattern removed is overkill; instead rely on the fact that the
		// only compound expressions in fig03 are a+b and x+y, and x+y is
		// loop-carried (self-referential via y), so on the n2 path all
		// evaluations are a+b.
		if env["c"] < 0 {
			abEvals = r.Counts.ExprEvals
			if abEvals != 1 {
				t.Errorf("n2 path: a+b evaluated %d times, want 1\n%s", abEvals, printer.String(g))
			}
		}
		ro := interp.Run(orig, env, 0)
		if !interp.TraceEqual(ro, r) {
			t.Errorf("env %v: trace changed %v -> %v", env, ro.Trace, r.Trace)
		}
		if r.Counts.ExprEvals > ro.Counts.ExprEvals {
			t.Errorf("env %v: expr evals increased %d -> %d", env, ro.Counts.ExprEvals, r.Counts.ExprEvals)
		}
	}
	// On the loop path the win is strict: the original evaluates a+b once
	// per iteration, the optimized program once in total.
	envLoop := map[ir.Var]int64{"c": 1, "a": 2, "b": 3, "y": 0}
	if r1, r2 := interp.Run(orig, envLoop, 0), interp.Run(g, envLoop, 0); r2.Counts.ExprEvals >= r1.Counts.ExprEvals {
		t.Errorf("loop path: expr evals %d -> %d, want strict decrease", r1.Counts.ExprEvals, r2.Counts.ExprEvals)
	}
}

func TestConditionOnlyExpression(t *testing.T) {
	// An expression that occurs only in a branch condition is still
	// subject to motion: the loop-invariant condition side x+z must be
	// computed once, outside the loop.
	g := parse.MustParse(`
graph condonly {
  entry b1
  exit b3
  block b1 { goto b2 }
  block b2 {
    i := i + 1
    if x + z > i then b2 else b3
  }
  block b3 { out(i) }
}
`)
	orig := g.Clone()
	optimize(t, g)
	g.MustValidate()
	env := map[ir.Var]int64{"x": 5, "z": 5, "i": 0}
	r1 := interp.Run(orig, env, 0)
	r2 := interp.Run(g, env, 0)
	if !interp.TraceEqual(r1, r2) {
		t.Fatalf("trace changed: %v vs %v\n%s", r1.Trace, r2.Trace, printer.String(g))
	}
	// Original: x+z evaluated 10 times (once per iteration) plus i+1s.
	// Optimized: x+z once.
	if r2.Counts.ExprEvals >= r1.Counts.ExprEvals {
		t.Errorf("expr evals %d -> %d, want strict decrease\n%s",
			r1.Counts.ExprEvals, r2.Counts.ExprEvals, printer.String(g))
	}
}

func TestStraightLineCSE(t *testing.T) {
	// Classic common-subexpression elimination falls out: a+b computed
	// once, second occurrence uses the temp, single-use temps are
	// reconstructed away.
	g := parse.MustParse(`
graph cse {
  entry a
  exit e
  block a {
    x := a + b
    y := a + b
    goto e
  }
  block e { out(x, y) }
}
`)
	orig := g.Clone()
	optimize(t, g)
	env := map[ir.Var]int64{"a": 3, "b": 4}
	r := interp.Run(g, env, 0)
	if r.Counts.ExprEvals != 1 {
		t.Errorf("expr evals = %d, want 1\n%s", r.Counts.ExprEvals, printer.String(g))
	}
	checkSame(t, orig, g)
}

func TestNoTempsForSingleUse(t *testing.T) {
	// A once-used expression must not retain a temporary: the flush
	// reconstructs it (temporary-optimality, Theorem 5.4).
	g := parse.MustParse(`
graph single {
  entry a
  exit e
  block a {
    x := a + b
    goto e
  }
  block e { out(x) }
}
`)
	optimize(t, g)
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.KindAssign && g.IsTemp(in.LHS) {
				t.Errorf("unnecessary temporary kept: %v\n%s", in, printer.String(g))
			}
		}
	}
}

func runningEnvs() []map[ir.Var]int64 {
	return []map[ir.Var]int64{
		{"x": 0, "z": 0, "y": 0, "i": 0, "c": 0, "d": 0},
		{"x": 10, "z": 5, "y": 1, "i": 1, "c": 2, "d": 3},
		{"x": 100, "z": 50, "y": 0, "i": 1, "c": -2, "d": 3},
		{"x": -5, "z": 0, "y": 9, "i": 2, "c": 1, "d": 1},
	}
}

func checkSame(t *testing.T, orig, xform *ir.Graph) {
	t.Helper()
	for _, env := range runningEnvs() {
		r1 := interp.Run(orig, env, 0)
		r2 := interp.Run(xform, env, 0)
		if !interp.TraceEqual(r1, r2) {
			t.Errorf("env %v: trace changed %v -> %v\n%s", env, r1.Trace, r2.Trace, printer.String(xform))
		}
	}
}

// TestInitializeClobberGuard pins the re-initialization hazard found by the
// PR 6 differential sweep (unstructured/seed50): a propagation round can
// extend a temporary's live range beyond its defining copies, and a later
// initialization round that decomposes a NEW site of the same pattern would
// insert h_ε := ε over the live value. Initialize must leave such a site
// undecomposed.
func TestInitializeClobberGuard(t *testing.T) {
	g := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a / b
    x := h1
    goto m
  }
  block m {
    a := a + 1
    y := a / b
    goto e
  }
  block e { out(x, y, h1) }
}
`)
	orig := g.Clone()
	Initialize(g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The new site of a/b in m must survive: h1's entry value is read at e.
	found := false
	for _, in := range g.BlockByName("m").Instrs {
		if in.Key() == "y:=a/b" {
			found = true
		}
		if in.Key() == "h1:=a/b" {
			t.Errorf("live temporary h1 clobbered by re-initialization: %v", blockKeys(g, "m"))
		}
	}
	if !found {
		t.Errorf("site disappeared: %v", blockKeys(g, "m"))
	}
	if rep := verify.Equivalent(orig, g, 4, 1); !rep.Equivalent {
		t.Errorf("semantics changed: %s", rep.Detail)
	}

	// A dead temporary imposes no constraint: the same program without the
	// propagated use of h1 decomposes fully, through the same temp.
	g2 := parse.MustParseTemps(`
graph g {
  entry a
  exit e
  block a {
    h1 := a / b
    x := h1
    goto m
  }
  block m {
    a := a + 1
    y := a / b
    goto e
  }
  block e { out(x, y) }
}
`)
	Initialize(g2)
	found = false
	for _, in := range g2.BlockByName("m").Instrs {
		if in.Key() == "h1:=a/b" {
			found = true
		}
	}
	if !found {
		t.Errorf("dead temp blocked decomposition: %v", blockKeys(g2, "m"))
	}
}

func blockKeys(g *ir.Graph, name string) []string {
	var out []string
	for _, in := range g.BlockByName(name).Instrs {
		out = append(out, in.Key())
	}
	return out
}
