package parse

import (
	"reflect"
	"testing"

	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
)

// nestedSources are the programs of the tests below; export_test.go
// hands them to the differential test against the reference parser.
var nestedSources = []string{nestedFig18a, nestedPrec, nestedDeep, nestedConds, nestedOuts, nestedClash, nestedPlain, nestedBad, nestedNeg}

const (
	nestedFig18a = `
graph fig18a {
  entry n1
  exit n2
  block n1 {
    x := a + b + c
    goto n2
  }
  block n2 { out(x) }
}
`
	nestedPrec = `
graph prec {
  entry a
  exit e
  block a {
    x := a0 + b0 * c0
    y := (a0 + b0) * c0
    goto e
  }
  block e { out(x, y) }
}
`
	nestedDeep = `
graph deep {
  entry a
  exit e
  block a {
    x := ((p + q) * (p - q)) % (p + 1)
    goto e
  }
  block e { out(x) }
}
`
	nestedConds = `
graph conds {
  entry a
  exit e
  block a {
    if p + q * 2 > r - 1 then b else e
  }
  block b {
    x := 1
    goto e
  }
  block e { out(x) }
}
`
	nestedOuts = `
graph outs {
  entry a
  exit e
  block a { goto e }
  block e { out(p + q, 7, r) }
}
`
	nestedClash = `
graph clash {
  entry a
  exit e
  block a {
    t1 := 5
    x := a0 + b0 + t1
    goto e
  }
  block e { out(x, t1) }
}
`
	nestedPlain = `
graph plain {
  entry a
  exit e
  block a {
    x := a0 + b0
    goto e
  }
  block e { out(x) }
}
`
	nestedBad = `
graph bad {
  entry a
  exit e
  block a {
    x := (a0 + b0
    goto e
  }
  block e { out(x) }
}
`
	nestedNeg = `
graph neg {
  entry a
  exit e
  block a {
    x := -3 + p - -2
    goto e
  }
  block e { out(x) }
}
`
)

func keys(g *ir.Graph, name string) []string {
	var out []string
	for _, in := range g.BlockByName(name).Instrs {
		out = append(out, in.Key())
	}
	return out
}

func TestNestedFigure18Decomposition(t *testing.T) {
	// Figure 18(a) → 18(b): x := a+b+c decomposes into t1 := a+b;
	// x := t1+c.
	g := MustParseNested(nestedFig18a)
	want := []string{"t1:=a+b", "x:=t1+c"}
	if got := keys(g, "n1"); !reflect.DeepEqual(got, want) {
		t.Errorf("n1 = %v, want %v", got, want)
	}
}

func TestNestedPrecedence(t *testing.T) {
	g := MustParseNested(nestedPrec)
	got := keys(g, "a")
	want := []string{"t1:=b0*c0", "x:=a0+t1", "t2:=a0+b0", "y:=t2*c0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a = %v, want %v", got, want)
	}
	// Semantics check: 2 + 3*4 = 14; (2+3)*4 = 20.
	r := interp.Run(g, map[ir.Var]int64{"a0": 2, "b0": 3, "c0": 4}, 0)
	if !reflect.DeepEqual(r.Trace, []int64{14, 20}) {
		t.Errorf("trace = %v", r.Trace)
	}
}

func TestNestedDeepExpression(t *testing.T) {
	g := MustParseNested(nestedDeep)
	// (3+2)*(3-2) % 4 = 5 % 4 = 1
	r := interp.Run(g, map[ir.Var]int64{"p": 3, "q": 2}, 0)
	if !reflect.DeepEqual(r.Trace, []int64{1}) {
		t.Errorf("trace = %v", r.Trace)
	}
	// All instructions must be 3-address.
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			for _, tm := range in.Terms(nil) {
				if !tm.Trivial() && !tm.Op.IsArith() {
					t.Errorf("non-3-address term %v", tm)
				}
			}
		}
	}
}

func TestNestedConditionSides(t *testing.T) {
	g := MustParseNested(nestedConds)
	a := keys(g, "a")
	// q*2 must be lowered; p + t1 and r - 1 fit in condition sides.
	want := []string{"t1:=q*2", "p+t1>r-1"}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("a = %v, want %v", a, want)
	}
	r := interp.Run(g, map[ir.Var]int64{"p": 1, "q": 2, "r": 3}, 0)
	if !reflect.DeepEqual(r.Trace, []int64{1}) { // 1+4 > 2 → then-branch
		t.Errorf("trace = %v", r.Trace)
	}
}

func TestNestedOutArguments(t *testing.T) {
	g := MustParseNested(nestedOuts)
	got := keys(g, "e")
	want := []string{"t1:=p+q", "out(t1,7,r)"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("e = %v, want %v", got, want)
	}
}

func TestNestedPrefixAvoidsCollision(t *testing.T) {
	// The program already uses t1, so decomposition must pick another
	// prefix.
	g := MustParseNested(nestedClash)
	got := keys(g, "a")
	want := []string{"t1:=5", "u1:=a0+b0", "x:=u1+t1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a = %v, want %v", got, want)
	}
}

func TestNestedPlainProgramsUnchanged(t *testing.T) {
	src := nestedPlain
	g1 := MustParse(src)
	g2 := MustParseNested(src)
	if g1.Encode() != g2.Encode() {
		t.Errorf("nested mode changed a plain program:\n%s\nvs\n%s", g1.Encode(), g2.Encode())
	}
}

func TestNestedUnbalancedParen(t *testing.T) {
	_, err := ParseNested(nestedBad)
	if err == nil {
		t.Error("unbalanced parenthesis accepted")
	}
}

func TestNestedNegativeLiterals(t *testing.T) {
	g := MustParseNested(nestedNeg)
	r := interp.Run(g, map[ir.Var]int64{"p": 10}, 0)
	if !reflect.DeepEqual(r.Trace, []int64{9}) {
		t.Errorf("trace = %v", r.Trace)
	}
}
