package parse

import (
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
)

// FuzzParse checks that the parser never panics and that every accepted
// program is valid, round-trips through the printer, and survives the
// full optimization pipeline.
// optimize is core.Optimize on a fresh session. It panics on an error:
// the graphs here run without a budget or deadline, so only a fixpoint
// bug can fail.
func optimize(g *ir.Graph) {
	s := analysis.NewSession()
	defer s.Close()
	if _, err := core.Optimize(g, s); err != nil {
		panic(err)
	}
}

func FuzzParse(f *testing.F) {
	seeds := []string{
		`graph g { entry a exit e block a { x := 1 goto e } block e { out(x) } }`,
		`graph g { entry a exit e block a { if x + z > y then a2 else e } block a2 { y := c + d goto e } block e { out(y) } }`,
		`graph g { entry a exit e block a { skip goto e } block e { skip } }`,
		`graph running {
  entry b1
  exit b4
  block b1 { y := c + d
    goto b2 }
  block b2 { if x + z > y + i then b3 else b4 }
  block b3 { y := c + d
    x := y + z
    i := i + x
    goto b2 }
  block b4 { x := y + z
    out(i, x, y) }
}`,
		`graph g { entry a exit e block a { x := -5 % y goto e } block e { out(x) } }`,
		"graph g {", "", "# comment only", "graph g { entry a exit a block a { } }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted invalid graph: %v", verr)
		}
		text := printer.String(g)
		g2, err := ParseWith(text, Options{AllowTemps: true})
		if err != nil {
			t.Fatalf("print output does not re-parse: %v\n%s", err, text)
		}
		if g.Encode() != g2.Encode() {
			t.Fatalf("round trip changed program:\n%s\nvs\n%s", g.Encode(), g2.Encode())
		}
		// The optimizer must not panic or corrupt the graph either.
		optimize(g)
		if verr := g.Validate(); verr != nil {
			t.Fatalf("optimizer produced invalid graph: %v", verr)
		}
	})
}

// FuzzParseNested does the same for the nested-expression grammar.
func FuzzParseNested(f *testing.F) {
	seeds := []string{
		`graph g { entry a exit e block a { x := a + b + c goto e } block e { out(x) } }`,
		`graph g { entry a exit e block a { x := (a + b) * (c - 1) % d goto e } block e { out(x + 1) } }`,
		`graph g { entry a exit e block a { if p + q * 2 > r - 1 then a2 else e } block a2 { x := 1 goto e } block e { out(x) } }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseNested(src)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted invalid graph: %v", verr)
		}
		// Everything must be 3-address after lowering.
		for _, b := range g.Blocks {
			for i := range b.Instrs {
				for _, tm := range b.Instrs[i].Terms(nil) {
					if !tm.Trivial() && !tm.Op.IsArith() {
						t.Fatalf("non-3-address term %v", tm)
					}
				}
			}
		}
	})
}
