package parse

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"assignmentmotion/internal/ir"
)

const runningExample = `
// Figure 4 of the paper: the running example.
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

func TestParseRunningExample(t *testing.T) {
	g, err := Parse(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "running" {
		t.Errorf("name = %q", g.Name)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("%d blocks", len(g.Blocks))
	}
	if g.EntryBlock().Name != "b1" || g.ExitBlock().Name != "b4" {
		t.Error("entry/exit wrong")
	}
	b2 := g.BlockByName("b2")
	cond, ok := b2.Cond()
	if !ok {
		t.Fatal("b2 has no condition")
	}
	if cond.CondL.Key() != "x+z" || cond.CondOp != ir.OpGT || cond.CondR.Key() != "y+i" {
		t.Errorf("cond = %v", cond)
	}
	if g.Block(b2.Succs[0]).Name != "b3" || g.Block(b2.Succs[1]).Name != "b4" {
		t.Error("branch successor order wrong")
	}
	b3 := g.BlockByName("b3")
	if len(b3.Instrs) != 3 {
		t.Fatalf("b3 instrs = %v", b3.Instrs)
	}
	if b3.Instrs[1].Key() != "x:=y+z" {
		t.Errorf("b3[1] = %v", b3.Instrs[1])
	}
	b4 := g.BlockByName("b4")
	last := b4.Instrs[len(b4.Instrs)-1]
	if last.Kind != ir.KindOut || len(last.Args) != 3 {
		t.Errorf("b4 out = %v", last)
	}
}

func TestParseConstantsAndOps(t *testing.T) {
	g := MustParse(`
graph g {
  entry a
  exit b
  block a {
    x := 3 * y
    z := -5
    w := x % 2
    q := x / z
    r := x - 1
    goto b
  }
  block b { out(q, r, w) }
}
`)
	a := g.BlockByName("a")
	if a.Instrs[0].Key() != "x:=3*y" {
		t.Errorf("instr 0 = %v", a.Instrs[0])
	}
	if a.Instrs[1].RHS.Args[0].Const != -5 {
		t.Errorf("instr 1 = %v", a.Instrs[1])
	}
	if a.Instrs[2].Key() != "w:=x%2" || a.Instrs[3].Key() != "q:=x/z" || a.Instrs[4].Key() != "r:=x-1" {
		t.Errorf("ops parsed wrong: %v", a.Instrs)
	}
}

func TestParseSelfAssignBecomesSkip(t *testing.T) {
	g := MustParse(`
graph g {
  entry a
  exit b
  block a {
    x := x
    goto b
  }
  block b { out(x) }
}
`)
	a := g.BlockByName("a")
	if len(a.Instrs) != 1 || a.Instrs[0].Kind != ir.KindSkip {
		t.Errorf("x := x not normalized to skip: %v", a.Instrs)
	}
}

func TestParseRejectsTempSpelling(t *testing.T) {
	_, err := Parse(`
graph g {
  entry a
  exit b
  block a { h1 := x + y
    goto b }
  block b { out(x) }
}
`)
	if err == nil || !strings.Contains(err.Error(), "reserved temporary spelling") {
		t.Errorf("err = %v", err)
	}
}

func TestParseAllowTempsRegisters(t *testing.T) {
	g, err := ParseWith(`
graph g {
  entry a
  exit b
  block a {
    h1 := x + y
    z := h1
    goto b
  }
  block b { out(z, h1) }
}
`, Options{AllowTemps: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTemp("h1") {
		t.Fatal("h1 not registered")
	}
	if e, _ := g.TempExpr("h1"); e.Key() != "x+y" {
		t.Errorf("h1 expr = %v", e)
	}
}

func TestParseAllowTempsConflict(t *testing.T) {
	_, err := ParseWith(`
graph g {
  entry a
  exit b
  block a {
    h1 := x + y
    h1 := x * y
    goto b
  }
  block b { out(h1) }
}
`, Options{AllowTemps: true})
	if err == nil || !strings.Contains(err.Error(), "initialized with both") {
		t.Errorf("err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing entry", `graph g { exit b block b { skip } }`, "no entry"},
		{"missing exit", `graph g { entry b block b { skip } }`, "no exit"},
		{"undeclared entry", `graph g { entry a exit b block b { skip } }`, "not declared"},
		{"no terminator", `graph g { entry a exit b block a { skip } block b { skip } }`, "no goto or if"},
		{"exit terminator", `graph g { entry a exit b block a { goto b } block b { goto a } }`, "must not have a terminator"},
		{"stmt after terminator", `graph g { entry a exit b block a { goto b skip } block b { skip } }`, "after terminator"},
		{"undeclared target", `graph g { entry a exit b block a { goto c } block b { skip } }`, "undeclared block"},
		{"duplicate block", `graph g { entry a exit b block a { goto b } block a { goto b } block b { skip } }`, "duplicate block"},
		{"keyword variable", `graph g { entry a exit b block a { then := 1 goto b } block b { skip } }`, "keyword"},
		{"bad relop", `graph g { entry a exit b block a { if x + y then b else b } block b { skip } }`, "relational"},
		{"nested term", `graph g { entry a exit b block a { x := a + b + c goto b } block b { skip } }`, ""},
		{"bad char", `graph g { entry a exit b block a { x := a & b goto b } block b { skip } }`, "unexpected character"},
		{"duplicate entry", `graph g { entry a entry a exit b block a { goto b } block b { skip } }`, "duplicate entry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("parse succeeded for %q", c.src)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	g := MustParse(`
# hash comment
graph g { // line comment
  entry a
  exit b
  block a {
    x := 1 // trailing
    goto b
  }
  block b { out(x) }
}
`)
	if g.BlockByName("a").Instrs[0].Key() != "x:=1" {
		t.Error("comment handling broke parsing")
	}
}

func TestParseValidatesGraph(t *testing.T) {
	// Block c is declared but unreachable.
	_, err := Parse(`
graph g {
  entry a
  exit b
  block a { goto b }
  block b { out(x) }
  block c { goto b }
}
`)
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("err = %v", err)
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.fg")
	if err := os.WriteFile(path, []byte(`
graph g {
  entry a
  exit b
  block a { x := 1
    goto b }
  block b { out(x) }
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "g" {
		t.Errorf("name = %q", g.Name)
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.fg")); err == nil {
		t.Error("missing file accepted")
	}
	// Errors carry the file name.
	bad := filepath.Join(dir, "bad.fg")
	if err := os.WriteFile(bad, []byte("graph {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFile(bad); err == nil || !strings.Contains(err.Error(), "bad.fg") {
		t.Errorf("err = %v", err)
	}
}

func TestMustParseTempsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseTemps did not panic")
		}
	}()
	MustParseTemps("graph {")
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Parse("graph g {\n  entry a\n  exit b\n  block a { x := & }\n}")
	if err == nil || !strings.Contains(err.Error(), "4:") {
		t.Errorf("err = %v, want line 4 position", err)
	}
}

func TestMustParsePanicMessage(t *testing.T) {
	src := "graph g {\n  entry b0\n  exit b0\n  block b0 {\n    x : 1\n    out(x)\n  }\n}\n"
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("MustParse did not panic on a syntax error")
		}
		msg, ok := rec.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", rec)
		}
		if !strings.Contains(msg, "parse.MustParse") {
			t.Errorf("panic message does not name the entry point: %q", msg)
		}
		if !strings.Contains(msg, "5:") {
			t.Errorf("panic message does not carry the source line: %q", msg)
		}
		if !strings.Contains(msg, "x : 1") {
			t.Errorf("panic message does not quote the offending line: %q", msg)
		}
		if !strings.Contains(msg, "^") {
			t.Errorf("panic message has no caret: %q", msg)
		}
	}()
	MustParse(src)
}

func TestMustMessageWithoutPosition(t *testing.T) {
	msg := mustMessage("parse.MustParse", "src", os.ErrNotExist)
	if !strings.Contains(msg, "parse.MustParse") || strings.Contains(msg, "^") {
		t.Errorf("positionless error must format without a caret: %q", msg)
	}
}

// TestIsGraphNameMatchesParser: IsGraphName accepts a name exactly when a
// program declaring "graph <name>" parses and carries that name.
func TestIsGraphNameMatchesParser(t *testing.T) {
	names := []string{
		"", "g", "_", "_9", "x1", "Prog", "my_prog", "h1", "outer", "entries",
		"graph", "Graph", "BLOCK", "exit", "fn", "while", "int",
		"9lives", "my prog", "a{b", "a-b", "a.b", "x\n", " x", "x ", "x#c", "x//c", "é", "\xe9t\xe9",
	}
	for c := 0; c < 256; c++ {
		names = append(names, string([]byte{byte(c)}), "a"+string([]byte{byte(c)}))
	}
	for _, name := range names {
		src := "graph " + name + " {\n entry a\n exit b\n block a { goto b }\n block b { skip }\n}\n"
		g, err := Parse(src)
		parses := err == nil && g.Name == name
		if got := IsGraphName(name); got != parses {
			t.Errorf("IsGraphName(%q) = %v, but the program parses to that name: %v (err %v)", name, got, parses, err)
		}
	}
}
