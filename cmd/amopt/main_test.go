package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestList(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"globalg", "am-restricted", "running", "fig08"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -list output", want)
		}
	}
}

func TestFigurePipeline(t *testing.T) {
	out, err := runCLI(t, "-figure", "running", "-pass", "globalg")
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 15 result.
	for _, want := range []string{"h1 := c + d", "x := y + z", "if h2 > y + i then b3 else b4", "x := h1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestInitPhaseOutput(t *testing.T) {
	out, err := runCLI(t, "-figure", "running", "-pass", "init")
	if err != nil {
		t.Fatal(err)
	}
	// Figure 12: decomposed condition.
	for _, want := range []string{"h2 := x + z", "h3 := y + i", "if h2 > h3 then b3 else b4"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFileInputWithVerifyMetricsRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.fg")
	src := `
graph p {
  entry a
  exit e
  block a {
    x := u + v
    y := u + v
    goto e
  }
  block e { out(x, y) }
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-pass", "globalg", "-metrics", "-verify", "10", "-run", "u=2,v=3", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# before:", "# after:", "# verified on 10 inputs", "# trace: [5 5]", "exprEvals=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	out, err := runCLI(t, "-figure", "fig08", "-pass", "am", "-json", "-verify", "5", "-run", "x=1,y=2,z=3,c=-1")
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"graph", "before", "after", "verifiedInputs", "trace", "program"} {
		if _, ok := report[key]; !ok {
			t.Errorf("missing key %q:\n%s", key, out)
		}
	}
	if report["graph"] != "fig08" {
		t.Errorf("graph = %v", report["graph"])
	}
}

func TestDotOutput(t *testing.T) {
	out, err := runCLI(t, "-figure", "fig01", "-pass", "none", "-dot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph \"fig01\"") {
		t.Errorf("not dot output:\n%s", out)
	}
}

func TestNestedInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "n.fg")
	src := `
graph n {
  entry a
  exit e
  block a {
    x := p + q + r
    goto e
  }
  block e { out(x) }
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Without -nested: rejected.
	if _, err := runCLI(t, "-pass", "none", path); err == nil {
		t.Error("nested expression accepted without -nested")
	}
	// With -nested: decomposed.
	out, err := runCLI(t, "-pass", "none", "-nested", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "t1 := p + q") || !strings.Contains(out, "x := t1 + r") {
		t.Errorf("decomposition missing:\n%s", out)
	}
}

func TestProgInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.prog")
	src := `
prog p {
  s := 0
  i := 0
  while i < 3 {
    s := s + u * v
    i := i + 1
  }
  out(s)
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-prog", "-pass", "globalg,tidy", "-verify", "8", "-run", "u=2,v=3", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# trace: [18]") {
		t.Errorf("missing trace:\n%s", out)
	}
	// The loop-invariant u*v must be hoisted: 3 iterations evaluate it
	// once, plus the counter increments and compares.
	if !strings.Contains(out, "# verified on 8 inputs") {
		t.Errorf("missing verification:\n%s", out)
	}
}

// TestProgSkipOnly: -prog compiles a body of skips to a one-block graph;
// the separate prog parser this replaced failed with "unknown entry block
// b1".
func TestProgSkipOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "skip.prog")
	for _, src := range []string{"prog p { skip }", "prog p { skip skip }"} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runCLI(t, "-prog", "-pass", "none", path)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if n := strings.Count(out, "block "); n != 1 {
			t.Errorf("%s: %d blocks, want one:\n%s", src, n, out)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCLI(t, "-figure", "nope"); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("err = %v", err)
	}
	if _, err := runCLI(t, "-figure", "running", "-pass", "bogus"); err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Errorf("err = %v", err)
	}
	if _, err := runCLI(t); err == nil {
		t.Error("missing input accepted")
	}
	if _, err := runCLI(t, "-run", "a=b", "-figure", "fig01"); err == nil {
		t.Error("bad env accepted")
	}
	if _, err := runCLI(t, "/nonexistent/file.fg"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestEveryPassRunsOnEveryFigure(t *testing.T) {
	for _, fig := range []string{"fig01", "fig02", "fig07", "fig08", "fig10", "fig16", "fig18", "running"} {
		for _, pass := range []string{"globalg", "em", "emcp", "am", "am-restricted", "copyprop", "dce", "pde", "init", "flush", "split"} {
			if _, err := runCLI(t, "-figure", fig, "-pass", pass, "-verify", "4"); err != nil {
				if pass == "dce" || pass == "pde" {
					continue // may alter trap behaviour; -verify can flag them
				}
				t.Errorf("%s/%s: %v", fig, pass, err)
			}
		}
	}
}

func TestPassesListOutput(t *testing.T) {
	out, err := runCLI(t, "-passes", "list")
	if err != nil {
		t.Fatal(err)
	}
	// Every registered pass appears, first on its line, in sorted order.
	want := []string{
		"aht", "am", "am-restricted", "copyprop", "dce", "em", "emcp",
		"flush", "globalg", "gvn", "gvn-emcp", "init", "mr", "pde",
		"rae", "split", "tidy",
	}
	var names []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "[") {
			continue // reference continuation line
		}
		names = append(names, f[0])
	}
	if len(names) != len(want) {
		t.Fatalf("-passes list shows %d passes, want %d:\n%s", len(names), len(want), out)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("-passes list position %d: got %q, want %q", i, names[i], want[i])
		}
	}
	// The new family's descriptions carry their paper references.
	for _, ref := range []string{"1303.1880", "2207.03894"} {
		if !strings.Contains(out, ref) {
			t.Errorf("missing reference %q in -passes list output:\n%s", ref, out)
		}
	}
}
