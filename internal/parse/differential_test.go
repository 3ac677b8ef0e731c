package parse_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
)

// parseMode is one way to read a .fg source, by the parser under test and
// by the reference parser in reference_test.go.
type parseMode struct {
	name      string
	parse     func(string) (*ir.Graph, error)
	reference func(string) (*ir.Graph, error)
}

var (
	plainMode = parseMode{"plain", parse.Parse,
		func(src string) (*ir.Graph, error) { return refParseWith(src, refOptions{}) }}
	tempsMode = parseMode{"temps",
		func(src string) (*ir.Graph, error) { return parse.ParseWith(src, parse.Options{AllowTemps: true}) },
		func(src string) (*ir.Graph, error) { return refParseWith(src, refOptions{AllowTemps: true}) }}
	nestedMode = parseMode{"nested", parse.ParseNested, refParseNested}
	parseModes = []parseMode{plainMode, tempsMode, nestedMode}
)

// matchReference parses src in mode m with both parsers and reports any
// difference: the error strings, or the graphs by encoding, fingerprint,
// temp registry and every block's Succs and Preds order.
// Outside ASCII the two differ by design — the reference read UTF-8 byte
// by byte as Latin-1 letters — so on such a source only a program the
// parser accepts must be one the reference accepts with the same graph.
// The reference has no nesting cap either: a source the parser refuses
// for nesting deeper than parse.MaxNesting is exempt, provided it holds
// more parentheses or operators than the cap, which such nesting needs
// (TestNestingCap pins the cap itself).
func matchReference(t testing.TB, name string, m parseMode, src string) {
	t.Helper()
	got, err := m.parse(src)
	want, werr := m.reference(src)
	ascii := true
	for i := 0; i < len(src) && ascii; i++ {
		ascii = src[i] < utf8.RuneSelf
	}
	switch {
	case err != nil && !ascii:
		return
	case err != nil && strings.Contains(err.Error(), "nesting deeper than"):
		parens, ops := strings.Count(src, "("), 0
		for i := 0; i < len(src); i++ {
			if strings.IndexByte("+-*/%", src[i]) >= 0 {
				ops++
			}
		}
		if parens <= parse.MaxNesting && ops <= parse.MaxNesting {
			t.Fatalf("%s (%s): %v with %d parentheses and %d operators\n%s", name, m.name, err, parens, ops, src)
		}
		return
	case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
		t.Fatalf("%s (%s): error %v, reference %v\n%s", name, m.name, err, werr, src)
	case err != nil:
		return
	}
	if diff := graphDiff(got, want); diff != "" {
		t.Fatalf("%s (%s): %s\n%s", name, m.name, diff, src)
	}
}

// graphDiff describes the first difference between two graphs, or "".
func graphDiff(got, want *ir.Graph) string {
	if g, w := got.Encode(), want.Encode(); g != w {
		return fmt.Sprintf("Encode differs:\n%s\nreference\n%s", g, w)
	}
	if got.Name != want.Name || got.Entry != want.Entry || got.Exit != want.Exit {
		return fmt.Sprintf("name, entry or exit differs: %s %d %d, reference %s %d %d",
			got.Name, got.Entry, got.Exit, want.Name, want.Entry, want.Exit)
	}
	if got.Fingerprint() != want.Fingerprint() {
		return "Fingerprint differs"
	}
	if g, w := got.Temps(), want.Temps(); !slices.Equal(g, w) {
		return fmt.Sprintf("temps %v, reference %v", g, w)
	}
	for _, h := range got.Temps() {
		g, _ := got.TempExpr(h)
		if w, ok := want.TempExpr(h); !ok || !g.Equal(w) {
			return fmt.Sprintf("temp %s binds %s, reference %s", h, g, w)
		}
	}
	for i, b := range got.Blocks {
		w := want.Blocks[i]
		if !slices.Equal(b.Succs, w.Succs) || !slices.Equal(b.Preds, w.Preds) {
			return fmt.Sprintf("block %s: succs %v preds %v, reference %v %v", b.Name, b.Succs, b.Preds, w.Succs, w.Preds)
		}
	}
	return ""
}

// optimizeGraph is core.Optimize on a fresh session.
func optimizeGraph(g *ir.Graph) {
	s := analysis.NewSession()
	defer s.Close()
	if _, err := core.Optimize(g, s); err != nil {
		panic(err)
	}
}

// printed renders a cfggen graph as .fg text that parses: cfggen names the
// end blocks of unstructured graphs "entry" and "exit", which are
// keywords.
func printed(g *ir.Graph) string {
	for _, b := range g.Blocks {
		if b.Name == "entry" || b.Name == "exit" {
			b.Name = "u_" + b.Name
		}
	}
	return printer.String(g)
}

type namedSource struct{ name, src string }

// referenceSources are the fg corpus, the examples, the figures, the
// golden outputs and the nested-mode test programs.
func referenceSources(t *testing.T) []namedSource {
	var out []namedSource
	for _, n := range corpus.Names() {
		out = append(out, namedSource{"corpus/" + n, corpus.Source(n)})
	}
	for _, n := range figures.Names() {
		out = append(out, namedSource{"figures/" + n, figures.Source(n)})
	}
	for _, pattern := range []string{
		"../../examples/fg/*.fg", "../../testdata/golden/*.fg",
		"../corpus/golden/*.fg", "../figures/golden/*.fg",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no files (%v)", pattern, err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedSource{f, string(data)})
		}
	}
	for i, src := range parse.NestedSources {
		out = append(out, namedSource{fmt.Sprint("nested/", i), src})
	}
	return out
}

// TestParseMatchesReference: on every program the repository holds and on
// printed cfggen programs before and after optimization, the slab parser
// builds the graph the reference parser builds, or fails with the same
// error, in every mode.
func TestParseMatchesReference(t *testing.T) {
	for _, s := range referenceSources(t) {
		for _, m := range parseModes {
			matchReference(t, s.name, m, s.src)
		}
	}
	sizes := []int{6, 12, 40, 200, 1000}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, size := range sizes {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := cfggen.Config{Size: size}
			for _, gen := range []struct {
				name string
				mk   func(int64, cfggen.Config) *ir.Graph
			}{{"structured", cfggen.Structured}, {"unstructured", cfggen.Unstructured}} {
				name := fmt.Sprintf("%s%d_%d", gen.name, size, seed)
				src := printed(gen.mk(seed, cfg))
				matchReference(t, name, plainMode, src)
				opt := gen.mk(seed, cfg)
				optimizeGraph(opt)
				matchReference(t, name+"/optimized", tempsMode, printed(opt))
			}
		}
	}
}

// TestParseErrorsMatchReference: every truncation and every single-byte
// mutation of the small corpus programs either parses to the reference's
// graph or fails with the reference's error string (see matchReference
// for sources that are not ASCII: the corpus comments hold a few).
func TestParseErrorsMatchReference(t *testing.T) {
	const alphabet = " \n\t{}(),:=<>!+-*/%#0159azAZ_h@\"\x00\x7f"
	for _, n := range []string{"gcdish", "interp", "dotprod"} {
		src := corpus.Source(n)
		for _, m := range []parseMode{plainMode, nestedMode} {
			for i := 0; i <= len(src); i++ {
				matchReference(t, fmt.Sprintf("%s[:%d]", n, i), m, src[:i])
			}
			buf := []byte(src)
			for i := range buf {
				orig := buf[i]
				for _, c := range []byte(alphabet) {
					if c == orig {
						continue
					}
					buf[i] = c
					matchReference(t, fmt.Sprintf("%s[%d]=%q", n, i, c), m, string(buf))
				}
				buf[i] = orig
			}
		}
	}
}

// FuzzParseMatchesReference is TestParseErrorsMatchReference's property
// on any source.
func FuzzParseMatchesReference(f *testing.F) {
	for _, n := range []string{"gcdish", "interp", "dotprod"} {
		f.Add(corpus.Source(n))
	}
	for _, src := range parse.NestedSources {
		f.Add(src)
	}
	f.Add("graph g { entry a exit e block a { x := -5 % y goto e } block e { out(x) } }")
	f.Add("graph é { entry a exit e block a { goto e } block e { skip } }")
	f.Fuzz(func(t *testing.T, src string) {
		for _, m := range parseModes {
			matchReference(t, "fuzz", m, src)
		}
	})
}

// TestNestingCap: ParseNested reads parentheses and operator chains
// parse.MaxNesting levels deep into the graph the uncapped reference
// builds, and refuses one level more at the parenthesis or operator that
// opens it, with a positioned error, where the reference parses on.
func TestNestingCap(t *testing.T) {
	const prefix = "graph g { entry a exit a block a { x := "
	for _, shape := range []struct {
		name, open, leaf, close string
		at                      int // offset in open of the token that nests
	}{
		{"parentheses", "(", "b", ")", 0},
		{"operators", "b + ", "b", "", 2},
	} {
		src := func(levels int) string {
			return prefix + strings.Repeat(shape.open, levels) + shape.leaf +
				strings.Repeat(shape.close, levels) + " out(x) } }"
		}
		matchReference(t, shape.name, nestedMode, src(parse.MaxNesting))
		deep := src(parse.MaxNesting + 1)
		col := len(prefix) + parse.MaxNesting*len(shape.open) + shape.at + 1
		want := fmt.Sprintf("1:%d: nesting deeper than %d levels", col, parse.MaxNesting)
		if _, err := parse.ParseNested(deep); err == nil || err.Error() != want {
			t.Errorf("%s: ParseNested error %v, want %q", shape.name, err, want)
		}
		if _, err := refParseNested(deep); err != nil {
			t.Errorf("%s: reference parser: %v", shape.name, err)
		}
		matchReference(t, shape.name+" past the cap", nestedMode, deep)
	}
}

// TestParseAllocs pins Parse's allocations with a bound that holds for
// printed cfggen programs of 12 to 1000 blocks: the token slice, the
// block, instruction, operand and edge slabs, the name map and the
// graph's own few allocations, none of them per token, instruction, block
// or edge. ParseNested adds no allocation per decomposition temporary:
// on 1000 nested statements that need 3,000 of them, its maps and name
// buffer grow a few dozen times.
func TestParseAllocs(t *testing.T) {
	var nested strings.Builder
	nested.WriteString("graph g {\n entry a\n exit e\n block a {\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&nested, "  x%d := (a + b%d) * (c - %d) %% d + e\n", i, i%7, i)
	}
	nested.WriteString("  goto e\n }\n block e { out(x0, (a + b0) * 2) }\n}\n")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := parse.ParseNested(nested.String()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("nested (%d bytes): %.0f allocs", nested.Len(), allocs)
	if allocs > 100 {
		t.Errorf("ParseNested made %.0f allocations, want at most 100", allocs)
	}

	for _, size := range []int{12, 200, 1000} {
		for _, gen := range []struct {
			name string
			mk   func(int64, cfggen.Config) *ir.Graph
		}{{"structured", cfggen.Structured}, {"unstructured", cfggen.Unstructured}} {
			src := printed(gen.mk(1, cfggen.Config{Size: size}))
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := parse.Parse(src); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s%d (%d bytes): %.0f allocs", gen.name, size, len(src), allocs)
			if allocs > 40 {
				t.Errorf("%s%d: Parse made %.0f allocations, want at most 40", gen.name, size, allocs)
			}
		}
	}
}
