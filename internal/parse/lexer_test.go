package parse_test

import (
	"runtime"
	"strings"
	"testing"

	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/typeinference"
)

// TestNonASCIIIdentifiers: identifiers are ASCII. A name with a
// multi-byte character fails to parse, in the .fg and typed dialects
// alike, with the character reported whole; IsGraphName agrees.
func TestNonASCIIIdentifiers(t *testing.T) {
	for _, tc := range []struct{ name, char string }{
		{"ê", "ê"}, {"é", "é"}, {"µ", "µ"}, {"xª", "ª"}, {"Ωx", "Ω"}, {"x\xe9", `\xe9`},
	} {
		fg := "graph g {\n entry a\n exit b\n block a {\n " + tc.name + " := 1\n goto b\n }\n block b { skip }\n}\n"
		if _, err := parse.Parse(fg); err == nil || !strings.Contains(err.Error(), `unexpected character "`+tc.char+`"`) {
			t.Errorf("Parse with variable %q: err %v, want unexpected character %q", tc.name, err, tc.char)
		}
		fun := "prog p {\n let " + tc.name + " = 1\n out(" + tc.name + ")\n}\n"
		if _, _, err := typeinference.Compile(fun); err == nil || !strings.Contains(err.Error(), `unexpected character "`+tc.char+`"`) {
			t.Errorf("typeinference.Compile with variable %q: err %v, want unexpected character %q", tc.name, err, tc.char)
		}
		if parse.IsGraphName(tc.name) {
			t.Errorf("IsGraphName(%q) = true", tc.name)
		}
	}
}

// TestLexAllocationBound: the lexer still reads the whole source before
// parsing starts, but grows its token slice at most once, so a source of
// one-byte tokens costs every front end a bounded multiple of its size.
// On 1 MiB of "(" (a million 20-byte tokens) the first guess of one token
// per three bytes and the one regrowth to one per remaining byte come to
// about 27 bytes per source byte; growing in append's steps cost 75.
func TestLexAllocationBound(t *testing.T) {
	src := strings.Repeat("(", 1<<20)
	for _, fe := range []struct {
		name  string
		parse func(string) error
	}{
		{"Parse", func(s string) error { _, err := parse.Parse(s); return err }},
		{"ParseNested", func(s string) error { _, err := parse.ParseNested(s); return err }},
		{"ParseUnit", func(s string) error { _, err := parse.ParseUnit(s); return err }},
		{"typeinference.Compile", func(s string) error { _, _, err := typeinference.Compile(s); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fe.parse(src)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted 1 MiB of (", fe.name)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src))
		t.Logf("%s: %.1f bytes allocated per source byte", fe.name, ratio)
		if ratio > 30 {
			t.Errorf("%s allocated %.1f× the source; want at most 30×", fe.name, ratio)
		}
	}
}
