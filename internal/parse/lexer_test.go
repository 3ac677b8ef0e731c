package parse_test

import (
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
