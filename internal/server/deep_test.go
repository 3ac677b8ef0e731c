package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestDeepSourcesAre400: a source nested far past the parser's cap, one
// whose inlined calls nest past the lowering's depth bound, and one past
// the inline budget answer 400 parse-error on /v1/optimize and /v1/run.
// The first three used to overflow the goroutine stack, which ends the
// process: Go cannot recover a stack overflow.
func TestDeepSourcesAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// chain is n functions, each nesting its call of the next depth
	// parentheses deep: "return x + (x + (… f<i+1>(x) …))".
	chain := func(n, depth int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "fn f%d(x: int): int { return %sf%d(x)%s }\n",
				i, strings.Repeat("x + (", depth), i+1, strings.Repeat(")", depth))
		}
		fmt.Fprintf(&b, "fn f%d(x: int): int { return x }\nprog p { out(f0(a)) }\n", n)
		return b.String()
	}
	// tree's calls double per level: past the budget after 13 levels.
	var tree strings.Builder
	tree.WriteString("fn f0(x: int): int { return x + 1 }\n")
	for i := 1; i <= 13; i++ {
		fmt.Fprintf(&tree, "fn f%d(x: int): int { return f%d(x) + f%d(x) }\n", i, i-1, i-1)
	}
	tree.WriteString("prog p { out(f13(a)) }\n")

	for _, tc := range []struct {
		name, dialect, src, want string
	}{
		{"nested, 10^6 parentheses", "nested",
			"graph g { entry a exit a block a { x := " + strings.Repeat("(", 1_000_000) + "b" +
				strings.Repeat(")", 1_000_000) + " out(x) } }", "nesting deeper than 1000 levels"},
		{"typed, 5·10^5 parentheses", "fun",
			"prog p { x := " + strings.Repeat("(", 500_000) + "a" + strings.Repeat(")", 500_000) + " out(x) }",
			"nesting deeper than 1000 levels"},
		{"1,000 functions 1,000 deep", "fun", chain(1000, 1000), "nesting deeper than"},
		{"12 functions 900 deep", "fun", chain(12, 900), "nesting deeper than 10000 levels after inlining"},
		{"call tree past the budget", "fun", tree.String(), "inline budget exceeded"},
	} {
		for _, path := range []string{"/v1/optimize", "/v1/run"} {
			var eb errorBody
			resp := postJSON(t, ts.URL+path, RunRequest{Dialect: tc.dialect, Program: tc.src}, &eb)
			if resp.StatusCode != http.StatusBadRequest || eb.ErrorKind != "parse-error" || !strings.Contains(eb.Error, tc.want) {
				t.Errorf("%s on %s: status %d, %s %q; want 400 parse-error containing %q",
					tc.name, path, resp.StatusCode, eb.ErrorKind, eb.Error, tc.want)
			}
		}
	}
}
