package parse_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/typeinference"
)

// compileFun is typeinference.Compile without its Result.
func compileFun(src string) (*ir.Graph, error) {
	g, _, err := typeinference.Compile(src)
	return g, err
}

func runFun(t *testing.T, src string, init map[ir.Var]int64) interp.Result {
	t.Helper()
	g, err := compileFun(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("lowered graph invalid: %v", err)
	}
	return interp.Run(g, init, interp.DefaultMaxSteps)
}

func wantTrace(t *testing.T, got interp.Result, want ...int64) {
	t.Helper()
	if got.Truncated || got.Trapped {
		t.Fatalf("run truncated=%v trapped=%v", got.Truncated, got.Trapped)
	}
	if len(got.Trace) != len(want) {
		t.Fatalf("trace = %v, want %v", got.Trace, want)
	}
	for i := range want {
		if got.Trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", got.Trace, want)
		}
	}
}

func TestFunSimpleCall(t *testing.T) {
	res := runFun(t, `
		fn square(x: int): int {
			return x * x
		}
		prog p {
			let a = square(3)
			let b = square(4)
			out(a + b)
		}
	`, nil)
	wantTrace(t, res, 25)
}

func TestFunRepeatedCallSharesInstances(t *testing.T) {
	g, err := compileFun(`
		fn square(x: int): int {
			return x * x
		}
		prog p {
			let a = square(n)
			let b = square(n)
			out(a, b)
		}
	`)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Both inlines must use the same parameter instance, so the motion
	// passes see the repeated pattern square_x := n / a := square_x * square_x.
	found := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.KindAssign && in.LHS == "square_x" {
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("want 2 assignments to shared instance square_x, found %d\n%s", found, g.Encode())
	}
	res := interp.Run(g, map[ir.Var]int64{"n": 7}, interp.DefaultMaxSteps)
	wantTrace(t, res, 49, 49)
}

func TestFunInference(t *testing.T) {
	// Annotations optional on let; typed and untyped mix freely.
	res := runFun(t, `
		fn max2(a: int, b: int) {
			if a > b {
				return a
			}
			return b
		}
		prog p {
			let x: int = 3
			let y = max2(x, 10)
			out(y)
		}
	`, nil)
	wantTrace(t, res, 10)
}

func TestFunBoolValues(t *testing.T) {
	res := runFun(t, `
		fn positive(x: int): bool {
			return x > 0
		}
		prog p {
			let flag: bool = positive(n)
			let other = n < 100
			if flag {
				out(1, other)
			} else {
				out(0, other)
			}
		}
	`, map[ir.Var]int64{"n": 42})
	wantTrace(t, res, 1, 1)
}

func TestFunControlFlow(t *testing.T) {
	res := runFun(t, `
		fn inc(x: int): int {
			return x + 1
		}
		prog p {
			let s = 0
			let i = 0
			while i < 10 {
				i := inc(i)
				if i == 3 {
					continue
				}
				if i > 7 {
					break
				}
				s := s + i
			}
			do {
				s := s - 1
			} while s > 25
			out(s, i)
		}
	`, nil)
	// i runs 1..8; skips 3; breaks at 8: s = 1+2+4+5+6+7 = 25; do-while
	// executes once: 24.
	wantTrace(t, res, 24, 8)
}

func TestFunNestedCallsAndExpressions(t *testing.T) {
	res := runFun(t, `
		fn add(a: int, b: int): int {
			return a + b
		}
		fn twice(x: int): int {
			return add(x, x)
		}
		prog p {
			out(twice(add(2, 3)) * 2 - 1)
		}
	`, nil)
	wantTrace(t, res, 19)
}

func TestFunUnaryMinus(t *testing.T) {
	res := runFun(t, `
		prog p {
			let a = -5
			let b = -(a + 2)
			out(a, b, -b)
		}
	`, nil)
	wantTrace(t, res, -5, 3, -3)
}

func TestFunWhileCallCondition(t *testing.T) {
	res := runFun(t, `
		fn under(x: int, lim: int): bool {
			return x < lim
		}
		prog p {
			let i = 0
			while under(i, 4) {
				i := i + 1
			}
			out(i)
		}
	`, nil)
	wantTrace(t, res, 4)
}

func TestFunErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"recursion", `fn f(x: int): int { return f(x) } prog p { out(f(1)) }`, "recursive"},
		{"undefined fn", `prog p { out(f(1)) }`, "undefined function"},
		{"arity", `fn f(x: int): int { return x } prog p { out(f(1, 2)) }`, "argument"},
		{"fn scope", `fn f(x: int): int { return x + y } prog p { out(f(1)) }`, "not a parameter or local"},
		{"missing return", `fn f(x: int): int { let y = x } prog p { out(f(1)) }`, "does not return on every path"},
		{"partial return", `fn f(x: int): int { if x > 0 { return x } } prog p { out(f(1)) }`, "does not return on every path"},
		{"break outside loop", `prog p { break }`, "outside a loop"},
		{"break in fn body", `fn f(x: int): int { break } prog p { out(f(1)) }`, "outside a loop"},
		{"return in prog", `prog p { return 1 }`, "return outside a function"},
		{"duplicate fn", `fn f(x: int): int { return x } fn f(x: int): int { return x } prog p { out(f(1)) }`, "duplicate function"},
		{"keyword var", `prog p { let if = 1 }`, "keyword"},
		{"missing prog", `fn f(x: int): int { return x }`, `expected "prog"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := compileFun(tc.src)
			if err == nil {
				t.Fatalf("Compile succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestFunMinInt64Literal(t *testing.T) {
	// The sign belongs to the literal, as in the flat dialects, so the
	// int64 minimum is a literal on its own and as the right operand of *.
	res := runFun(t, `
		prog p {
			x := -9223372036854775808
			y := a * -9223372036854775808
			out(x, y, --5)
		}
	`, map[ir.Var]int64{"a": 1})
	wantTrace(t, res, math.MinInt64, math.MinInt64, 5)
	if _, err := compileFun(`prog p { x := -9223372036854775809 }`); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("-9223372036854775809: err = %v, want out of range", err)
	}
}

func TestFunEmptyProgram(t *testing.T) {
	g, err := compileFun(`prog p { }`)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(g.Blocks) != 1 || g.Entry != g.Exit {
		t.Fatalf("want one block that is entry and exit, got %d blocks", len(g.Blocks))
	}
	wantTrace(t, interp.Run(g, nil, interp.DefaultMaxSteps))
}

func TestFunUnreachableAfterBreakDropped(t *testing.T) {
	// Statements after break/continue are unreachable; lowering drops them
	// (typeinference reports them as diagnostics).
	res := runFun(t, `
		prog p {
			let i = 0
			while true {
				i := 1
				break
				i := 99
			}
			out(i)
		}
	`, nil)
	wantTrace(t, res, 1)
}

func TestFunDoWhileAlwaysBreaks(t *testing.T) {
	res := runFun(t, `
		prog p {
			let i = 0
			do {
				i := i + 1
				break
			} while i < 10
			out(i)
		}
	`, nil)
	wantTrace(t, res, 1)
}

func TestFunElseIfChain(t *testing.T) {
	for n, want := range map[int64]int64{1: 10, 2: 20, 3: 30} {
		res := runFun(t, `
			prog p {
				let r = 0
				if n == 1 {
					r := 10
				} else if n == 2 {
					r := 20
				} else {
					r := 30
				}
				out(r)
			}
		`, map[ir.Var]int64{"n": n})
		wantTrace(t, res, want)
	}
}

// TestFunNestingCap: the typed dialect compiles each nesting construct
// parse.MaxNesting levels deep and refuses one level more, at the token
// that opens it, with a positioned error.
func TestFunNestingCap(t *testing.T) {
	n := parse.MaxNesting
	for _, shape := range []struct {
		name string
		src  func(levels int) string
		// nth names the token that opens level n+1: its text and which
		// occurrence it is.
		tok string
		nth int
	}{
		{"parentheses", func(k int) string {
			return "prog p { x := " + strings.Repeat("(", k) + "a" + strings.Repeat(")", k) + " out(x) }"
		}, "(", n + 1},
		{"operators", func(k int) string {
			return "prog p { x := a" + strings.Repeat(" * a", k) + " out(x) }"
		}, "*", n + 1},
		{"unary minus", func(k int) string {
			return "prog p { x := " + strings.Repeat("-", k) + "a out(x) }"
		}, "-", n + 1},
		{"calls", func(k int) string {
			return "fn f(y: int): int { return y } prog p { x := " + strings.Repeat("f(", k) + "a" + strings.Repeat(")", k) + " out(x) }"
		}, "(", n + 2},
		{"blocks", func(k int) string {
			return "prog p { " + strings.Repeat("while a < 1 { ", k) + "out(a)" + strings.Repeat(" }", k) + " }"
		}, "{", n + 2},
		{"else-ifs", func(k int) string {
			return "prog p { if a == 0 { out(0) }" + strings.Repeat(" else if a == 1 { out(1) }", k-1) + " }"
		}, "{", n + 2},
	} {
		if _, err := compileFun(shape.src(n)); err != nil {
			t.Errorf("%s, %d levels: %v", shape.name, n, err)
		}
		deep := shape.src(n + 1)
		col := 0
		for i := 0; i < shape.nth; i++ {
			col += strings.Index(deep[col:], shape.tok) + 1
		}
		want := fmt.Sprintf("1:%d: nesting deeper than %d levels", col, n)
		if _, err := compileFun(deep); err == nil || err.Error() != want {
			t.Errorf("%s, %d levels: error %v, want %q", shape.name, n+1, err, want)
		}
	}
}

// FuzzFun fuzzes the typed front end through typeinference.Compile, the
// one entry point that turns a fun source into a graph: it must never
// panic, every program it accepts lowers to a valid graph, and the
// optimizer keeps that graph valid.
func FuzzFun(f *testing.F) {
	seeds := []string{
		`prog p { let a = 1 out(a) }`,
		`fn square(x: int): int { return x * x }
prog p { let a = square(n) let b = square(n) out(a, b) }`,
		`fn even(x: int): bool { return x % 2 == 0 }
prog p {
	let i = 0
	let hits = 0
	while i < 10 {
		if even(i + k) { hits := hits + 1 }
		i := i + 1
	}
	out(hits)
}`,
		`prog p {
	let i = 0
	do { i := i + 1 if i > 3 { break } } while true
	out(i)
}`,
		`fn f(x: int) { return -x }
prog p { out(f(1) < 2, f(f(m))) }`,
		`prog p { let x: bool = 1 < 2 if x { out(1) } else { out(0) } }`,
		"fn", "prog p {", "", `prog p { return 1 }`, `prog p { let h1 = 1 }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := compileFun(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted invalid graph: %v\n%s", verr, src)
		}
		optimize(g)
		if verr := g.Validate(); verr != nil {
			t.Fatalf("optimizer produced invalid graph: %v\n%s", verr, src)
		}
	})
}
