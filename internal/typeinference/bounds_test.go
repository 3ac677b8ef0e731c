package typeinference

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// callTree is a unit whose calls double per level: f<i> calls f<i-1>
// twice, so inlining f<levels> takes 2^(levels+1) - 1 calls.
func callTree(levels int) string {
	var b strings.Builder
	b.WriteString("fn f0(x: int): int { return x + 1 }\n")
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "fn f%d(x: int): int { return f%d(x) + f%d(x) }\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "prog p { out(f%d(a)) }\n", levels)
	return b.String()
}

// callChain is a unit of n functions, each of which nests its call of the
// next one depth parentheses deep: "return x + (x + (… f<i+1>(x) …))".
func callChain(n, depth int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "fn f%d(x: int): int { return %s", i, strings.Repeat("x + (", depth))
		if i+1 < n {
			fmt.Fprintf(&b, "f%d(x)", i+1)
		} else {
			b.WriteString("x")
		}
		b.WriteString(strings.Repeat(")", depth) + " }\n")
	}
	b.WriteString("prog p { out(f0(a)) }\n")
	return b.String()
}

// TestCompileInlineBudget: a call tree past the inline budget
// (13 levels, 16,383 calls) is refused with the budget's error, after
// inlining no more than the budget.
func TestCompileInlineBudget(t *testing.T) {
	if _, _, err := Compile(callTree(12)); err != nil { // 8,191 calls
		t.Fatalf("12 levels: %v", err)
	}
	start := time.Now()
	_, _, err := Compile(callTree(13))
	if err == nil || !strings.Contains(err.Error(), "inline budget exceeded (more than 10000 calls after inlining)") {
		t.Fatalf("13 levels: error %v, want the inline budget's", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("refusing took %v", d)
	}
}

// TestCompileLoweringDepth: functions that each nest under the parser's
// cap add up, once inlined into each other, to a depth past the
// lowering's bound, which Compile refuses instead of overflowing the
// stack.
func TestCompileLoweringDepth(t *testing.T) {
	if _, _, err := Compile(callChain(2, 900)); err != nil {
		t.Fatalf("two functions: %v", err)
	}
	_, _, err := Compile(callChain(12, 900))
	if err == nil || !strings.Contains(err.Error(), "nesting deeper than 10000 levels after inlining") {
		t.Fatalf("twelve functions: error %v, want the lowering's depth bound", err)
	}
}
