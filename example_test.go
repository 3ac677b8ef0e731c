package assignmentmotion_test

import (
	"fmt"

	"assignmentmotion"
)

// The smallest end-to-end use: parse, optimize, run.
func ExampleOptimize() {
	g := assignmentmotion.MustParse(`
graph cse {
  entry a
  exit e
  block a {
    x := p + q
    y := p + q
    goto e
  }
  block e { out(x, y) }
}
`)
	if _, err := assignmentmotion.Optimize(g); err != nil {
		fmt.Println(err)
		return
	}
	r := assignmentmotion.Run(g, map[assignmentmotion.Var]int64{"p": 2, "q": 3}, 0)
	fmt.Println("trace:", r.Trace)
	fmt.Println("evaluations of p+q:", r.Counts.ExprEvals)
	// Output:
	// trace: [5 5]
	// evaluations of p+q: 1
}

// Individual passes compose through Apply.
func ExampleApply() {
	g := assignmentmotion.MustParse(`
graph demo {
  entry a
  exit e
  block a {
    x := p + q
    x := p + q
    goto e
  }
  block e { out(x) }
}
`)
	if err := assignmentmotion.Apply(g, assignmentmotion.PassAM); err != nil {
		panic(err)
	}
	m := assignmentmotion.Measure(g)
	fmt.Println("assignments left:", m.Assignments)
	// Output:
	// assignments left: 1
}

// ParseNested accepts full expressions and lowers them to 3-address form
// (the §6 decomposition of Figure 18).
func ExampleParseNested() {
	g, err := assignmentmotion.ParseNested(`
graph nested {
  entry a
  exit e
  block a {
    x := a0 + b0 + c0
    goto e
  }
  block e { out(x) }
}
`)
	if err != nil {
		panic(err)
	}
	fmt.Print(assignmentmotion.Format(g))
	// Output:
	// graph nested {
	//   entry a
	//   exit e
	//   block a {
	//     t1 := a0 + b0
	//     x := t1 + c0
	//     goto e
	//   }
	//   block e {
	//     out(x)
	//   }
	// }
}

// Equivalent is the randomized semantics-preservation oracle.
func ExampleEquivalent() {
	src := `
graph p {
  entry a
  exit e
  block a {
    y := u * v
    goto e
  }
  block e { out(y) }
}
`
	a := assignmentmotion.MustParse(src)
	b := a.Clone()
	if _, err := assignmentmotion.Optimize(b); err != nil {
		fmt.Println(err)
		return
	}
	rep := assignmentmotion.Equivalent(a, b, 20, 1)
	fmt.Println("equivalent:", rep.Equivalent)
	// Output:
	// equivalent: true
}
