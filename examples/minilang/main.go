// Minilang demonstrates the structured front end: write an ordinary
// imperative program (if/while/do, nested expressions), desugar it into
// the paper's flow-graph model, optimize, and measure. A prog source is a
// typed unit without functions, so CompileFun reads it.
package main

import (
	"fmt"
	"log"

	"assignmentmotion"
)

const source = `
prog checksum {
  sum := 0
  parity := 0
  i := 0
  do {
    term := (base + i) * (base + i)
    sum := sum + term % 97
    if sum % 2 == 0 {
      parity := parity + 1
    } else {
      parity := parity + base * base
    }
    i := i + 1
  } while i < 8
  out(sum, parity, base * base)
}
`

func main() {
	g, _, err := assignmentmotion.CompileFun(source)
	if err != nil {
		log.Fatal(err)
	}
	original := g.Clone()

	fmt.Println("=== desugared flow graph (3-address form) ===")
	fmt.Print(assignmentmotion.Format(g))

	if err := assignmentmotion.Apply(g, assignmentmotion.PassGlobAlg, assignmentmotion.PassTidy); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== after the uniform EM&AM algorithm (+tidy) ===")
	fmt.Print(assignmentmotion.Format(g))

	env := map[assignmentmotion.Var]int64{"base": 12}
	before := assignmentmotion.Run(original, env, 0)
	after := assignmentmotion.Run(g, env, 0)
	fmt.Printf("\ntraces identical: %v\n", fmt.Sprint(before.Trace) == fmt.Sprint(after.Trace))
	fmt.Printf("expression evaluations: %d -> %d\n", before.Counts.ExprEvals, after.Counts.ExprEvals)
	fmt.Printf("assignment executions:  %d -> %d\n", before.Counts.AssignExecs, after.Counts.AssignExecs)

	rep := assignmentmotion.Equivalent(original, g, 30, 4)
	if !rep.Equivalent {
		log.Fatalf("semantics changed: %s", rep.Detail)
	}
	fmt.Printf("verified on %d random inputs\n", rep.Runs)
}
