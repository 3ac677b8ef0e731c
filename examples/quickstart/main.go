// Quickstart: parse a flow-graph program, run the paper's global
// algorithm, and observe the effect — fewer expression evaluations at
// run time with unchanged observable behaviour.
package main

import (
	"fmt"
	"log"

	"assignmentmotion"
)

const program = `
# A small program with a partially redundant expression (a+b is computed
# twice on the left path) and a loop-invariant assignment.
graph quickstart {
  entry start
  exit join
  block start {
    s := a + b
    if s > 10 then big else small
  }
  block big {
    t := a + b
    k := 0
    goto loop
  }
  block loop {
    u := a + b
    k := k + 1
    if k < 3 then loop else join
  }
  block small {
    t := 0
    u := 0
    goto join
  }
  block join { out(s, t, u, k) }
}
`

func main() {
	g, err := assignmentmotion.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	original := g.Clone()

	env := map[assignmentmotion.Var]int64{"a": 7, "b": 5}
	before := assignmentmotion.Run(original, env, 0)

	res, err := assignmentmotion.Optimize(g)
	if err != nil {
		log.Fatal(err)
	}
	after := assignmentmotion.Run(g, env, 0)

	fmt.Println("=== optimized program ===")
	fmt.Print(assignmentmotion.Format(g))
	fmt.Printf("\nphases: %d sites decomposed, %d AM iterations, %d assignments eliminated,\n",
		res.Decomposed, res.AM.Iterations, res.AM.Eliminated)
	fmt.Printf("        %d temp inits dropped, %d placed lazily, %d reconstructed\n\n",
		res.Flush.DroppedInits, res.Flush.InsertedInits, res.Flush.Reconstructed)

	fmt.Printf("trace before: %v\n", before.Trace)
	fmt.Printf("trace after:  %v   (identical: %v)\n", after.Trace, fmt.Sprint(before.Trace) == fmt.Sprint(after.Trace))
	fmt.Printf("expression evaluations: %d -> %d\n", before.Counts.ExprEvals, after.Counts.ExprEvals)
	fmt.Printf("assignment executions:  %d -> %d\n", before.Counts.AssignExecs, after.Counts.AssignExecs)

	rep := assignmentmotion.Equivalent(original, g, 25, 1)
	if !rep.Equivalent {
		log.Fatalf("semantics changed: %s", rep.Detail)
	}
	fmt.Printf("verified on %d random inputs: equivalent\n", rep.Runs)
}
