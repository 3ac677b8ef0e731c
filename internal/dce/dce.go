// Package dce implements dead assignment elimination based on strong
// liveness (faint-code elimination): a variable is strongly live only if
// it is eventually used by an observable instruction (out, branch
// condition) or contributes to a strongly live variable. Unlike plain
// liveness, this removes self-sustaining dead loops such as s := s+i whose
// only "use" feeds the dead variable itself.
//
// The paper deliberately excludes dead-code elimination from assignment
// motion: eliminating a "dead" assignment is not semantics-preserving in
// general, because evaluating its right-hand side may cause a run-time
// error (§3, footnote 3). In this reproduction the interpreter's semantics
// are total (division by zero yields 0), so dce is observationally safe
// here; it is still kept out of every paper pipeline and offered only as
// an opt-in comparison pass, matching the paper's treatment of [11, 17].
package dce

import (
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "dce",
		Description: "dead assignment elimination by strong liveness (faint code), iterated to a fixpoint",
		Ref:         "§3 footnote 3; cf. [11, 17]",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			removed, rounds, err := Run(g, s)
			return pass.Stats{Changes: removed, Iterations: rounds}, err
		},
	})
}

// Run removes assignments whose targets are not strongly live at the
// assignment's exit and returns the number of removed instructions and of
// analysis+removal rounds. It iterates to a fixpoint (removal can expose
// further dead code, although strong liveness already handles most
// cascades in one pass). The liveness vectors come from session s's arena
// and solver work is tallied into the session for per-pass reporting.
// Each round first checks the session's budget and context; on such a
// failure the graph is the valid result of the last completed round.
func Run(g *ir.Graph, s *analysis.Session) (removed, rounds int, err error) {
	for {
		if err := s.CheckBudget(0); err != nil {
			return removed, rounds, err
		}
		rounds++
		n := runOnce(g, s)
		removed += n
		if n == 0 {
			return removed, rounds, nil
		}
	}
}

func runOnce(g *ir.Graph, s *analysis.Session) int {
	prog := analysis.NewProg(g)
	vars := g.Vars()
	index := make(map[ir.Var]int, len(vars))
	for i, v := range vars {
		index[v] = i
	}
	bits := len(vars)
	if bits == 0 {
		return 0
	}
	n := prog.Len()

	ar := s.Arena()
	mark := ar.Mark()
	defer ar.Release(mark)

	// Observable uses (out, cond) unconditionally generate liveness;
	// an assignment w := t generates liveness of t's variables only when
	// w itself is strongly live after it. That condition makes strong
	// liveness non-separable: defining instructions are NOT pure gen/kill
	// (their gen depends on the incoming fact), so they are marked
	// Irregular and keep the closure transfer, while every other
	// instruction runs on the dense kernel with Gen = obsUse and an empty
	// Kill.
	obsUse := ar.Vecs(n)
	kill := ar.Vecs(n)
	emptyKill := ar.Vec(bits)
	irregular := ar.Vec(n)
	for i := 0; i < n; i++ {
		obsUse[i] = ar.Vec(bits)
		kill[i] = emptyKill
		in := prog.Ins[i]
		if in.Kind == ir.KindOut || in.Kind == ir.KindCond {
			for _, v := range in.Uses(nil) {
				obsUse[i].Set(index[v])
			}
		}
		if _, ok := in.Defs(); ok {
			irregular.Set(i)
		}
	}

	res := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Backward, Meet: dataflow.Any,
		Preds: prog.Preds, Succs: prog.Succs,
		Arena:     ar,
		Stats:     s.DataflowStats(),
		Gen:       obsUse,
		Kill:      kill,
		Irregular: irregular,
		// Backward: solver "in" is strong liveness at the instruction
		// exit, "out" at its entry. Consulted only at Irregular
		// (defining) instructions.
		Transfer: func(i int, in, out bitvec.Vec) {
			out.CopyFrom(in)
			ins := prog.Ins[i]
			if v, ok := ins.Defs(); ok {
				liveAfter := in.Get(index[v])
				out.Clear(index[v])
				if liveAfter {
					for _, u := range ins.RHS.Vars(nil) {
						out.Set(index[u])
					}
				}
			}
			out.Or(obsUse[i])
		},
	})

	removed := 0
	idx := 0
	for _, b := range g.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			dead := false
			if v, ok := in.Defs(); ok {
				// res.In[idx] is strong liveness at the instruction exit.
				if !res.In[idx].Get(index[v]) {
					dead = true
				}
			}
			if dead {
				removed++
			} else {
				kept = append(kept, in)
			}
			idx++
		}
		b.Instrs = kept
	}
	g.Normalize()
	return removed
}
