// Package metrics computes the static and dynamic program measures used
// by the paper's optimality results and by the experiment harness:
// occurrence counts per pattern, temporary counts, temporary lifetime
// ranges (§3.2, "tmp-optimality"), and aggregated dynamic costs over
// input ensembles.
package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
)

// Static summarizes a program's static shape.
type Static struct {
	Blocks       int
	Instrs       int
	Assignments  int
	Expressions  int // occurrences of non-trivial terms
	TempInits    int // assignments h := ε
	TempCount    int // distinct temporaries occurring
	TempLifetime int // total lifetime range length (instructions), see LifetimeRanges
}

// Measure computes the static summary of g.
func Measure(g *ir.Graph) Static {
	var s Static
	s.Blocks = len(g.Blocks)
	tempSeen := map[ir.Var]bool{}
	var terms []ir.Term
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			s.Instrs++
			if in.Kind == ir.KindAssign {
				s.Assignments++
				if g.IsTemp(in.LHS) {
					if e, ok := g.TempExpr(in.LHS); ok && e.Equal(in.RHS) {
						s.TempInits++
					}
					tempSeen[in.LHS] = true
				}
			}
			terms = in.Terms(terms[:0])
			for _, t := range terms {
				if !t.Trivial() {
					s.Expressions++
				}
			}
			for _, v := range in.Uses(nil) {
				if g.IsTemp(v) {
					tempSeen[v] = true
				}
			}
		}
	}
	s.TempCount = len(tempSeen)
	s.TempLifetime = TotalLifetime(g)
	return s
}

// TotalLifetime sums, over all temporaries, the number of instructions at
// which the temporary is "in flight": instructions lying on some path from
// an initialization h := ε to a use of h with no re-initialization in
// between (the paper's lifetime ranges, §4 footnote 4). Smaller is better;
// the final flush minimizes this among expression-optimal programs.
//
// Two solves cover every temporary at once. An instruction is in h's
// range when h is defined at its entry — some path from an instance
// reaches it (forward, any path, gen IS-INST, kill ∅) — and needed at its
// entry — some path from there reaches a use of h before an instance
// (backward, any path, gen USED, kill IS-INST). The count includes the use
// site, not the defining instance itself.
func TotalLifetime(g *ir.Graph) int {
	tx := analysis.NewTempIndex(g, nil)
	bits := len(tx.Temps)
	if bits == 0 {
		return 0
	}
	prog := analysis.NewProg(g)
	n := prog.Len()
	isInst, used, none := make([]bitvec.Vec, n), make([]bitvec.Vec, n), make([]bitvec.Vec, n)
	empty, scratch := bitvec.New(bits), bitvec.New(bits)
	for i := range prog.Ins {
		isInst[i], used[i], none[i] = bitvec.New(bits), bitvec.New(bits), empty
		tx.Locals(&prog.Ins[i], isInst[i], used[i], scratch) // BLOCKED is not needed
	}
	defined := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Forward, Meet: dataflow.Any,
		Preds: prog.Preds, Succs: prog.Succs, Gen: isInst, Kill: none,
	})
	needed := dataflow.Solve(dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Backward, Meet: dataflow.Any,
		Preds: prog.Preds, Succs: prog.Succs, Gen: used, Kill: isInst,
	})
	total := 0
	for i := 0; i < n; i++ {
		scratch.CopyAnd(defined.In[i], needed.Out[i])
		total += scratch.PopCount()
	}
	return total
}

// Dynamic aggregates interpreter counts over an ensemble of inputs.
type Dynamic struct {
	Runs            int
	ExprEvals       int
	AssignExecs     int
	TempAssignExecs int
	Steps           int
	Truncated       int
}

// Add accumulates one run.
func (d *Dynamic) Add(r interp.Result) {
	d.Runs++
	d.ExprEvals += r.Counts.ExprEvals
	d.AssignExecs += r.Counts.AssignExecs
	d.TempAssignExecs += r.Counts.TempAssignExecs
	d.Steps += r.Counts.Steps
	if r.Truncated {
		d.Truncated++
	}
}

// MeanExprEvals returns average expression evaluations per run.
func (d Dynamic) MeanExprEvals() float64 {
	if d.Runs == 0 {
		return 0
	}
	return float64(d.ExprEvals) / float64(d.Runs)
}

// MeanAssignExecs returns average assignment executions per run.
func (d Dynamic) MeanAssignExecs() float64 {
	if d.Runs == 0 {
		return 0
	}
	return float64(d.AssignExecs) / float64(d.Runs)
}

// RandomEnvs builds count random environments over the given variables,
// drawn deterministically from seed. Values are small integers so branch
// conditions exercise both arms.
func RandomEnvs(vars []ir.Var, count int, seed int64) []map[ir.Var]int64 {
	rng := rand.New(rand.NewSource(seed))
	envs := make([]map[ir.Var]int64, count)
	for i := range envs {
		env := make(map[ir.Var]int64, len(vars))
		for _, v := range vars {
			env[v] = int64(rng.Intn(21) - 10)
		}
		envs[i] = env
	}
	return envs
}

// Evaluate runs g on every environment and aggregates the counts.
func Evaluate(g *ir.Graph, envs []map[ir.Var]int64, maxSteps int) Dynamic {
	var d Dynamic
	for _, env := range envs {
		d.Add(interp.Run(g, env, maxSteps))
	}
	return d
}

// String renders the static summary as a one-line report.
func (s Static) String() string {
	return fmt.Sprintf("blocks=%d instrs=%d assigns=%d exprs=%d tempInits=%d temps=%d lifetime=%d",
		s.Blocks, s.Instrs, s.Assignments, s.Expressions, s.TempInits, s.TempCount, s.TempLifetime)
}

// Table formats rows of label→Dynamic as an aligned text table, sorted by
// mean expression evaluations. The experiment harness uses it for its
// reports.
func Table(rows map[string]Dynamic) string {
	type row struct {
		name string
		d    Dynamic
	}
	list := make([]row, 0, len(rows))
	for k, v := range rows {
		list = append(list, row{k, v})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].d.MeanExprEvals() != list[j].d.MeanExprEvals() {
			return list[i].d.MeanExprEvals() < list[j].d.MeanExprEvals()
		}
		return list[i].name < list[j].name
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s %8s\n", "pipeline", "expr/run", "assign/run", "temp/run", "trunc")
	for _, r := range list {
		fmt.Fprintf(&sb, "%-16s %12.2f %12.2f %12.2f %8d\n",
			r.name, r.d.MeanExprEvals(), r.d.MeanAssignExecs(),
			float64(r.d.TempAssignExecs)/float64(max(1, r.d.Runs)), r.d.Truncated)
	}
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
