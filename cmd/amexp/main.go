// Command amexp regenerates the experiments recorded in EXPERIMENTS.md:
// the per-figure pipeline comparison, the phase-by-phase trace of the
// running example, the expression-optimality study on random program
// suites, the busy-vs-lazy lifetime comparison, the exact all-paths
// check on loop-free programs, and the §4.5 complexity measurements.
//
// Usage:
//
//	amexp -exp figures|corpus|running|optimality|lifetimes|paths|complexity|all
//	      [-seeds N] [-envs N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/paths"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/rae"
	"assignmentmotion/internal/verify"

	// The experiments run registered passes by name; these packages
	// register the ones not imported above.
	_ "assignmentmotion/internal/emcp"
	_ "assignmentmotion/internal/lcm"
	_ "assignmentmotion/internal/mr"
)

func main() {
	exp := flag.String("exp", "all", "experiment: figures, corpus, running, optimality, lifetimes, paths, complexity, all")
	seeds := flag.Int("seeds", 20, "random programs per suite")
	envs := flag.Int("envs", 10, "random inputs per program")
	flag.Parse()

	w := os.Stdout
	ran := false
	if *exp == "figures" || *exp == "all" {
		figuresExp(w, *envs)
		ran = true
	}
	if *exp == "corpus" || *exp == "all" {
		corpusExp(w, *envs)
		ran = true
	}
	if *exp == "running" || *exp == "all" {
		runningExp(w)
		ran = true
	}
	if *exp == "optimality" || *exp == "all" {
		optimalityExp(w, *seeds, *envs)
		ran = true
	}
	if *exp == "lifetimes" || *exp == "all" {
		lifetimesExp(w, *seeds)
		ran = true
	}
	if *exp == "paths" || *exp == "all" {
		pathsExp(w, *seeds)
		ran = true
	}
	if *exp == "complexity" || *exp == "all" {
		complexityExp(w)
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "amexp: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}

// pipelines used throughout, in report order. The paper's Theorem 5.2
// universe contains em, am, and am-restricted; em+cp and globalg+cp use
// copy propagation, which REWRITES expressions and thereby escapes that
// universe (it may beat globalg on expression counts — see EXPERIMENTS.md).
var pipelineOrder = []string{"original", "mr", "em", "em+cp", "am-restricted", "am", "globalg", "globalg+cp"}

// paperUniverse are the rivals Theorem 5.2 quantifies over.
var paperUniverse = map[string]bool{"original": true, "mr": true, "em": true, "am-restricted": true, "am": true}

// pipelines maps each pipeline to the registered passes it runs. em+cp is
// the registered emcp, which alternates em and copyprop until the program
// stops changing; globalg+cp repeats its passes the same way, at most
// eight times.
var pipelines = map[string]struct {
	passes []string
	repeat bool
}{
	"original":      {},
	"mr":            {passes: []string{"mr"}},
	"em":            {passes: []string{"em"}},
	"em+cp":         {passes: []string{"emcp"}},
	"am-restricted": {passes: []string{"am-restricted"}},
	"am":            {passes: []string{"am"}},
	"globalg":       {passes: []string{"globalg"}},
	"globalg+cp":    {passes: []string{"globalg", "copyprop"}, repeat: true},
}

func applyPipeline(name string, g *ir.Graph) {
	p, ok := pipelines[name]
	if !ok {
		panic("unknown pipeline " + name)
	}
	if !p.repeat {
		runPasses(g, p.passes...)
		return
	}
	for i := 0; i < 8; i++ {
		before := g.Encode()
		runPasses(g, p.passes...)
		if g.Encode() == before {
			return
		}
	}
}

// runPasses runs the registered passes on g in order through one
// pipeline. The experiments set no budget or deadline, so only a fixpoint
// overrun can fail, and that is a bug: it panics.
func runPasses(g *ir.Graph, names ...string) pass.Report {
	pl, err := pass.FromNames(names...)
	if err != nil {
		panic(err)
	}
	rep, err := pl.Run(g)
	if err != nil {
		panic(err)
	}
	return rep
}

// figuresExp — experiment F*: every embedded paper figure through every
// pipeline, reporting mean dynamic costs over shared random inputs.
func figuresExp(w io.Writer, nEnvs int) {
	fmt.Fprintln(w, "== Experiment F: paper figures, pipeline comparison")
	workloadExp(w, nEnvs, figures.Names(), figures.Load)
}

// corpusExp — the same comparison over the realistic hand-written kernels.
func corpusExp(w io.Writer, nEnvs int) {
	fmt.Fprintln(w, "== Experiment K: realistic corpus kernels, pipeline comparison")
	workloadExp(w, nEnvs, corpus.Names(), corpus.Load)
}

func workloadExp(w io.Writer, nEnvs int, names []string, load func(string) *ir.Graph) {
	fmt.Fprintln(w, "   (mean per-execution counts over shared random inputs; lower is better)")
	for _, name := range names {
		base := load(name)
		inputs := terminatingEnvs(base, nEnvs, 12345)
		if len(inputs) == 0 {
			fmt.Fprintf(w, "\n-- %s: no terminating inputs found, skipped\n", name)
			continue
		}
		fmt.Fprintf(w, "\n-- %s (%d terminating inputs)\n", name, len(inputs))
		fmt.Fprintf(w, "%-14s %10s %12s %12s %10s\n", "pipeline", "expr/run", "assign/run", "temp/run", "instrs")
		for _, p := range pipelineOrder {
			g := base.Clone()
			applyPipeline(p, g)
			if rep := verify.Equivalent(base, g, nEnvs, 999); !rep.Equivalent {
				fmt.Fprintf(w, "%-14s SEMANTICS VIOLATION: %s\n", p, rep.Detail)
				continue
			}
			d := metrics.Evaluate(g, inputs, 0)
			fmt.Fprintf(w, "%-14s %10.2f %12.2f %12.2f %10d\n",
				p, d.MeanExprEvals(), d.MeanAssignExecs(),
				float64(d.TempAssignExecs)/float64(d.Runs), g.InstrCount())
		}
	}
	fmt.Fprintln(w)
}

// runningExp — experiments F12/F14/F15: the running example phase by phase.
func runningExp(w io.Writer) {
	fmt.Fprintln(w, "== Experiment R: the running example, phase by phase (Figures 4, 12, 14, 15)")
	g := figures.Load("running")
	fmt.Fprintf(w, "\n-- Figure 4 (input)\n%s", printer.String(g))
	g.SplitCriticalEdges()
	core.Initialize(g)
	fmt.Fprintf(w, "\n-- Figure 12 (after initialization)\n%s", printer.String(g))
	s := analysis.NewSession()
	defer s.Close()
	st, err := am.Run(g, s)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "\n-- Figure 14 (after assignment motion; %d iterations, %d eliminated)\n%s",
		st.Iterations, st.Eliminated, printer.String(g))
	fst := flush.Run(g, s)
	fmt.Fprintf(w, "\n-- Figure 15 (after final flush; %d inits dropped, %d placed, %d reconstructed)\n%s\n",
		fst.DroppedInits, fst.InsertedInits, fst.Reconstructed, printer.String(g))
}

// optimalityExp — experiments O1/O2/S1: random suites, pipeline table,
// dominance violations.
func optimalityExp(w io.Writer, nSeeds, nEnvs int) {
	fmt.Fprintln(w, "== Experiment O: expression optimality on random program suites")
	suites := []struct {
		name string
		gen  func(int64) *ir.Graph
	}{
		{"structured", func(s int64) *ir.Graph { return cfggen.Structured(s, cfggen.Config{Size: 14}) }},
		{"unstructured", func(s int64) *ir.Graph { return cfggen.Unstructured(s, cfggen.Config{Size: 16}) }},
	}
	for _, suite := range suites {
		totals := map[string]metrics.Dynamic{}
		violations := map[string]int{}
		semantic := 0
		for seed := int64(0); seed < int64(nSeeds); seed++ {
			base := suite.gen(seed)
			inputs := terminatingEnvs(base, nEnvs, seed*7+1)
			results := map[string]metrics.Dynamic{}
			for _, p := range pipelineOrder {
				g := base.Clone()
				applyPipeline(p, g)
				if rep := verify.Equivalent(base, g, nEnvs, seed*11+5); !rep.Equivalent {
					semantic++
					continue
				}
				d := metrics.Evaluate(g, inputs, 0)
				results[p] = d
				agg := totals[p]
				agg.Runs += d.Runs
				agg.ExprEvals += d.ExprEvals
				agg.AssignExecs += d.AssignExecs
				agg.TempAssignExecs += d.TempAssignExecs
				totals[p] = agg
			}
			glob := results["globalg"]
			for p := range paperUniverse {
				if r, ok := results[p]; ok && glob.ExprEvals > r.ExprEvals {
					violations[p]++
				}
			}
		}
		fmt.Fprintf(w, "\n-- suite %s (%d programs x %d inputs)\n", suite.name, nSeeds, nEnvs)
		fmt.Fprintf(w, "%-14s %10s %12s %12s\n", "pipeline", "expr/run", "assign/run", "temp/run")
		for _, p := range pipelineOrder {
			d := totals[p]
			fmt.Fprintf(w, "%-14s %10.2f %12.2f %12.2f\n",
				p, d.MeanExprEvals(), d.MeanAssignExecs(),
				float64(d.TempAssignExecs)/float64(maxInt(1, d.Runs)))
		}
		fmt.Fprintf(w, "dominance violations within the Theorem 5.2 universe: ")
		if len(violations) == 0 {
			fmt.Fprintln(w, "none")
		} else {
			keys := make([]string, 0, len(violations))
			for k := range violations {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "%s=%d ", k, violations[k])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "semantics violations: %d\n", semantic)
	}
	fmt.Fprintln(w)
}

// lifetimesExp — the Theorem 5.4 experiment: busy (earliest, GAssMot)
// vs. lazy (after the final flush, GGlobAlg) placement of temporary
// initializations on random programs.
func lifetimesExp(w io.Writer, nSeeds int) {
	fmt.Fprintln(w, "== Experiment L: the final flush vs. busy placement (Theorem 5.4)")
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s %12s %12s %12s %12s\n",
		"seed", "busyLife", "lazyLife", "busyPress", "lazyPress",
		"busyInits", "lazyInits", "busyTemp/r", "lazyTemp/r")
	var totBusyLife, totLazyLife int
	for seed := int64(0); seed < int64(nSeeds); seed++ {
		busy := cfggen.Structured(seed, cfggen.Config{Size: 12})
		runPasses(busy, "init", "am")
		lazy := busy.Clone()
		runPasses(lazy, "flush")

		mb, ml := metrics.Measure(busy), metrics.Measure(lazy)
		inputs := terminatingEnvs(busy, 6, seed+3)
		db := metrics.Evaluate(busy, inputs, 0)
		dl := metrics.Evaluate(lazy, inputs, 0)
		fmt.Fprintf(w, "%8d %10d %10d %10d %10d %12d %12d %12.2f %12.2f\n",
			seed, mb.TempLifetime, ml.TempLifetime,
			metrics.MaxTempPressure(busy), metrics.MaxTempPressure(lazy),
			mb.TempInits, ml.TempInits,
			float64(db.TempAssignExecs)/float64(maxInt(1, db.Runs)),
			float64(dl.TempAssignExecs)/float64(maxInt(1, dl.Runs)))
		totBusyLife += mb.TempLifetime
		totLazyLife += ml.TempLifetime
	}
	fmt.Fprintf(w, "total lifetime: busy=%d lazy=%d (flush reduction %.0f%%)\n\n",
		totBusyLife, totLazyLife, 100*(1-float64(totLazyLife)/float64(maxInt(1, totBusyLife))))
}

// pathsExp — the exact, non-sampled Theorem 5.2 check: on loop-free
// random programs, enumerate EVERY s→e path (identified by its branch
// decisions) and compare the static expression counts per path.
func pathsExp(w io.Writer, nSeeds int) {
	fmt.Fprintln(w, "== Experiment P: exact all-paths expression counts on loop-free programs (Theorem 5.2)")
	fmt.Fprintf(w, "%8s %7s %12s %12s %12s %12s %12s %14s\n",
		"seed", "#paths", "orig Σexpr", "mr Σexpr", "em Σexpr", "am Σexpr", "glob Σexpr", "dominatesAll?")
	names := []string{"original", "mr", "em", "am", "globalg"}
	for seed := int64(0); seed < int64(nSeeds); seed++ {
		base := cfggen.Structured(seed, cfggen.Config{Size: 9, NoLoops: true})
		decs := paths.Enumerate(base, 4096)
		totals := map[string]int{}
		variants := map[string]*ir.Graph{}
		for _, p := range names {
			g := base.Clone()
			applyPipeline(p, g)
			variants[p] = g
			for _, d := range decs {
				c, ok := paths.Walk(g, d, 0)
				if !ok {
					fmt.Fprintf(w, "seed %d: walk bound hit for %s\n", seed, p)
					return
				}
				totals[p] += c.Expressions
			}
		}
		ok, _ := paths.DominatesOnAllPaths(variants["globalg"], variants["original"], 4096)
		for _, p := range names[:4] {
			if ok2, _ := paths.DominatesOnAllPaths(variants["globalg"], variants[p], 4096); !ok2 {
				ok = false
			}
		}
		fmt.Fprintf(w, "%8d %7d %12d %12d %12d %12d %12d %14v\n",
			seed, len(decs), totals["original"], totals["mr"], totals["em"],
			totals["am"], totals["globalg"], ok)
	}
	fmt.Fprintln(w)
}

// complexityExp — experiments C1/C2: iteration counts and wall time
// against program size, plus the adversarial redundant chain.
func complexityExp(w io.Writer) {
	fmt.Fprintln(w, "== Experiment C: §4.5 complexity behaviour")

	fmt.Fprintln(w, "\n-- C1a: random structured programs (iterations stay flat => 'linear for realistic programs')")
	fmt.Fprintf(w, "%8s %8s %8s %12s %12s\n", "size", "instrs", "blocks", "AMiters", "time")
	for _, size := range []int{5, 10, 20, 40, 80, 160} {
		iters, instrs, blocks, dur := sweepPoint(func(seed int64) *ir.Graph {
			return cfggen.Structured(seed, cfggen.Config{Size: size})
		}, 5)
		fmt.Fprintf(w, "%8d %8.0f %8.0f %12.1f %12v\n", size, instrs, blocks, iters, dur)
	}

	fmt.Fprintln(w, "\n-- C1b: random unstructured programs")
	fmt.Fprintf(w, "%8s %8s %8s %12s %12s\n", "size", "instrs", "blocks", "AMiters", "time")
	for _, size := range []int{5, 10, 20, 40, 80, 160} {
		iters, instrs, blocks, dur := sweepPoint(func(seed int64) *ir.Graph {
			return cfggen.Unstructured(seed, cfggen.Config{Size: size})
		}, 5)
		fmt.Fprintf(w, "%8d %8.0f %8.0f %12.1f %12v\n", size, instrs, blocks, iters, dur)
	}

	fmt.Fprintln(w, "\n-- C1c: adversarial redundant chain (iterations grow ~linearly with k => quadratic worst case)")
	fmt.Fprintf(w, "%8s %8s %12s %12s %12s\n", "k", "instrs", "AMiters", "eliminated", "time")
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		g := cfggen.RedundantChain(k)
		instrs := g.InstrCount()
		start := time.Now()
		st := runPasses(g, "am").Events[0].Stats
		dur := time.Since(start)
		fmt.Fprintf(w, "%8d %8d %12d %12d %12v\n", k, instrs, st.Iterations, st.Changes, dur.Round(time.Microsecond))
	}

	fmt.Fprintln(w, "\n-- C2: single-pass costs on structured programs (near-linear flush)")
	fmt.Fprintf(w, "%8s %8s %14s %14s %14s\n", "size", "instrs", "globalg", "am-only", "rae-once")
	for _, size := range []int{10, 20, 40, 80, 160} {
		g0 := cfggen.Structured(1, cfggen.Config{Size: size})
		instrs := g0.InstrCount()
		tGlob := timeIt(func() { runPasses(g0.Clone(), "globalg") })
		tAM := timeIt(func() { runPasses(g0.Clone(), "am") })
		tRae := timeIt(func() {
			g := g0.Clone()
			g.SplitCriticalEdges()
			s := analysis.NewSession()
			defer s.Close()
			rae.Eliminate(g, s)
		})
		fmt.Fprintf(w, "%8d %8d %14v %14v %14v\n", size, instrs, tGlob, tAM, tRae)
	}
	fmt.Fprintln(w)
}

// terminatingEnvs draws random environments and keeps those on which the
// base program terminates within the default step budget. Comparing
// per-run costs on truncated executions would be biased: under a fixed
// step cap a leaner program completes MORE iterations, inflating its
// apparent cost (see EXPERIMENTS.md, "Methodology").
func terminatingEnvs(base *ir.Graph, n int, seed int64) []map[ir.Var]int64 {
	candidates := metrics.RandomEnvs(base.SourceVars(), 4*n, seed)
	var out []map[ir.Var]int64
	for _, env := range candidates {
		if len(out) == n {
			break
		}
		if !interp.Run(base, env, 0).Truncated {
			out = append(out, env)
		}
	}
	return out
}

func sweepPoint(gen func(int64) *ir.Graph, n int) (iters, instrs, blocks float64, dur time.Duration) {
	start := time.Now()
	for seed := int64(0); seed < int64(n); seed++ {
		g := gen(seed)
		instrs += float64(g.InstrCount())
		blocks += float64(len(g.Blocks))
		iters += float64(runPasses(g, "am").Events[0].Stats.Iterations)
	}
	return iters / float64(n), instrs / float64(n), blocks / float64(n),
		(time.Since(start) / time.Duration(n)).Round(time.Microsecond)
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start).Round(time.Microsecond)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
