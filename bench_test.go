package assignmentmotion

// The benchmark harness: one benchmark per experiment row in
// EXPERIMENTS.md. Figures are benchmarked through the full global
// algorithm; the scaling benchmarks regenerate the §4.5 complexity
// measurements (near-linear behaviour of single analyses, flat iteration
// counts on random programs, linear iteration growth on the adversarial
// chain); the phase benchmarks separate initialization, assignment
// motion, and the final flush.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/gvn"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/lcm"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/mr"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/pde"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/rae"
)

// BenchmarkFigure runs the global algorithm on every embedded paper
// figure (rows F1–F20 of the experiment index).
func BenchmarkFigure(b *testing.B) {
	for _, name := range figures.Names() {
		base := figures.Load(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Optimize(base.Clone())
			}
		})
	}
}

// BenchmarkPipeline compares the pipelines of the Experiment O table on
// the running example.
func BenchmarkPipeline(b *testing.B) {
	base := figures.Load("running")
	pipelines := map[string]func(*ir.Graph){
		"em":            func(g *ir.Graph) { lcm.Run(g) },
		"am":            func(g *ir.Graph) { am.Run(g) },
		"am-restricted": func(g *ir.Graph) { am.RunRestricted(g) },
		"globalg":       func(g *ir.Graph) { core.Optimize(g) },
	}
	for _, name := range []string{"em", "am", "am-restricted", "globalg"} {
		run := pipelines[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(base.Clone())
			}
		})
	}
}

// BenchmarkScalingStructured is experiment C1a: the global algorithm on
// random structured programs of growing size.
func BenchmarkScalingStructured(b *testing.B) {
	for _, size := range []int{10, 20, 40, 80} {
		base := cfggen.Structured(1, cfggen.Config{Size: size})
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for i := 0; i < b.N; i++ {
				g := base.Clone()
				res := core.Optimize(g)
				iters = res.AM.Iterations
			}
			b.ReportMetric(float64(base.InstrCount()), "instrs")
			b.ReportMetric(float64(iters), "AMiters")
		})
	}
}

// BenchmarkScalingUnstructured is experiment C1b.
func BenchmarkScalingUnstructured(b *testing.B) {
	for _, size := range []int{10, 20, 40, 80} {
		base := cfggen.Unstructured(1, cfggen.Config{Size: size})
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for i := 0; i < b.N; i++ {
				g := base.Clone()
				res := core.Optimize(g)
				iters = res.AM.Iterations
			}
			b.ReportMetric(float64(base.InstrCount()), "instrs")
			b.ReportMetric(float64(iters), "AMiters")
		})
	}
}

// BenchmarkAdversarialChain is experiment C1c: the redundant chain that
// forces Θ(k) assignment motion iterations (the §4.5 worst case).
func BenchmarkAdversarialChain(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		base := cfggen.RedundantChain(k)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for i := 0; i < b.N; i++ {
				st := am.Run(base.Clone())
				iters = st.Iterations
			}
			b.ReportMetric(float64(iters), "AMiters")
		})
	}
}

// BenchmarkPhases is experiment C2: the three phases of the global
// algorithm, measured separately through the session path the engine
// runs — each phase is its registered pass's RunWith against a fresh
// analysis.Session, on the output of the phases before it. The 200-block
// programs are the size class that sets the service's cold tail; the
// 1000-block one shows how the phases scale past it.
func BenchmarkPhases(b *testing.B) {
	programs := []struct {
		name string
		g    *ir.Graph
	}{
		{"structured40", cfggen.Structured(2, cfggen.Config{Size: 40})},
		{"structured200", cfggen.Structured(2, cfggen.Config{Size: 200})},
		{"unstructured200", cfggen.Unstructured(2, cfggen.Config{Size: 200})},
		{"structured1000", cfggen.Structured(2, cfggen.Config{Size: 1000})},
	}
	run := func(p pass.Pass, g *ir.Graph) {
		s := analysis.NewSession()
		defer s.Close()
		if _, err := p.RunWith(g, s); err != nil {
			b.Fatal(err)
		}
	}
	for _, prog := range programs {
		in := prog.g
		for _, name := range []string{"init", "am", "flush"} {
			p, ok := pass.Lookup(name)
			if !ok {
				b.Fatalf("pass %s not registered", name)
			}
			b.Run(prog.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := in.Clone()
					b.StartTimer()
					run(p, g)
				}
			})
			next := in.Clone()
			run(p, next)
			in = next
		}
	}
}

// BenchmarkAnalyses measures the individual bit-vector analyses
// (Tables 1–3) without their transformations.
func BenchmarkAnalyses(b *testing.B) {
	base := cfggen.Structured(3, cfggen.Config{Size: 40})
	base.SplitCriticalEdges()
	core.Initialize(base)

	b.Run("rae", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rae.Analyze(base)
		}
	})
	b.Run("aht", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aht.Analyze(base)
		}
	})
	b.Run("flush", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flush.Analyze(base)
		}
	})
}

// BenchmarkInterp measures interpreter throughput (the dynamic cost
// oracle behind every optimality experiment).
func BenchmarkInterp(b *testing.B) {
	g := cfggen.Structured(4, cfggen.Config{Size: 30})
	envs := metrics.RandomEnvs(g.SourceVars(), 8, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		interp.Run(g, envs[i%len(envs)], 0)
	}
}

// BenchmarkParsePrint measures the textual front end round trip.
func BenchmarkParsePrint(b *testing.B) {
	src := figures.Source("running")
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parse.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	g := parse.MustParse(src)
	b.Run("print", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			printer.String(g)
		}
	})
}

// BenchmarkRAEGranularity is the ablation for Table 2's footnote:
// instruction-level vs block-level redundancy elimination produce
// identical programs; the solvers differ in node count.
func BenchmarkRAEGranularity(b *testing.B) {
	base := cfggen.Structured(5, cfggen.Config{Size: 60})
	base.SplitCriticalEdges()
	core.Initialize(base)
	b.Run("instruction-level", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rae.Eliminate(base.Clone())
		}
	})
	b.Run("block-level", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rae.EliminateBlocks(base.Clone())
		}
	})
}

// BenchmarkBaselines measures the additional baselines on the running
// example: Morel/Renvoise PRE and partial dead code elimination.
func BenchmarkBaselines(b *testing.B) {
	base := figures.Load("running")
	b.Run("mr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mr.Run(base.Clone())
		}
	})
	b.Run("pde", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pde.Run(base.Clone())
		}
	})
}

// BenchmarkTidy measures the output cleanup pass on an optimized medium
// program full of synthetic nodes.
func BenchmarkTidy(b *testing.B) {
	base := cfggen.Structured(6, cfggen.Config{Size: 40})
	core.Optimize(base)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base.Clone().Tidy()
	}
}

// benchBatch builds the 100-graph workload of the batch-engine rows
// (BENCH_engine.json): distinct random structured programs.
func benchBatch() []*ir.Graph {
	graphs := make([]*ir.Graph, 100)
	for i := range graphs {
		graphs[i] = cfggen.Structured(int64(i), cfggen.Config{Size: 12})
	}
	return graphs
}

// BenchmarkBatchSerialVsParallel is experiment E1: the batch engine over
// a 100-graph batch with one worker vs one worker per core, caching
// disabled so both rows measure pure optimization throughput. On a
// multi-core host the parallel row must beat serial by roughly the core
// count (the jobs are independent); on a single-core host the rows tie.
func BenchmarkBatchSerialVsParallel(b *testing.B) {
	graphs := benchBatch()
	ctx := context.Background()
	for _, row := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep := engine.OptimizeBatch(ctx, graphs, engine.Options{
					Parallelism: row.workers,
					CacheSize:   -1,
				})
				if rep.Failed != 0 {
					b.Fatalf("failures: %+v", rep)
				}
			}
			b.ReportMetric(float64(len(graphs)), "graphs")
		})
	}
}

// BenchmarkBatchColdVsWarmCache is experiment E2: the same 100-graph
// batch against a cold cache (every graph optimized) and against a
// pre-warmed engine (every graph a content-addressed cache hit). Warm
// runs must be far faster than cold ones.
func BenchmarkBatchColdVsWarmCache(b *testing.B) {
	graphs := benchBatch()
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := engine.New(engine.Options{Parallelism: workers})
			rep := e.OptimizeBatch(ctx, graphs)
			if rep.Failed != 0 || rep.CacheHits != 0 {
				b.Fatalf("cold run: %+v", rep)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		e := engine.New(engine.Options{Parallelism: workers})
		if rep := e.OptimizeBatch(ctx, graphs); rep.Failed != 0 {
			b.Fatalf("warm-up: %+v", rep)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := e.OptimizeBatch(ctx, graphs)
			if rep.Failed != 0 || rep.CacheHits != len(graphs) {
				b.Fatalf("warm run: %+v", rep)
			}
		}
	})
}

// BenchmarkFingerprint measures the content-address hash that keys the
// engine's result cache.
func BenchmarkFingerprint(b *testing.B) {
	g := cfggen.Structured(1, cfggen.Config{Size: 40})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Fingerprint()
	}
}

// solverProblem builds the block-level availability problem (the shape of
// rae's solve) over g with synthetic gen/kill vectors, for the solver
// micro-benchmarks. With dense set the problem carries the vectors in the
// Gen/Kill fields (the fused word-parallel kernel path); otherwise it
// applies them through a Transfer closure (the legacy dispatch path).
func solverProblem(g *ir.Graph, bits int, dense bool) dataflow.Problem {
	n := len(g.Blocks)
	preds := make([][]int, n)
	succs := make([][]int, n)
	for i, b := range g.Blocks {
		for _, p := range b.Preds {
			preds[i] = append(preds[i], int(p))
		}
		for _, s := range b.Succs {
			succs[i] = append(succs[i], int(s))
		}
	}
	gen := make([]bitvec.Vec, n)
	kill := make([]bitvec.Vec, n)
	for i := 0; i < n; i++ {
		gen[i] = bitvec.New(bits)
		kill[i] = bitvec.New(bits)
		gen[i].Set(i % bits)
		kill[i].Set((i * 7) % bits)
	}
	entry := int(g.Entry)
	p := dataflow.Problem{
		N: n, Bits: bits, Dir: dataflow.Forward, Meet: dataflow.All,
		Preds: func(i int) []int { return preds[i] },
		Succs: func(i int) []int { return succs[i] },
		Boundary: func(i int, in bitvec.Vec) {
			if i == entry {
				in.ClearAll()
			}
		},
	}
	if dense {
		p.Gen, p.Kill = gen, kill
	} else {
		p.Transfer = func(i int, in, out bitvec.Vec) {
			out.CopyFrom(in)
			out.AndNot(kill[i])
			out.Or(gen[i])
		}
	}
	return p
}

// BenchmarkSolverOrder is experiment D1: the same availability problem
// solved with the legacy FIFO worklist, with the RPO priority worklist,
// and with the RPO worklist reading dense Gen/Kill vectors through the
// fused word kernel instead of a Transfer closure. The reported
// visits/sweeps metrics show why RPO wins (long acyclic stretches
// propagate in one pass); the genkill row shows what the kernel saves per
// visit: no scratch clear/compare, one fused pass over the words with the
// change bit folded in. The vector width is each graph's real
// assignment-pattern universe (what the motion analyses would solve at),
// and the priority modes share one precomputed visit order exactly as
// production solves do through analysis.Session — a fixpoint round runs
// dozens of solves per order computation, so folding the order build into
// every solve would measure graph traversal, not solving.
func BenchmarkSolverOrder(b *testing.B) {
	for _, row := range []struct {
		name string
		g    *ir.Graph
	}{
		{"chain64", cfggen.RedundantChain(64)},
		{"structured80", cfggen.Structured(1, cfggen.Config{Size: 80})},
		{"unstructured80", cfggen.Unstructured(1, cfggen.Config{Size: 80})},
	} {
		for _, mode := range []string{"fifo", "rpo", "genkill"} {
			p := solverProblem(row.g, ir.AssignUniverse(row.g).Len(), mode == "genkill")
			p.FIFO = mode == "fifo"
			if !p.FIFO {
				var roots []int
				for i := 0; i < p.N; i++ {
					if len(p.Preds(i)) == 0 {
						roots = append(roots, i)
					}
				}
				p.Order = dataflow.FlowOrder(p.N, roots, p.Succs)
			}
			b.Run(row.name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				var res dataflow.Result
				for i := 0; i < b.N; i++ {
					res = dataflow.Solve(p)
				}
				b.ReportMetric(float64(res.Visits), "visits")
				b.ReportMetric(float64(res.Sweeps), "sweeps")
			})
		}
	}
}

// BenchmarkSolverParallel is experiment D3: one availability solve over a
// single large graph, serial vs fanned out over the SCC condensation to
// one worker per core. Two workloads: the original cfggen.Structured size
// 1000 (~2.7k blocks at its real ~2.9k-pattern universe width, ~2 MB of
// live fact vectors) and a 10k-block variant (size 3800: 10,249 blocks,
// ~6.7k-pattern universe, ~35 MB of fact vectors) that stresses the
// per-component scheduling at an order of magnitude more state. On a
// multi-core host the parallel rows must win on the acyclic spine
// (independent components solve concurrently); on a single-core host the
// rows tie and the CI bench-record job supplies the real numbers. Work
// counters stay deterministic either way.
func BenchmarkSolverParallel(b *testing.B) {
	small := cfggen.Structured(11, cfggen.Config{Size: 1000})
	big := cfggen.Structured(11, cfggen.Config{Size: 3800})
	for _, row := range []struct {
		name    string
		g       *ir.Graph
		workers int
	}{
		{"serial", small, 1},
		{fmt.Sprintf("parallel%d", runtime.GOMAXPROCS(0)), small, runtime.GOMAXPROCS(0)},
		{"10k_serial", big, 1},
		{fmt.Sprintf("10k_parallel%d", runtime.GOMAXPROCS(0)), big, runtime.GOMAXPROCS(0)},
	} {
		g := row.g
		p := solverProblem(g, ir.AssignUniverse(g).Len(), true)
		p.Workers = row.workers
		var roots []int
		for i := 0; i < p.N; i++ {
			if len(p.Preds(i)) == 0 {
				roots = append(roots, i)
			}
		}
		p.Order = dataflow.FlowOrder(p.N, roots, p.Succs)
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			var res dataflow.Result
			for i := 0; i < b.N; i++ {
				res = dataflow.Solve(p)
			}
			b.ReportMetric(float64(len(g.Blocks)), "blocks")
			b.ReportMetric(float64(res.Visits), "visits")
			b.ReportMetric(float64(res.Sweeps), "sweeps")
		})
	}
}

// BenchmarkSolverArena is experiment D2: the same solve with fresh heap
// vectors per run vs carved out of one reused arena — the allocation story
// behind the warm assignment-motion fixpoint.
func BenchmarkSolverArena(b *testing.B) {
	g := cfggen.Structured(1, cfggen.Config{Size: 80})
	p := solverProblem(g, ir.AssignUniverse(g).Len(), false)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dataflow.Solve(p)
		}
	})
	b.Run("arena", func(b *testing.B) {
		ar := arena.Get()
		defer arena.Put(ar)
		p := p
		p.Arena = ar
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := ar.Mark()
			dataflow.Solve(p)
			ar.Release(m)
		}
	})
}

// BenchmarkMiniLang measures the structured front end end-to-end.
func BenchmarkMiniLang(b *testing.B) {
	src := `
prog checksum {
  sum := 0
  i := 0
  do {
    term := (base + i) * (base + i)
    sum := sum + term % 97
    i := i + 1
  } while i < 8
  out(sum)
}
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := parse.ParseProgram(src)
		if err != nil {
			b.Fatal(err)
		}
		core.Optimize(g)
	}
}

// BenchmarkApplyPasses measures the facade pass-composition path (Apply
// and the §6 EM/CP interleaving) on a batch of random structured graphs —
// the session-sharing benchmark behind the Apply/RunEMCP rows of
// BENCH_engine.json.
func BenchmarkApplyPasses(b *testing.B) {
	graphs := make([]*Graph, 40)
	for i := range graphs {
		graphs[i] = RandomStructured(int64(i), GenConfig{Size: 12})
	}
	b.Run("init,am,flush", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				if err := Apply(g.Clone(), PassInit, PassAM, PassFlush); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("emcp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				RunEMCP(g.Clone())
			}
		}
	})
}

// BenchmarkAMRestricted measures the Dhamdhere-style restricted AM
// baseline end to end. Its admission test ("is hoisting pattern α
// immediately profitable?") is the allocation hot spot this row tracks:
// the per-pattern trial-clone implementation cloned the whole graph once
// per pattern per fixpoint iteration; the batched implementation runs one
// trial per iteration and reads all patterns' occurrence counts off it.
// Rows are recorded in BENCH_engine.json ("amRestricted").
func BenchmarkAMRestricted(b *testing.B) {
	rows := []struct {
		name string
		g    *ir.Graph
	}{
		{"quantize", corpus.Load("quantize")},
		{"structured20", cfggen.Structured(2, cfggen.Config{Size: 20})},
		{"structured40", cfggen.Structured(3, cfggen.Config{Size: 40})},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for i := 0; i < b.N; i++ {
				st := am.RunRestricted(row.g.Clone())
				iters = st.Iterations
			}
			b.ReportMetric(float64(iters), "AMiters")
		})
	}
}

// BenchmarkGVNUniverse measures the second-order effect the gvn-emcp
// composite exists for: running value numbering BEFORE initialization
// collapses equivalent recomputations into copies, which shrinks the
// expression-pattern universe the AM bit-vector analyses range over and
// with it the motion fixpoint's work. The patterns metric is the universe
// size after decomposition; AMiters is the motion fixpoint's iteration
// count. Rows are recorded in BENCH_dataflow.json.
func BenchmarkGVNUniverse(b *testing.B) {
	bases := []struct {
		name string
		g    *ir.Graph
	}{
		{"exprchain", corpus.Load("exprchain")},
		{"quantize", corpus.Load("quantize")},
		{"structured40", cfggen.Structured(3, cfggen.Config{Size: 40})},
	}
	for _, base := range bases {
		for _, mode := range []string{"without", "gvn-first"} {
			mode := mode
			b.Run(base.name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				var patterns, iters int
				for i := 0; i < b.N; i++ {
					g := base.g.Clone()
					if mode == "gvn-first" {
						gvn.Run(g)
					}
					g.SplitCriticalEdges()
					core.Initialize(g)
					patterns = ir.AssignUniverse(g).Len()
					st := am.Run(g)
					iters = st.Iterations
					flush.Run(g)
				}
				b.ReportMetric(float64(patterns), "patterns")
				b.ReportMetric(float64(iters), "AMiters")
			})
		}
	}
}
