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
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/rae"
	"assignmentmotion/internal/typeinference"
)

// runPass runs the registered pass name on g under a fresh session: the
// pass alone, without the pipeline around it.
func runPass(tb testing.TB, name string, g *ir.Graph) pass.Stats {
	p, ok := pass.Lookup(name)
	if !ok {
		tb.Fatalf("pass %s not registered", name)
	}
	s := analysis.NewSession()
	defer s.Close()
	st, err := p.RunWith(g, s)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkFigure runs the global algorithm on every embedded paper
// figure (rows F1–F20 of the experiment index).
func BenchmarkFigure(b *testing.B) {
	for _, name := range figures.Names() {
		base := figures.Load(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runPass(b, "globalg", base.Clone())
			}
		})
	}
}

// BenchmarkPipeline compares the pipelines of the Experiment O table on
// the running example.
func BenchmarkPipeline(b *testing.B) {
	base := figures.Load("running")
	for _, name := range []string{"em", "am", "am-restricted", "globalg"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runPass(b, name, base.Clone())
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
				iters = runPass(b, "globalg", base.Clone()).Iterations
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
				iters = runPass(b, "globalg", base.Clone()).Iterations
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
				iters = runPass(b, "am", base.Clone()).Iterations
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
	for _, prog := range programs {
		in := prog.g
		for _, name := range []string{"init", "am", "flush"} {
			b.Run(prog.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := in.Clone()
					b.StartTimer()
					runPass(b, name, g)
				}
			})
			next := in.Clone()
			runPass(b, name, next)
			in = next
		}
	}
}

// BenchmarkAnalyses measures the individual bit-vector analyses
// (Tables 1–3) without their transformations, each on one session whose
// arena is rewound after every run.
func BenchmarkAnalyses(b *testing.B) {
	base := cfggen.Structured(3, cfggen.Config{Size: 40})
	base.SplitCriticalEdges()
	core.Initialize(base)

	for _, a := range []struct {
		name    string
		analyze func(*ir.Graph, *analysis.Session)
	}{
		{"rae", func(g *ir.Graph, s *analysis.Session) { rae.Analyze(g, s) }},
		{"aht", func(g *ir.Graph, s *analysis.Session) { aht.Analyze(g, s) }},
		{"flush", func(g *ir.Graph, s *analysis.Session) { flush.Analyze(g, s) }},
	} {
		b.Run(a.name, func(b *testing.B) {
			s := analysis.NewSession()
			defer s.Close()
			ar := s.Arena()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := ar.Mark()
				a.analyze(base, s)
				ar.Release(m)
			}
		})
	}
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

// parsePool is a pool shaped like the warm-mix benchmark workload's
// programs: the fg corpus, then printed cfggen programs of 12, 40 and 200
// blocks at 6:3:1, Structured and Unstructured alternating, up to 256.
func parsePool() []string {
	var pool []string
	for _, n := range corpus.Names() {
		pool = append(pool, corpus.Source(n))
	}
	sizes := [10]int{12, 40, 12, 12, 200, 12, 40, 12, 40, 12}
	for i := 0; len(pool) < 256; i++ {
		cfg := cfggen.Config{Size: sizes[i%len(sizes)]}
		g := cfggen.Structured(int64(i+1), cfg)
		if (i+i/len(sizes))%2 != 0 {
			g = cfggen.Unstructured(int64(i+1), cfg)
		}
		// Unstructured graphs name their end blocks with keywords.
		for _, b := range g.Blocks {
			if b.Name == "entry" || b.Name == "exit" {
				b.Name = "u_" + b.Name
			}
		}
		pool = append(pool, printer.String(g))
	}
	return pool
}

// BenchmarkParse parses the programs of parsePool in turn: one op is one
// parse, of 5.7 KB and 73 blocks on average, as a warm-mix request parses
// its program.
func BenchmarkParse(b *testing.B) {
	pool := parsePool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parse.Parse(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
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
			s := analysis.NewSession()
			rae.Eliminate(base.Clone(), s)
			s.Close()
		}
	})
	b.Run("block-level", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runPass(b, "rae", base.Clone())
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
			runPass(b, "mr", base.Clone())
		}
	})
	b.Run("pde", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runPass(b, "pde", base.Clone())
		}
	})
}

// BenchmarkTidy measures the output cleanup pass on an optimized medium
// program full of synthetic nodes.
func BenchmarkTidy(b *testing.B) {
	base := cfggen.Structured(6, cfggen.Config{Size: 40})
	runPass(b, "globalg", base)
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

// cloneSink keeps BenchmarkClone's result live.
var cloneSink *ir.Graph

// BenchmarkClone measures the deep copy the engine hands out on every
// cache hit and takes before running the pipeline.
func BenchmarkClone(b *testing.B) {
	g := cfggen.Structured(1, cfggen.Config{Size: 200})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cloneSink = g.Clone()
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
// solved by the RPO sweep through a Transfer closure and reading dense
// Gen/Kill vectors through the fused word kernel. The reported
// visits/sweeps metrics show the RPO order at work (long acyclic
// stretches propagate in one pass); the genkill row shows what the kernel
// saves per visit: no scratch clear/compare, one fused pass over the words
// with the change bit folded in. The vector width is each graph's real
// assignment-pattern universe (what the motion analyses would solve at),
// and both modes share one precomputed visit order exactly as production
// solves do through analysis.Session — a fixpoint round runs dozens of
// solves per order computation, so folding the order build into every
// solve would measure graph traversal, not solving.
func BenchmarkSolverOrder(b *testing.B) {
	for _, row := range []struct {
		name string
		g    *ir.Graph
	}{
		{"chain64", cfggen.RedundantChain(64)},
		{"structured80", cfggen.Structured(1, cfggen.Config{Size: 80})},
		{"unstructured80", cfggen.Unstructured(1, cfggen.Config{Size: 80})},
	} {
		for _, mode := range []string{"rpo", "genkill"} {
			p := solverProblem(row.g, ir.AssignUniverse(row.g).Len(), mode == "genkill")
			var roots []int
			for i := 0; i < p.N; i++ {
				if len(p.Preds(i)) == 0 {
					roots = append(roots, i)
				}
			}
			p.Order = dataflow.FlowOrder(p.N, roots, p.Succs)
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
		g, _, err := typeinference.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		runPass(b, "globalg", g)
	}
}

// BenchmarkApplyPasses measures the facade pass-composition path (Apply,
// with the three phases and with the §6 EM/CP interleaving) on a batch of
// random structured graphs.
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
				if err := Apply(g.Clone(), PassEMCP); err != nil {
					b.Fatal(err)
				}
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
				iters = runPass(b, "am-restricted", row.g.Clone()).Iterations
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
					s := analysis.NewSession()
					if mode == "gvn-first" {
						if _, _, err := gvn.Run(g, s); err != nil {
							b.Fatal(err)
						}
					}
					g.SplitCriticalEdges()
					core.Initialize(g)
					patterns = ir.AssignUniverse(g).Len()
					st, err := am.Run(g, s)
					if err != nil {
						b.Fatal(err)
					}
					iters = st.Iterations
					flush.Run(g, s)
					s.Close()
				}
				b.ReportMetric(float64(patterns), "patterns")
				b.ReportMetric(float64(iters), "AMiters")
			})
		}
	}
}
