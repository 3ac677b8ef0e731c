package bytecode_test

import (
	"fmt"
	"math/rand"
	"testing"

	"assignmentmotion/internal/bytecode"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/typeinference"
)

// requireSame is the differential oracle: every observable of the two
// executions must agree exactly — trace, all five Counts, flags, and the
// final environment.
func requireSame(t *testing.T, label string, want, got interp.Result) {
	t.Helper()
	if want.Counts != got.Counts {
		t.Fatalf("%s: counts interp=%+v bytecode=%+v", label, want.Counts, got.Counts)
	}
	if want.Truncated != got.Truncated || want.Trapped != got.Trapped {
		t.Fatalf("%s: flags interp=(%v,%v) bytecode=(%v,%v)",
			label, want.Truncated, want.Trapped, got.Truncated, got.Trapped)
	}
	if len(want.Trace) != len(got.Trace) {
		t.Fatalf("%s: trace interp=%v bytecode=%v", label, want.Trace, got.Trace)
	}
	for i := range want.Trace {
		if want.Trace[i] != got.Trace[i] {
			t.Fatalf("%s: trace interp=%v bytecode=%v", label, want.Trace, got.Trace)
		}
	}
	if len(want.Env) != len(got.Env) {
		t.Fatalf("%s: env interp=%v bytecode=%v", label, want.Env, got.Env)
	}
	for v, x := range want.Env {
		if gx, ok := got.Env[v]; !ok || gx != x {
			t.Fatalf("%s: env[%s] interp=%d bytecode=%v", label, v, x, got.Env[v])
		}
	}
}

// diffOne runs g under both engines across environments, budgets, and both
// trap modes.
func diffOne(t *testing.T, label string, g *ir.Graph, envs []map[ir.Var]int64, budgets []int) {
	t.Helper()
	p, err := bytecode.Compile(g)
	if err != nil {
		t.Fatalf("%s: Compile: %v", label, err)
	}
	for ei, env := range envs {
		for _, budget := range budgets {
			for _, trap := range []bool{false, true} {
				opts := interp.Options{TrapOnDivZero: trap}
				want := interp.RunWith(g, env, budget, opts)
				got := p.RunWith(env, budget, opts)
				requireSame(t, fmt.Sprintf("%s env%d budget=%d trap=%v", label, ei, budget, trap), want, got)
			}
		}
	}
}

// corpusEnvs builds a few environments exercising zeros, positives,
// negatives, and div-by-zero-prone values over the graph's source vars.
func corpusEnvs(g *ir.Graph, rng *rand.Rand) []map[ir.Var]int64 {
	vars := g.SourceVars()
	mk := func(f func(i int) int64) map[ir.Var]int64 {
		env := make(map[ir.Var]int64, len(vars))
		for i, v := range vars {
			env[v] = f(i)
		}
		return env
	}
	return []map[ir.Var]int64{
		nil,
		mk(func(i int) int64 { return int64(i + 1) }),
		mk(func(i int) int64 { return int64(-i) }),
		mk(func(i int) int64 { return rng.Int63n(7) - 3 }), // zeros included
		mk(func(i int) int64 { return rng.Int63() - rng.Int63() }),
	}
}

var diffBudgets = []int{0, 1, 2, 7, 100, interp.DefaultMaxSteps}

func TestDifferentialCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range corpus.Names() {
		g := corpus.Load(name)
		diffOne(t, "corpus/"+name, g, corpusEnvs(g, rng), diffBudgets)
	}
}

func TestDifferentialFigures(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range figures.Names() {
		g := figures.Load(name)
		diffOne(t, "figures/"+name, g, corpusEnvs(g, rng), diffBudgets)
	}
}

// TestDifferentialOptimized compiles the optimized form of every corpus
// program: the executor must agree with the interpreter on post-motion
// graphs too (temporaries, moved assignments).
func TestDifferentialOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range corpus.Names() {
		g := corpus.Load(name)
		pl := pass.New(core.Phases(nil)...)
		if _, err := pl.Run(g); err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		diffOne(t, "optimized/"+name, g, corpusEnvs(g, rng), diffBudgets)
	}
}

func TestDifferentialCfggenSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for seed := int64(0); seed < 60; seed++ {
		g := cfggen.Structured(seed, cfggen.Config{})
		label := fmt.Sprintf("cfggen/%d", seed)
		diffOne(t, label, g, corpusEnvs(g, rng), []int{0, 3, 50})

		opt := g.Clone()
		pl := pass.New(core.Phases(nil)...)
		if _, err := pl.Run(opt); err != nil {
			t.Fatalf("%s: optimize: %v", label, err)
		}
		diffOne(t, label+"/opt", opt, corpusEnvs(opt, rng), []int{0, 3, 50})
	}
}

// TestDifferentialFunCorpus covers every embedded typed front-end
// program, raw and optimized.
func TestDifferentialFunCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, name := range corpus.FunNames() {
		g := corpus.LoadFun(name)
		diffOne(t, "fun/"+name, g, corpusEnvs(g, rng), diffBudgets)

		opt := g.Clone()
		pl := pass.New(core.Phases(nil)...)
		if _, err := pl.Run(opt); err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		diffOne(t, "fun/"+name+"/opt", opt, corpusEnvs(opt, rng), diffBudgets)
	}
}

func TestDifferentialTypedPrograms(t *testing.T) {
	srcs := map[string]string{
		"calls": `
			fn square(x: int): int { return x * x }
			prog p {
				let a = square(n)
				let b = square(n + 1)
				out(a, b, a - b)
			}`,
		"divtrap": `
			prog p {
				let q = a / b
				let r = a % b
				out(q, r)
			}`,
		"loopy": `
			fn step(x: int): int { return x * 2 + 1 }
			prog p {
				let i = 0
				let acc = 0
				while i < 40 {
					acc := acc + step(i)
					i := i + 1
				}
				out(acc)
			}`,
	}
	rng := rand.New(rand.NewSource(5))
	for name, src := range srcs {
		g, _, err := typeinference.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffOne(t, "typed/"+name, g, corpusEnvs(g, rng), diffBudgets)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	g := ir.NewGraph("bad")
	b := g.AddBlock("b")
	b.Instrs = []ir.Instr{ir.Skip()}
	g.Entry, g.Exit = b.ID, b.ID
	g.Block(b.ID).Instrs = nil // empty block: invalid
	if _, err := bytecode.Compile(g); err == nil {
		t.Fatal("Compile accepted an invalid graph")
	}
}

func TestProgramAccessors(t *testing.T) {
	g := parse.MustParse(`graph g {
		entry s
		exit e
		block s { x := a + b goto e }
		block e { out(x) }
	}`)
	p, err := bytecode.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "g" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Len() == 0 {
		t.Error("Len = 0")
	}
	if p.Disasm() == "" {
		t.Error("Disasm empty")
	}
}

// BenchmarkRunCompiled compares one execution of a looping corpus program
// through the compiled executor against the tree-walking interpreter. The
// acceptance bar is a ≥2× speedup, recorded in BENCH_engine.json.
func BenchmarkRunCompiled(b *testing.B) {
	g := corpus.Load("interp")
	env := map[ir.Var]int64{}
	for i, v := range g.SourceVars() {
		env[v] = int64(i + 3)
	}
	b.Run("bytecode", func(b *testing.B) {
		p, err := bytecode.Compile(g)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := p.Run(env, interp.DefaultMaxSteps)
			if res.Trapped {
				b.Fatal("trapped")
			}
		}
	})
	b.Run("treewalk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := interp.Run(g, env, interp.DefaultMaxSteps)
			if res.Trapped {
				b.Fatal("trapped")
			}
		}
	})
}
