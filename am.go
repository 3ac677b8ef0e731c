// Package assignmentmotion is a complete, from-scratch Go implementation
// of "The Power of Assignment Motion" (Jens Knoop, Oliver Rüthing,
// Bernhard Steffen; PLDI 1995): the uniform algorithm for eliminating
// partially redundant expressions AND assignments, capturing all
// second-order effects between expression motion (EM) and assignment
// motion (AM).
//
// The package is a facade over the building blocks in internal/:
//
//   - Parse / ParseFile read the ".fg" flow-graph language (see README).
//   - Optimize runs the paper's three-phase global algorithm:
//     initialization, exhaustive assignment motion, final flush.
//   - Apply composes individual passes (EM-only, AM-only, restricted AM,
//     copy propagation, ...) for comparisons.
//   - Run interprets a program and reports the dynamic cost measures the
//     paper's optimality theorems are stated in.
//   - Format / Dot render programs as source text or Graphviz.
//
// A minimal session:
//
//	g, err := assignmentmotion.Parse(src)
//	...
//	res, err := assignmentmotion.Optimize(g)
//	...
//	fmt.Println(assignmentmotion.Format(g), res.AM.Iterations)
package assignmentmotion

import (
	"context"
	"fmt"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bytecode"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/metrics"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/typeinference"
	"assignmentmotion/internal/verify"

	// Every pass package registers itself with internal/pass in its init;
	// these imports (several already pulled in transitively above) make the
	// registry complete whenever the facade is linked in.
	_ "assignmentmotion/internal/aht"
	_ "assignmentmotion/internal/am"
	_ "assignmentmotion/internal/copyprop"
	_ "assignmentmotion/internal/dce"
	_ "assignmentmotion/internal/emcp"
	_ "assignmentmotion/internal/flush"
	_ "assignmentmotion/internal/gvn"
	_ "assignmentmotion/internal/lcm"
	_ "assignmentmotion/internal/mr"
	_ "assignmentmotion/internal/pde"
	_ "assignmentmotion/internal/rae"
)

// Core IR types, re-exported for downstream use.
type (
	// Graph is a control flow graph G = (N, E, s, e) of basic blocks.
	Graph = ir.Graph
	// Block is a basic block of instructions.
	Block = ir.Block
	// Instr is a single instruction (skip, assignment, out, condition).
	Instr = ir.Instr
	// Var is a program variable.
	Var = ir.Var
	// Term is a 3-address right-hand side (at most one operator).
	Term = ir.Term
	// Operand is a variable or integer constant.
	Operand = ir.Operand
	// AssignPattern is an assignment pattern v := t.
	AssignPattern = ir.AssignPattern
	// Builder constructs graphs programmatically.
	Builder = ir.Builder
)

// NewBuilder returns a programmatic graph builder.
func NewBuilder(name string) *Builder { return ir.NewBuilder(name) }

// Parse reads a single graph in .fg syntax.
func Parse(src string) (*Graph, error) { return parse.Parse(src) }

// ParseFile reads a graph from the named .fg file.
func ParseFile(path string) (*Graph, error) { return parse.ParseFile(path) }

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(src string) *Graph { return parse.MustParse(src) }

// ParseNested reads a graph whose expressions may be arbitrarily nested
// (full precedence, parentheses) and canonically decomposes them into
// 3-address form along the inductive structure of the terms — the §6
// front-end transformation of Figure 18.
func ParseNested(src string) (*Graph, error) { return parse.ParseNested(src) }

// Format renders g in .fg syntax (round-trippable through Parse).
func Format(g *Graph) string { return printer.String(g) }

// Dot renders g as a Graphviz digraph.
func Dot(g *Graph) string { return printer.Dot(g) }

// Result reports the per-phase statistics of one Optimize run.
type Result = core.Result

// Optimize applies the paper's global algorithm to g in place:
// initialization (temporaries for every expression), the aht/rae
// assignment motion fixpoint, and the final flush. The result is
// expression-optimal in the universe of programs reachable by admissible
// EM and AM transformations (Theorem 5.2) and relatively assignment- and
// temporary-optimal (Theorems 5.3, 5.4). A failure (a fixpoint overrun)
// returns as an error matching the ErrNoFixpoint sentinel; g is then
// valid but not optimized to the end.
func Optimize(g *Graph) (Result, error) {
	s := analysis.NewSession()
	defer s.Close()
	res, err := core.Optimize(g, s)
	if err != nil {
		return res, fmt.Errorf("assignmentmotion: %w", err)
	}
	return res, nil
}

// BatchOptions tune OptimizeBatch: worker parallelism (default
// GOMAXPROCS), a per-graph timeout, the cache size, and the pipeline.
type BatchOptions = engine.Options

// BatchPipeline is a batch's pass names (empty = the global algorithm),
// recovery policy and budget: with the fingerprint, the cache key.
type BatchPipeline = engine.Pipeline

// BatchReport aggregates one OptimizeBatch run: success/failure counts,
// cache hits and misses, per-phase wall time, AM iteration totals, and
// the per-graph results in input order.
type BatchReport = engine.Report

// BatchResult is the outcome of a single graph within a batch.
type BatchResult = engine.GraphResult

// BatchPassAggregate sums one pass's work across every computed job of a
// batch (see BatchReport.Passes).
type BatchPassAggregate = engine.PassAggregate

// BatchEngine is a reusable concurrent optimizer whose content-addressed
// result cache persists across batches. Construct with NewBatchEngine.
type BatchEngine = engine.Engine

// NewBatchEngine returns a reusable batch optimizer with the given
// options.
func NewBatchEngine(opts BatchOptions) *BatchEngine { return engine.New(opts) }

// OptimizeBatch runs the full three-phase global algorithm over many
// graphs concurrently: a worker pool of opts.Parallelism goroutines,
// per-graph panic recovery and deadlines, and a content-addressed result
// cache keyed by Graph.Fingerprint so duplicate graphs are optimized
// once. Inputs are never mutated; each BatchResult carries an optimized
// clone. Cancel ctx to abandon the remainder of a batch.
func OptimizeBatch(ctx context.Context, graphs []*Graph, opts BatchOptions) BatchReport {
	return engine.OptimizeBatch(ctx, graphs, opts)
}

// Failure taxonomy, re-exported from internal/fault: every failure a
// pipeline or batch run can produce matches exactly one of these sentinels
// under errors.Is, and PassOf extracts the offending pass's name and
// pipeline position.
var (
	// ErrNoFixpoint: an exhaustive fixpoint overran its termination backstop.
	ErrNoFixpoint = fault.ErrNoFixpoint
	// ErrInvalidGraph: a pass produced a structurally invalid graph.
	ErrInvalidGraph = fault.ErrInvalidGraph
	// ErrPassPanic: a pass panicked and was recovered by the pipeline.
	ErrPassPanic = fault.ErrPassPanic
	// ErrBudgetExceeded: a Budget cap (wall time, solver visits, AM
	// iterations) was exhausted.
	ErrBudgetExceeded = fault.ErrBudgetExceeded
	// ErrCanceled: the caller's context was canceled or its deadline
	// expired (also matches context.Canceled / context.DeadlineExceeded).
	ErrCanceled = fault.ErrCanceled
)

// PassOf extracts the pass name and pipeline index from a pipeline
// failure; ok is false when err carries no position.
func PassOf(err error) (pass string, index int, ok bool) { return fault.PassOf(err) }

// RecoveryPolicy selects what a pipeline does when a pass fails: stop with
// the typed error (RecoverFail), restore the last-good checkpoint and stop
// (RecoverRollback), or restore, skip the pass, and continue
// (RecoverSkip). See Pipeline.Recovery and BatchPipeline.Recovery.
type RecoveryPolicy = pass.RecoveryPolicy

// The recovery policies.
const (
	RecoverFail     = pass.Fail
	RecoverRollback = pass.Rollback
	RecoverSkip     = pass.SkipAndContinue
)

// ParseRecoveryPolicy maps the amopt -on-error spelling ("fail",
// "rollback", "skip") to a policy.
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) { return pass.ParseRecoveryPolicy(s) }

// Budget caps the resources of one pipeline run (per-pass wall time,
// dataflow-solver visits, AM fixpoint rounds); violations surface as
// ErrBudgetExceeded instead of hangs. The zero value imposes no caps.
type Budget = fault.Budget

// BatchOutcome classifies one graph's fate in a batch: optimized (full
// pipeline), degraded (the recovery policy rolled back or skipped a
// failing pass; never cached), or failed.
type BatchOutcome = engine.Outcome

// The batch outcomes.
const (
	BatchOptimized = engine.OutcomeOptimized
	BatchDegraded  = engine.OutcomeDegraded
	BatchFailed    = engine.OutcomeFailed
)

// Pass names an individual transformation for Apply.
type Pass string

// The available passes.
const (
	// PassGlobAlg is the full global algorithm (same as Optimize).
	PassGlobAlg Pass = "globalg"
	// PassInit is the initialization phase alone (Figure 12).
	PassInit Pass = "init"
	// PassAM is unrestricted assignment motion (aht/rae fixpoint).
	PassAM Pass = "am"
	// PassAMRestricted is Dhamdhere-style "immediately profitable" AM.
	PassAMRestricted Pass = "am-restricted"
	// PassAHT is a single assignment-hoisting step (Table 1).
	PassAHT Pass = "aht"
	// PassRAE is a single redundant-assignment-elimination step (Table 2).
	PassRAE Pass = "rae"
	// PassEM is the expression-motion baseline (lazy code motion).
	PassEM Pass = "em"
	// PassMR is the original Morel/Renvoise 1979 partial redundancy
	// elimination [19] — the historical baseline without edge placement.
	PassMR Pass = "mr"
	// PassEMCP alternates EM with copy propagation to a fixpoint (§6).
	PassEMCP Pass = "emcp"
	// PassFlush is the final flush alone (Table 3).
	PassFlush Pass = "flush"
	// PassCopyProp is unified global copy+constant propagation: uses are
	// replaced through available copies whose source may be a variable or
	// a literal, and fully-literal terms fold in the same fixpoint
	// (Sreekala & Paleri: copy propagation subsumes constant propagation).
	PassCopyProp Pass = "copyprop"
	// PassGVN is global value numbering: recomputations of values already
	// available in some variable (or literal) become trivial copies, by
	// Kildall-style partition refinement over the value graph.
	PassGVN Pass = "gvn"
	// PassGVNEMCP prefixes every EM/CP round with GVN, so the shrunken
	// expression-pattern universe feeds the motion analyses — the
	// second-order GVN->AM interaction, measurable per round.
	PassGVNEMCP Pass = "gvn-emcp"
	// PassDCE is strong-liveness dead assignment elimination. It is NOT
	// part of any paper pipeline (§3: not semantics-preserving in
	// general) and exists for comparisons.
	PassDCE Pass = "dce"
	// PassPDE is partial dead code elimination (assignment sinking +
	// dce), the [17] companion transformation whose delayability analysis
	// this paper's hoistability analysis is the dual of. Like dce it is
	// opt-in: removing dead assignments can remove run-time errors.
	PassPDE Pass = "pde"
	// PassSplit splits critical edges (done implicitly by all motion
	// passes).
	PassSplit Pass = "split"
	// PassTidy bypasses empty synthetic blocks and merges straight-line
	// chains for presentation; run it last (it may re-create critical
	// edges, which the motion passes would simply re-split).
	PassTidy Pass = "tidy"
)

// Passes lists all pass names accepted by Apply, in a stable order. The
// registry (PassInfos) and this list agree; a test enforces it.
func Passes() []Pass {
	return []Pass{PassGlobAlg, PassInit, PassAM, PassAMRestricted, PassAHT,
		PassRAE, PassEM, PassMR, PassEMCP, PassFlush, PassCopyProp, PassGVN,
		PassGVNEMCP, PassDCE, PassPDE, PassSplit, PassTidy}
}

// PassInfo describes one registered pass: its name, a one-line
// description, and the paper reference it implements.
type PassInfo = pass.Info

// PassInfos lists every registered pass, sorted by name.
func PassInfos() []PassInfo { return pass.Infos() }

// PassStats is the uniform per-pass change report: a change count in the
// pass's natural unit and the number of fixpoint iterations it ran.
type PassStats = pass.Stats

// PassEvent is the instrumentation record of one executed pass within a
// pipeline run: wall time, instruction/block deltas, dataflow-solver work,
// and arena high-water growth.
type PassEvent = pass.Event

// PipelineReport aggregates one pipeline run (per-pass events, total wall
// time).
type PipelineReport = pass.Report

// Pipeline is an executable pass sequence with per-pass instrumentation,
// optional event hooks, and optional inter-pass invariant checking (Debug).
type Pipeline = pass.Pipeline

// NewPipeline resolves pass names against the registry and returns the
// pipeline. Unknown names fail with a did-you-mean suggestion.
func NewPipeline(passes ...Pass) (*Pipeline, error) {
	pl, err := pass.FromNames(passNames(passes)...)
	if err != nil {
		return nil, fmt.Errorf("assignmentmotion: %w", err)
	}
	return pl, nil
}

func passNames(passes []Pass) []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = string(p)
	}
	return names
}

// Apply runs the named passes on g, in order. It is a thin wrapper over
// the pass pipeline: one analysis session is threaded through the whole
// sequence, so consecutive passes share its pooled arena.
func Apply(g *Graph, passes ...Pass) error {
	_, err := ApplyPipeline(g, passes...)
	return err
}

// ApplyPipeline is Apply returning the per-pass instrumentation report.
func ApplyPipeline(g *Graph, passes ...Pass) (PipelineReport, error) {
	pl, err := NewPipeline(passes...)
	if err != nil {
		return PipelineReport{}, err
	}
	rep, err := pl.Run(g)
	if err != nil {
		return rep, fmt.Errorf("assignmentmotion: %w", err)
	}
	return rep, nil
}

// NewSession returns an analysis session for callers that drive several
// pipelines over related graphs and want to share one pooled arena
// (Pipeline.RunWith). Close it when done.
func NewSession() *analysis.Session { return analysis.NewSession() }

// ExecResult is the outcome of interpreting a program.
type ExecResult = interp.Result

// ExecCounts aggregates the dynamic cost measures of one execution.
type ExecCounts = interp.Counts

// Run executes g on a copy of env (missing variables are 0) with the
// given step budget (<= 0 selects a default) and reports the out-trace
// and cost counters.
func Run(g *Graph, env map[Var]int64, maxSteps int) ExecResult {
	return interp.Run(g, env, maxSteps)
}

// ExecOptions tune the execution semantics (e.g. trapping division).
type ExecOptions = interp.Options

// RunWith is Run with explicit semantic options. With TrapOnDivZero the
// footnote-3 distinction becomes observable: the motion passes preserve
// run-time errors, dce/pde may remove them.
func RunWith(g *Graph, env map[Var]int64, maxSteps int, opts ExecOptions) ExecResult {
	return interp.RunWith(g, env, maxSteps, opts)
}

// Static summarizes a program's static shape.
type Static = metrics.Static

// Measure computes static program metrics (sizes, temporaries, lifetimes).
func Measure(g *Graph) Static { return metrics.Measure(g) }

// EquivalenceReport describes a randomized equivalence check.
type EquivalenceReport = verify.Report

// Equivalent runs a and b on `runs` random environments derived from seed
// and compares their out-traces; it also aggregates both programs'
// dynamic costs for optimality comparisons.
func Equivalent(a, b *Graph, runs int, seed int64) EquivalenceReport {
	return verify.Equivalent(a, b, runs, seed)
}

// GenConfig tunes random program generation.
type GenConfig = cfggen.Config

// RandomStructured generates a seeded random structured program
// (sequences, diamonds, counter-guarded loops).
func RandomStructured(seed int64, cfg GenConfig) *Graph {
	return cfggen.Structured(seed, cfg)
}

// RandomUnstructured generates a seeded random unstructured program with
// forward branches and fuel-guarded back edges (may contain irreducible
// loops).
func RandomUnstructured(seed int64, cfg GenConfig) *Graph {
	return cfggen.Unstructured(seed, cfg)
}

// RandomEnvs builds deterministic random environments over vars.
func RandomEnvs(vars []Var, count int, seed int64) []map[Var]int64 {
	return metrics.RandomEnvs(vars, count, seed)
}

// TypeResult carries the inferred types, signatures, implicit inputs,
// and diagnostics of one typed-front-end unit.
type TypeResult = typeinference.Result

// TypeDiagnostic is one typed front-end diagnostic (position, stable
// code, severity, message).
type TypeDiagnostic = typeinference.Diagnostic

// CompileFun type-checks a typed front-end unit strictly and lowers it
// to a flow graph. The TypeResult is returned even when checking fails,
// so callers can render every diagnostic.
func CompileFun(src string) (*Graph, *TypeResult, error) { return typeinference.Compile(src) }

// InspectFun type-checks leniently: syntax errors still fail, but type
// and scope errors are collected as diagnostics alongside the partial
// results — the mode editors and linters want.
func InspectFun(src string) (*TypeResult, error) { return typeinference.Inspect(src) }

// CompiledProgram is a flow graph compiled to the flat register form
// executed by RunCompiled; compile once, run many times.
type CompiledProgram = bytecode.Program

// CompileBytecode compiles a valid flow graph for repeated execution.
func CompileBytecode(g *Graph) (*CompiledProgram, error) { return bytecode.Compile(g) }

// RunCompiled executes g through the compiled executor: same trace,
// counts, and flags as RunWith, several times faster on hot programs.
func RunCompiled(g *Graph, env map[Var]int64, maxSteps int, opts ExecOptions) (ExecResult, error) {
	return bytecode.Execute(g, env, maxSteps, opts)
}
