// Command amopt parses a flow-graph program in .fg syntax, runs a pass
// pipeline over it, and prints the transformed program (or its Graphviz
// rendering, metrics, or an interpreted execution).
//
// Usage:
//
//	amopt [flags] file.fg        # or "-" for stdin
//	amopt [flags] a.fg b.fg dir/ # batch mode: many files / directories
//
//	-pass globalg                comma-separated pipeline; see -list
//	-passes init,am,flush        synonym of -pass; "-passes list" prints
//	                             the pass registry (description + paper
//	                             reference per pass)
//	-trace-passes                print one line per executed pass: wall
//	                             time, instruction/block deltas, solver
//	                             work, arena growth
//	-dot                         emit Graphviz instead of .fg
//	-metrics                     print static metrics before/after
//	-run "a=1,b=2"               execute source AND optimized program on
//	                             the given environment via the compiled
//	                             executor; prints the trace and the
//	                             before/after cost counters
//	-input k=v                   bind one input variable (repeatable;
//	                             merged over -run bindings; implies
//	                             execution)
//	-trap-div-zero               division/remainder by zero aborts the
//	                             execution (exit 5) instead of yielding 0
//	-steps N                     execution step budget
//	-verify N                    check semantics preservation on N
//	                             random inputs and report dynamic costs
//	-figure name                 load a built-in paper figure instead of
//	                             a file (see -list)
//	-nested                      accept nested expressions (decomposed
//	                             to 3-address form, §6)
//	-prog                        input is the structured mini-language
//	-fun                         input is the typed front-end (functions,
//	                             let declarations, type inference); the
//	                             program is type-checked strictly before
//	                             lowering
//	-random N [-size S]          use a random structured program
//	-json                        machine-readable report
//	-list                        list passes and built-in figures
//
// Batch flags (multiple files, or a directory of .fg files):
//
//	-parallel N                  worker goroutines (0 = GOMAXPROCS)
//	-timeout D                   per-graph deadline, e.g. 500ms
//	-stats                       print the aggregated batch report
//
// Failure handling:
//
//	-on-error fail|rollback|skip what to do when a pass fails (panic,
//	                             fixpoint overrun, invalid result):
//	                             fail stops with the typed error, rollback
//	                             restores the last-good checkpoint and
//	                             stops, skip restores and continues with
//	                             the remaining passes
//
// Exit codes: 0 success; 1 usage (bad flags, unknown pass, unreadable
// input); 2 parse error (including typed front-end type errors); 3
// optimization failed; 4 degraded (every result is valid, but -on-error
// recovery absorbed at least one pass failure); 5 execution trapped
// (-trap-div-zero hit a division or remainder by zero); 6 trace
// mismatch (the optimized program produced a different out-trace than
// the source program — an optimizer bug, never expected). Failure beats
// degradation: a batch with both failed and degraded graphs exits 3.
//
// Examples:
//
//	amopt -figure running -pass globalg            # reproduce Figure 15
//	amopt -figure running -pass init               # reproduce Figure 12
//	amopt -figure fig08 -pass am-restricted        # Figure 8 (stuck)
//	amopt -pass em,copyprop -verify 20 prog.fg
//	amopt -prog -pass globalg,tidy -json main.prog
//	amopt -parallel 8 -timeout 2s -stats corpus/   # batch optimize a tree
//
// Profiling (pprof):
//
//	-cpuprofile f.pprof          write a CPU profile of the whole run
//	-memprofile f.pprof          write an allocation profile at exit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"assignmentmotion"
	"assignmentmotion/internal/figures"
)

// Exit codes. Scripts driving amopt over corpora can tell "the input was
// bad" from "the optimizer failed" from "the optimizer recovered but the
// result is not the full optimization".
const (
	exitOK             = 0 // success
	exitUsage          = 1 // bad flags, unknown pass/figure, unreadable input
	exitParse          = 2 // input failed to parse
	exitOptimizeFailed = 3 // the pipeline (or ≥1 batch graph) failed
	exitDegraded       = 4 // recovered: every result valid, some not fully optimized
	exitTrapped        = 5 // -trap-div-zero: the execution divided by zero
	exitMismatch       = 6 // source and optimized traces diverged (optimizer bug)
)

// exitError tags an error with the process exit code it should map to.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// exitf builds an exitError in one line.
func exitf(code int, format string, args ...any) error {
	return &exitError{code: code, err: fmt.Errorf(format, args...)}
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		os.Exit(exitOK)
	}
	code := exitUsage
	var ee *exitError
	if errors.As(err, &ee) {
		code = ee.code
	}
	fmt.Fprintln(os.Stderr, "amopt:", err)
	os.Exit(code)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("amopt", flag.ContinueOnError)
	passFlag := fs.String("pass", "globalg", "comma-separated pass pipeline")
	passesFlag := fs.String("passes", "", "synonym of -pass; \"-passes list\" prints the pass registry")
	traceFlag := fs.Bool("trace-passes", false, "print one line per executed pass (timings, deltas, solver work)")
	dotFlag := fs.Bool("dot", false, "emit Graphviz dot")
	metricsFlag := fs.Bool("metrics", false, "print static metrics before and after")
	runFlag := fs.String("run", "", "execute source and optimized program with environment, e.g. \"a=1,b=2\"")
	var inputFlags multiFlag
	fs.Var(&inputFlags, "input", "bind one input variable name=value (repeatable; implies execution)")
	trapFlag := fs.Bool("trap-div-zero", false, "division/remainder by zero aborts the execution (exit 5) instead of yielding 0")
	stepsFlag := fs.Int("steps", 0, "execution step budget (0 = default)")
	verifyFlag := fs.Int("verify", 0, "verify semantics on N random inputs")
	figureFlag := fs.String("figure", "", "load a built-in paper figure")
	nestedFlag := fs.Bool("nested", false, "accept nested expressions and decompose to 3-address form (§6)")
	progFlag := fs.Bool("prog", false, "input is the structured mini-language (prog/if/while/do)")
	funFlag := fs.Bool("fun", false, "input is the typed front-end (functions, let declarations, type inference)")
	randomFlag := fs.Int64("random", -1, "use a random structured program with this seed instead of a file")
	randomSize := fs.Int("size", 10, "size of the random program (with -random)")
	jsonFlag := fs.Bool("json", false, "emit a JSON report (metrics, verification, run) instead of text annotations")
	listFlag := fs.Bool("list", false, "list passes and figures")
	parallelFlag := fs.Int("parallel", 0, "batch mode: worker goroutines (0 = GOMAXPROCS)")
	timeoutFlag := fs.Duration("timeout", 0, "batch mode: per-graph optimization deadline (0 = none)")
	statsFlag := fs.Bool("stats", false, "batch mode: print the aggregated batch report")
	onErrorFlag := fs.String("on-error", "fail", "pass-failure recovery: fail, rollback, or skip")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "amopt: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush garbage so the profile shows live + cumulative allocations accurately
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "amopt: -memprofile:", err)
			}
		}()
	}

	recovery, err := assignmentmotion.ParseRecoveryPolicy(*onErrorFlag)
	if err != nil {
		return fmt.Errorf("-on-error: %w", err)
	}

	passSpec := *passFlag
	if *passesFlag != "" {
		passSpec = *passesFlag
	}
	if passSpec == "list" {
		printRegistry(out)
		return nil
	}

	if *listFlag {
		fmt.Fprintln(out, "passes:")
		for _, p := range assignmentmotion.Passes() {
			fmt.Fprintf(out, "  %s\n", p)
		}
		fmt.Fprintln(out, "figures:")
		for _, f := range figures.Names() {
			fmt.Fprintf(out, "  %s\n", f)
		}
		return nil
	}

	if batch, files, err := batchInputs(fs.Args(), *figureFlag, *randomFlag); err != nil {
		return err
	} else if batch {
		return runBatch(files, batchConfig{
			passSpec: passSpec,
			nested:   *nestedFlag,
			prog:     *progFlag,
			fun:      *funFlag,
			parallel: *parallelFlag,
			timeout:  *timeoutFlag,
			verify:   *verifyFlag,
			stats:    *statsFlag,
			json:     *jsonFlag,
			dot:      *dotFlag,
			run:      *runFlag,
			trace:    *traceFlag,
			recovery: recovery,
		}, out)
	}

	var g *assignmentmotion.Graph
	if *randomFlag >= 0 {
		g = assignmentmotion.RandomStructured(*randomFlag, assignmentmotion.GenConfig{Size: *randomSize})
	} else {
		g, err = load(fs, *figureFlag, *nestedFlag, *progFlag, *funFlag)
		if err != nil {
			return err
		}
	}
	orig := g.Clone()

	report := jsonReport{Graph: g.Name}
	if *metricsFlag || *jsonFlag {
		m := assignmentmotion.Measure(g)
		report.Before = &m
		if !*jsonFlag {
			fmt.Fprintf(out, "# before: %s\n", m)
		}
	}

	pl, err := assignmentmotion.NewPipeline(parsePasses(passSpec)...)
	if err != nil {
		return err // unknown pass name: usage
	}
	pl.Recovery = recovery
	prep, err := pl.Run(g)
	if err != nil {
		return exitf(exitOptimizeFailed, "%v", err)
	}
	if *traceFlag {
		for _, ev := range prep.Events {
			fmt.Fprintf(out, "# %s\n", formatPassEvent(ev))
		}
	}
	if err := g.Validate(); err != nil {
		return exitf(exitOptimizeFailed, "pipeline produced an invalid graph: %v", err)
	}

	if *metricsFlag || *jsonFlag {
		m := assignmentmotion.Measure(g)
		report.After = &m
		if !*jsonFlag {
			fmt.Fprintf(out, "# after:  %s\n", m)
		}
	}

	if *verifyFlag > 0 {
		rep := assignmentmotion.Equivalent(orig, g, *verifyFlag, 1)
		if !rep.Equivalent {
			return exitf(exitOptimizeFailed, "semantics changed: %s", rep.Detail)
		}
		report.Verified = rep.Runs
		report.ExprEvalsBefore, report.ExprEvalsAfter = rep.A.ExprEvals, rep.B.ExprEvals
		report.AssignExecsBefore, report.AssignExecsAfter = rep.A.AssignExecs, rep.B.AssignExecs
		if !*jsonFlag {
			fmt.Fprintf(out, "# verified on %d inputs: expr %d->%d, assigns %d->%d\n",
				rep.Runs, rep.A.ExprEvals, rep.B.ExprEvals, rep.A.AssignExecs, rep.B.AssignExecs)
		}
	}

	switch {
	case *jsonFlag:
		// program included in the report below
	case *dotFlag:
		fmt.Fprint(out, assignmentmotion.Dot(g))
	default:
		fmt.Fprint(out, assignmentmotion.Format(g))
	}

	var trapped, mismatch bool
	if *runFlag != "" || len(inputFlags) > 0 {
		env, err := parseEnv(*runFlag)
		if err != nil {
			return err
		}
		for _, kv := range inputFlags {
			extra, err := parseEnv(kv)
			if err != nil {
				return fmt.Errorf("-input: %w", err)
			}
			for k, v := range extra {
				env[k] = v
			}
		}
		opts := assignmentmotion.ExecOptions{TrapOnDivZero: *trapFlag}
		before, err := assignmentmotion.RunCompiled(orig, env, *stepsFlag, opts)
		if err != nil {
			return exitf(exitOptimizeFailed, "compile source program for execution: %v", err)
		}
		r, err := assignmentmotion.RunCompiled(g, env, *stepsFlag, opts)
		if err != nil {
			return exitf(exitOptimizeFailed, "compile optimized program for execution: %v", err)
		}
		trapped = before.Trapped || r.Trapped
		mismatch = !trapped && !r.Truncated && !before.Truncated && !traceEqual(before.Trace, r.Trace)
		report.Trace = r.Trace
		report.Run = &r.Counts
		report.RunBefore = &before.Counts
		report.Trapped = trapped
		report.TraceMatch = !mismatch
		if !*jsonFlag {
			fmt.Fprintf(out, "# trace: %v\n", r.Trace)
			fmt.Fprintf(out, "# exprEvals=%d assignExecs=%d tempAssigns=%d steps=%d truncated=%v\n",
				r.Counts.ExprEvals, r.Counts.AssignExecs, r.Counts.TempAssignExecs,
				r.Counts.Steps, r.Truncated)
			fmt.Fprintf(out, "# source: exprEvals=%d assignExecs=%d tempAssigns=%d steps=%d\n",
				before.Counts.ExprEvals, before.Counts.AssignExecs, before.Counts.TempAssignExecs,
				before.Counts.Steps)
			fmt.Fprintf(out, "# delta: exprEvals=%+d assignExecs=%+d tempAssigns=%+d\n",
				r.Counts.ExprEvals-before.Counts.ExprEvals,
				r.Counts.AssignExecs-before.Counts.AssignExecs,
				r.Counts.TempAssignExecs-before.Counts.TempAssignExecs)
		}
	}
	if *jsonFlag {
		report.Passes = prep.Events
		report.Program = assignmentmotion.Format(g)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	if trapped {
		return exitf(exitTrapped, "execution trapped on division or remainder by zero")
	}
	if mismatch {
		return exitf(exitMismatch, "optimized program's trace differs from the source program's (optimizer bug)")
	}
	if prep.Degraded() {
		return exitf(exitDegraded, "pipeline degraded: %d pass failure(s) absorbed by -on-error=%s",
			len(prep.Failures), recovery)
	}
	return nil
}

// multiFlag collects a repeatable string flag (-input k=v -input m=n).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// traceEqual compares two out-traces element-wise.
func traceEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parsePasses splits a -pass / -passes spec into pass names, skipping
// empty segments and the "none" placeholder.
func parsePasses(spec string) []assignmentmotion.Pass {
	var passes []assignmentmotion.Pass
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" || name == "none" {
			continue
		}
		passes = append(passes, assignmentmotion.Pass(name))
	}
	return passes
}

// printRegistry renders the pass registry ("-passes list"): one line per
// registered pass with its description and paper reference.
func printRegistry(out io.Writer) {
	infos := assignmentmotion.PassInfos()
	width := 0
	for _, in := range infos {
		if len(in.Name) > width {
			width = len(in.Name)
		}
	}
	for _, in := range infos {
		fmt.Fprintf(out, "%-*s  %s\n", width, in.Name, in.Description)
		if in.Ref != "" {
			fmt.Fprintf(out, "%-*s  [%s]\n", width, "", in.Ref)
		}
	}
}

// formatPassEvent renders one pipeline event as a -trace-passes line.
func formatPassEvent(ev assignmentmotion.PassEvent) string {
	line := fmt.Sprintf("pass %-13s changes=%-5d iters=%-3d wall=%-10v instrs %d->%d blocks %d->%d solves=%d visits=%d sweeps=%d",
		ev.Pass, ev.Stats.Changes, ev.Stats.Iterations, ev.Wall.Round(time.Microsecond),
		ev.InstrsBefore, ev.InstrsAfter, ev.BlocksBefore, ev.BlocksAfter,
		ev.Dataflow.Solves, ev.Dataflow.Visits, ev.Dataflow.Sweeps)
	if ev.Arena.Words != 0 || ev.Arena.Ints != 0 || ev.Arena.Vecs != 0 {
		line += fmt.Sprintf(" arena+=(%dw,%di,%dv)", ev.Arena.Words, ev.Arena.Ints, ev.Arena.Vecs)
	}
	if ev.Outcome != "ok" && ev.Outcome != "" {
		line += " outcome=" + ev.Outcome
		if ev.Err != nil {
			line += fmt.Sprintf(" err=%q", ev.Err)
		}
	}
	return line
}

// jsonReport is the machine-readable output of -json.
type jsonReport struct {
	Graph             string                       `json:"graph"`
	Passes            []assignmentmotion.PassEvent `json:"passes,omitempty"`
	Before            *assignmentmotion.Static     `json:"before,omitempty"`
	After             *assignmentmotion.Static     `json:"after,omitempty"`
	Verified          int                          `json:"verifiedInputs,omitempty"`
	ExprEvalsBefore   int                          `json:"exprEvalsBefore,omitempty"`
	ExprEvalsAfter    int                          `json:"exprEvalsAfter,omitempty"`
	AssignExecsBefore int                          `json:"assignExecsBefore,omitempty"`
	AssignExecsAfter  int                          `json:"assignExecsAfter,omitempty"`
	Trace             []int64                      `json:"trace,omitempty"`
	Run               *assignmentmotion.ExecCounts `json:"run,omitempty"`
	RunBefore         *assignmentmotion.ExecCounts `json:"runBefore,omitempty"`
	Trapped           bool                         `json:"trapped,omitempty"`
	TraceMatch        bool                         `json:"traceMatch,omitempty"`
	Program           string                       `json:"program"`
}

func load(fs *flag.FlagSet, figure string, nested, prog, fun bool) (*assignmentmotion.Graph, error) {
	if figure != "" {
		for _, f := range figures.Names() {
			if f == figure {
				return figures.Load(figure), nil
			}
		}
		return nil, fmt.Errorf("unknown figure %q (see -list)", figure)
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one input file (or -figure)")
	}
	path := fs.Arg(0)
	var src string
	if path == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		src = string(data)
	} else {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		src = string(data)
	}
	var g *assignmentmotion.Graph
	var err error
	switch {
	case fun:
		g, _, err = assignmentmotion.CompileFun(src)
	case prog:
		g, err = assignmentmotion.ParseProgram(src)
	case nested:
		g, err = assignmentmotion.ParseNested(src)
	default:
		g, err = assignmentmotion.Parse(src)
	}
	if err != nil {
		return nil, exitf(exitParse, "%s:%v", path, err)
	}
	return g, nil
}

func parseEnv(s string) (map[assignmentmotion.Var]int64, error) {
	env := map[assignmentmotion.Var]int64{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad binding %q (want name=value)", kv)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %w", kv, err)
		}
		env[assignmentmotion.Var(strings.TrimSpace(parts[0]))] = v
	}
	return env, nil
}
