package main

// Workload generation. Every workload is a pure function of its seed: the
// distinct requests it can send, the requests sent untimed during set-up,
// and one timed sequence per client. Inputs are generated here, never by
// the program under test.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/server"
	"assignmentmotion/internal/typeinference"
)

// nClients is the closed loop's client count: one per core of the 2-core
// host the baseline was recorded on.
const nClients = 2

// workloadNames lists the workloads in the order the all-workloads mode
// runs them.
var workloadNames = []string{"cold-mix", "warm-mix", "edit-stream", "run-kernels"}

// runMaxSteps is the step budget every /v1/run request asks for.
const runMaxSteps = 1_000_000

// request is one distinct HTTP request a workload can send.
type request struct {
	name    string
	path    string // "/v1/optimize" or "/v1/run"
	body    []byte // JSON body, as sent
	dialect string // "fg" or "fun"
	source  string
	inputs  map[string]int64 // /v1/run only
	// quality marks a fixed, seed-determined subset of the requests that
	// every timed run sends. Their responses must also be byte-identical
	// to an uncached in-process optimization, and they alone count in
	// expr_evals_ratio, instrs_ratio and identical_ratio, so those repeat
	// exactly for a seed however many requests a run completes.
	quality bool
}

// workload is one seeded traffic mix.
type workload struct {
	reqs    []request
	prewarm []int           // sent once each, untimed, during set-up
	clients [nClients][]int // each client's timed sequence (indices into reqs)
}

func (w *workload) add(r request) int {
	w.reqs = append(w.reqs, r)
	return len(w.reqs) - 1
}

// deal splits one sequence round-robin across the clients.
func (w *workload) deal(seq []int) {
	for k, ri := range seq {
		w.clients[k%nClients] = append(w.clients[k%nClients], ri)
	}
}

// interleaved is the clients' sequences merged round-robin: the order the
// single-client traced run replays.
func (w *workload) interleaved() []int {
	var out []int
	for k := 0; ; k++ {
		done := true
		for c := range w.clients {
			if k < len(w.clients[c]) {
				out = append(out, w.clients[c][k])
				done = false
			}
		}
		if done {
			return out
		}
	}
}

// scale sizes the workloads. full is the benchmark's; the tests run the
// same generators smaller.
type scale struct {
	cold          int // cold-mix programs
	pool, warm    int // warm-mix pool and sequence length
	steps         int // edit-stream edits per session
	cfg, diamonds int // edit-stream cfggen size and diamond count
	inputs, runs  int // run-kernels bindings per program and sequence length
}

// full sizes every sequence well beyond what a 15-second run on the
// reference host sends, so a faster program is still measured for the
// whole run.
var full = scale{cold: 4000, pool: 256, warm: 100000, steps: 1000, cfg: 60, diamonds: 200, inputs: 16, runs: 100000}

// generate builds the named workload.
func generate(name string, seed int64, sc scale) (*workload, error) {
	switch name {
	case "cold-mix":
		return coldMix(seed, sc.cold)
	case "warm-mix":
		return warmMix(seed, sc.pool, sc.warm)
	case "edit-stream":
		return editStream(seed, sc.steps, sc.cfg, sc.diamonds)
	case "run-kernels":
		return runKernels(seed, sc.inputs, sc.runs)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// subSeed derives the seed of item i of a generation stream (splitmix64),
// so that no two streams or items share a random sequence.
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)<<40 ^ uint64(i)
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

func optimizeRequest(name, dialect, src string) (request, error) {
	body, err := json.Marshal(server.OptimizeRequest{Name: name, Program: src, Dialect: dialect})
	return request{name: name, path: "/v1/optimize", body: body, dialect: dialect, source: src}, err
}

func runRequest(name, src string, inputs map[string]int64) (request, error) {
	body, err := json.Marshal(server.RunRequest{Name: name, Program: src, Dialect: "fun", Inputs: inputs, MaxSteps: runMaxSteps})
	return request{name: name, path: "/v1/run", body: body, dialect: "fun", source: src, inputs: inputs}, err
}

// mixSizes is one stratum of the 6:3:1 mix of cfggen sizes 12/40/200.
// Cycling a fixed stratum, rather than drawing sizes at random, keeps the
// share of large graphs the same on every seed.
var mixSizes = [10]int{12, 40, 12, 12, 200, 12, 40, 12, 40, 12}

// mixProgram is program i of a 6:3:1 cfggen mix: Structured and
// Unstructured alternate, shifting by one every stratum so each size
// meets both families.
func mixProgram(name string, seed int64, i int) string {
	cfg := cfggen.Config{Size: mixSizes[i%len(mixSizes)]}
	if (i+i/len(mixSizes))%2 == 0 {
		return fgText(cfggen.Structured(seed, cfg), name)
	}
	return fgText(cfggen.Unstructured(seed, cfg), name)
}

// fgText prints g under name. cfggen.Unstructured names its end blocks
// "entry" and "exit", which the .fg parser rejects as keywords, so they
// are renamed first.
func fgText(g *ir.Graph, name string) string {
	g.Name = name
	for _, b := range g.Blocks {
		if b.Name == "entry" || b.Name == "exit" {
			b.Name = "u_" + b.Name
		}
	}
	return printer.String(g)
}

// coldMix: n distinct cfggen programs, each optimized once.
func coldMix(seed int64, n int) (*workload, error) {
	w := &workload{}
	seq := make([]int, n)
	for i := range seq {
		name := fmt.Sprintf("cold%d", i)
		r, err := optimizeRequest(name, "fg", mixProgram(name, subSeed(seed, 1, i), i))
		if err != nil {
			return nil, err
		}
		r.quality = i < 400
		seq[i] = w.add(r)
	}
	w.deal(seq)
	return w, nil
}

// warmMix: n requests drawn uniformly from a pool of pool programs — the
// fg corpus, the fn_* programs as dialect fun, and cfggen programs to fill
// — all optimized once during set-up, so every timed request is a
// memory-tier hit.
func warmMix(seed int64, pool, n int) (*workload, error) {
	w := &workload{}
	add := func(name, dialect, src string) error {
		r, err := optimizeRequest(name, dialect, src)
		r.quality = true
		w.prewarm = append(w.prewarm, w.add(r))
		return err
	}
	for _, name := range corpus.Names() {
		if err := add(name, "fg", corpus.Source(name)); err != nil {
			return nil, err
		}
	}
	for _, name := range corpus.FunNames() {
		if err := add(name, "fun", corpus.FunSource(name)); err != nil {
			return nil, err
		}
	}
	for i := 0; len(w.reqs) < pool; i++ {
		name := fmt.Sprintf("warm%d", i)
		if err := add(name, "fg", mixProgram(name, subSeed(seed, 2, i), i)); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 2, -1)))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(len(w.reqs))
	}
	w.deal(seq)
	return w, nil
}

// Edit kinds, used 1:1:1 in every session.
const (
	editCopy    = iota // the right-hand side becomes an in-scope variable
	editLiteral        // a literal changes, or replaces an operand
	editExpr           // the right-hand side becomes a new expression
	editKinds

	// editTries is how many sites an edit draws before falling back to
	// the next kind.
	editTries = 32
)

// editStream: four editor sessions, each a chain of steps cumulative
// one-statement edits over its base. Client c alternates between sessions
// c and c+2. The bases are optimized during set-up.
func editStream(seed int64, steps, size, diamonds int) (*workload, error) {
	w := &workload{}
	sessions := make([][]int, 4)
	add := func(s int, name, dialect, src string, step int) error {
		r, err := optimizeRequest(name, dialect, src)
		if err != nil {
			return err
		}
		r.quality = step >= 0 && step < 100
		idx := w.add(r)
		if step < 0 {
			w.prewarm = append(w.prewarm, idx)
		} else {
			sessions[s] = append(sessions[s], idx)
		}
		return nil
	}

	// Sessions 0-2 edit one flow graph each. The cfggen bases are fixed
	// graphs and the seed picks the edits, so no seed swaps in a cheaper
	// or dearer base.
	graphs := []*ir.Graph{
		cfggen.Structured(1, cfggen.Config{Size: size}),
		cfggen.Unstructured(2, cfggen.Config{Size: size}),
		parse.MustParse(diamondChain(diamonds)),
	}
	for s, g := range graphs {
		name := fmt.Sprintf("session%d", s)
		if err := add(s, name, "fg", fgText(g, name), -1); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(subSeed(seed, 4, s)))
		for k := 0; k < steps; k++ {
			if err := fgEdit(rng, g, k%editKinds); err != nil {
				return nil, fmt.Errorf("session %d step %d: %w", s, k, err)
			}
			if err := add(s, name, "fg", fgText(g, name), k); err != nil {
				return nil, err
			}
		}
	}

	// Session 3 edits the bodies of the functions of the fn_* programs,
	// one program per step in turn.
	funNames := corpus.FunNames()
	srcs := make([]string, len(funNames))
	for i, name := range funNames {
		srcs[i] = corpus.FunSource(name)
		if err := add(3, name, "fun", srcs[i], -1); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 4, 3)))
	for k := 0; k < steps; k++ {
		p := k % len(srcs)
		edited, err := funEdit(rng, srcs[p], k%editKinds)
		if err != nil {
			return nil, fmt.Errorf("session 3 step %d (%s): %w", k, funNames[p], err)
		}
		srcs[p] = edited
		if err := add(3, funNames[p], "fun", edited, k); err != nil {
			return nil, err
		}
	}

	for c := 0; c < nClients; c++ {
		a, b := sessions[c], sessions[c+2]
		for k := 0; k < len(a) || k < len(b); k++ {
			if k < len(a) {
				w.clients[c] = append(w.clients[c], a[k])
			}
			if k < len(b) {
				w.clients[c] = append(w.clients[c], b[k])
			}
		}
	}
	return w, nil
}

// diamondChain is a chain of n branch diamonds (4n+2 blocks) whose
// per-diamond patterns are blocked at the branch, so most one-statement
// edits stay inside one region.
func diamondChain(n int) string {
	var sb strings.Builder
	sb.WriteString("graph diamonds {\n  entry s0\n  exit done\n  block s0 {\n    pre := u + v\n    goto d0\n  }\n")
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("d%d", i+1)
		if i == n-1 {
			next = "done"
		}
		fmt.Fprintf(&sb, "  block d%d {\n    if u + v < 7 then a%d else b%d\n  }\n", i, i, i)
		fmt.Fprintf(&sb, "  block a%d {\n    x%d := p + q\n    y%d := p + q\n    goto j%d\n  }\n", i, i, i, i)
		fmt.Fprintf(&sb, "  block b%d {\n    z%d := p - q\n    goto j%d\n  }\n", i, i, i)
		fmt.Fprintf(&sb, "  block j%d {\n    w%d := x%d\n    goto %s\n  }\n", i, i, i, next)
	}
	sb.WriteString("  block done { out(u) }\n}\n")
	return sb.String()
}

// counter matches cfggen's loop counters. Edits never touch them (or
// Unstructured's fuel), so every edited program still terminates.
var counter = regexp.MustCompile(`^k[0-9]+$`)

func editable(v ir.Var) bool {
	return v != "fuel" && !counter.MatchString(string(v)) && !ir.IsTempName(v)
}

var editOps = []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul}

// fgEdit applies one edit of the given kind to one assignment of g, in
// place; a kind that no longer applies falls back to the next kind.
func fgEdit(rng *rand.Rand, g *ir.Graph, kind int) error {
	type site struct {
		b *ir.Block
		i int
	}
	var sites []site
	for _, b := range g.Blocks {
		for i, in := range b.Instrs {
			if in.Kind == ir.KindAssign && editable(in.LHS) {
				sites = append(sites, site{b, i})
			}
		}
	}
	var vars []ir.Var
	for _, v := range g.SourceVars() {
		if editable(v) {
			vars = append(vars, v)
		}
	}
	if len(sites) == 0 || len(vars) < 2 {
		return errors.New("no editable assignment")
	}
	pick := func() ir.Operand { return ir.VarOp(vars[rng.Intn(len(vars))]) }
	lit := func() ir.Operand { return ir.ConstOp(1 + rng.Int63n(9)) }
	for try := 0; try < editKinds*editTries; try++ {
		s := sites[rng.Intn(len(sites))]
		in := s.b.Instrs[s.i]
		rhs := in.RHS
		switch (kind + try/editTries) % editKinds {
		case editCopy:
			rhs = ir.OperandTerm(pick())
		case editLiteral:
			switch {
			case !rhs.Trivial() && rhs.Args[1].IsConst:
				rhs.Args[1] = ir.ConstOp(rhs.Args[1].Const + 1 + rng.Int63n(4))
			case !rhs.Trivial() && rhs.Args[0].IsConst:
				rhs.Args[0] = ir.ConstOp(rhs.Args[0].Const + 1 + rng.Int63n(4))
			case !rhs.Trivial():
				rhs.Args[1] = lit()
			case rhs.Args[0].IsConst:
				rhs = ir.ConstTerm(rhs.Args[0].Const + 1 + rng.Int63n(4))
			default:
				rhs = ir.BinTerm(ir.OpAdd, rhs.Args[0], lit())
			}
		default:
			rhs = ir.BinTerm(editOps[rng.Intn(len(editOps))], pick(), pick())
		}
		// x := x is skip, which would delete the statement, not edit it.
		if rhs.Equal(in.RHS) || rhs.UsesVar(in.LHS) && rhs.Trivial() {
			continue
		}
		s.b.Instrs[s.i] = ir.NewAssign(in.LHS, rhs)
		return nil
	}
	return errors.New("no edit applies")
}

// funSite matches a statement of a function body that an edit may change:
// a return, a let, or an assignment, with its right-hand side.
var funSite = regexp.MustCompile(`^(\s+)(return |let (\w+)(?:\s*:\s*\w+)?\s*=\s*|(\w+)\s*:=\s*)(.+)$`)

var (
	intLit = regexp.MustCompile(`\b[0-9]+\b`)
	ident  = regexp.MustCompile(`\b[A-Za-z_][A-Za-z0-9_]*\b`)
)

// funEdit applies one edit of the given kind to one statement of a
// function body of the typed-dialect program src. Candidates that do not
// type-check are redrawn; a kind that no longer applies to the edited
// program falls back to the next kind.
func funEdit(rng *rand.Rand, src string, kind int) (string, error) {
	_, res, err := typeinference.Compile(src)
	if err != nil {
		return "", err
	}
	type site struct {
		line int
		fn   string
		want typeinference.Type
	}
	lines := strings.Split(src, "\n")
	var sites []site
	fn := ""
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "fn "):
			fn = strings.TrimSpace(l[3:strings.IndexByte(l, '(')])
		case strings.HasPrefix(l, "}"):
			fn = ""
		case fn != "":
			m := funSite.FindStringSubmatch(l)
			if m == nil {
				continue
			}
			want := res.Funcs[fn].Result
			if target := m[3] + m[4]; target != "" {
				want = res.FuncVars[fn][target]
			}
			sites = append(sites, site{i, fn, want})
		}
	}
	if len(sites) == 0 {
		return "", errors.New("no function-body statement")
	}
	for try := 0; try < editKinds*editTries; try++ {
		s := sites[rng.Intn(len(sites))]
		m := funSite.FindStringSubmatch(lines[s.line])
		head, rhs := m[1]+m[2], m[5]
		var ints, same []string
		for v, t := range res.FuncVars[s.fn] {
			if t == typeinference.Int {
				ints = append(ints, v)
			}
			if t == s.want && v != m[3]+m[4] {
				same = append(same, v)
			}
		}
		sort.Strings(ints)
		sort.Strings(same)
		var next string
		switch (kind + try/editTries) % editKinds {
		case editCopy:
			if len(same) == 0 {
				continue
			}
			next = same[rng.Intn(len(same))]
		case editLiteral:
			var operands [][]int
			for _, loc := range ident.FindAllStringIndex(rhs, -1) {
				if res.FuncVars[s.fn][rhs[loc[0]:loc[1]]] == typeinference.Int {
					operands = append(operands, loc)
				}
			}
			switch {
			case intLit.MatchString(rhs):
				locs := intLit.FindAllStringIndex(rhs, -1)
				loc := locs[rng.Intn(len(locs))]
				v, _ := strconv.Atoi(rhs[loc[0]:loc[1]])
				next = rhs[:loc[0]] + strconv.Itoa(v+1+rng.Intn(9)) + rhs[loc[1]:]
			case rhs == "true":
				next = "false"
			case rhs == "false":
				next = "true"
			case len(operands) > 0:
				loc := operands[rng.Intn(len(operands))]
				next = rhs[:loc[0]] + strconv.Itoa(1+rng.Intn(9)) + rhs[loc[1]:]
			default:
				continue
			}
		default:
			if len(ints) == 0 {
				continue
			}
			a := ints[rng.Intn(len(ints))]
			if s.want == typeinference.Bool {
				next = fmt.Sprintf("%s < %d", a, 1+rng.Intn(9))
			} else {
				next = fmt.Sprintf("%s %s %s", a, editOps[rng.Intn(len(editOps))], ints[rng.Intn(len(ints))])
			}
		}
		if next == rhs {
			continue
		}
		edited := append([]string(nil), lines...)
		edited[s.line] = head + next
		out := strings.Join(edited, "\n")
		if _, _, err := typeinference.Compile(out); err == nil {
			return out, nil
		}
	}
	return "", errors.New("no edit type-checks")
}

// kernels are the benchmark's own typed programs for run-kernels: loops
// whose trip count n is an input, so execution dominates a request.
var kernels = map[string]string{
	"kern_invariant": `fn affine(x: int, m: int, c: int): int {
	return x * m + c
}

prog kern_invariant {
	let i = 0
	let acc = 0
	let t = 0
	while i < n {
		t := affine(a, b, c)
		acc := (acc + t * i) % 65521
		i := i + 1
	}
	out(acc, t)
}
`,
	"kern_redundant": `fn sq(x: int): int {
	return x * x
}

prog kern_redundant {
	let i = 0
	let s = 0
	let u = 0
	do {
		u := sq(i % 97) + sq(a)
		s := (s + u + sq(a)) % 1000003
		i := i + 1
	} while i < n
	out(s, u)
}
`,
	"kern_branch": `prog kern_branch {
	let i = 0
	let v = a
	let evens = 0
	let odds = 0
	while i < n {
		if v % 2 == 0 {
			v := v / 2 + b * b
			evens := evens + 1
		} else {
			v := 3 * v + 1 + b * b
			odds := odds + 1
		}
		v := v % 10007
		i := i + 1
	}
	out(evens, odds, v)
}
`,
}

// runKernels: n /v1/run requests in dialect fun over the kernels, each
// with inputs drawn from a pool of inputsPer seeded bindings. Executions
// are never cached by the server, so a pool costs the server the same as
// fresh inputs while letting the checker verify each distinct (program,
// inputs) pair once. Each kernel is optimized once during set-up; every
// timed optimization is a memory hit. The fn_* programs are left out:
// they run a few dozen steps, so their requests would form a second, far
// faster class, and the median latency would sit on the edge between the
// two classes, where every stall of the host moves it.
func runKernels(seed int64, inputsPer, n int) (*workload, error) {
	w := &workload{}
	names := make([]string, 0, len(kernels))
	for name := range kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(subSeed(seed, 5, 0)))
	for _, name := range names {
		_, res, err := typeinference.Compile(kernels[name])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for k := 0; k < inputsPer; k++ {
			inputs := map[string]int64{}
			for _, v := range res.Inputs {
				if v == "n" {
					// Binding k draws n from the k-th of inputsPer equal
					// strata of [5000, 20000], so every seed spreads the
					// loop bounds, which set a kernel's cost, alike.
					inputs[v] = 5000 + (int64(k)*15001+rng.Int63n(15001))/int64(inputsPer)
				} else {
					inputs[v] = rng.Int63n(201) - 50
				}
			}
			r, err := runRequest(name, kernels[name], inputs)
			if err != nil {
				return nil, err
			}
			r.quality = true
			idx := w.add(r)
			if k == 0 {
				w.prewarm = append(w.prewarm, idx)
			}
		}
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(len(w.reqs))
	}
	w.deal(seq)
	return w, nil
}
