// Package typeinference checks the typed dialect: per-variable types with
// inference (annotations are optional), function signatures, scope and
// reachability rules. It runs in two modes. The strict mode (Check,
// Compile) fails on the first error, for the compile pipeline. InspectMode
// (Inspect) is the tooling mode: it tolerates errors and returns partial
// results — every type it could still infer — plus the full structured
// diagnostic list, so editors and linters see the whole picture from one
// pass over a broken program.
package typeinference

import (
	"fmt"
	"sort"

	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
)

// Type is an inferred variable type. Unknown means inference could not
// decide — only possible alongside diagnostics.
type Type int

const (
	Unknown Type = iota
	Int
	Bool
)

func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Bool:
		return "bool"
	}
	return "unknown"
}

func typeOfName(name string) Type {
	switch name {
	case parse.TypeInt:
		return Int
	case parse.TypeBool:
		return Bool
	}
	return Unknown
}

// Severity of a diagnostic. Errors fail strict checking; warnings never do.
const (
	SeverityError   = "error"
	SeverityWarning = "warning"
)

// Diagnostic is one structured finding: a stable machine-readable code, a
// source position, and a human message.
type Diagnostic struct {
	Pos      parse.Pos `json:"pos"`
	Code     string    `json:"code"`
	Severity string    `json:"severity"`
	Message  string    `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s", d.Pos.Line, d.Pos.Col, d.Message)
}

// Diagnostic codes.
const (
	CodeDuplicateFunc  = "duplicate-func"
	CodeDuplicateParam = "duplicate-param"
	CodeRecursion      = "recursive-call"
	CodeUndefinedFunc  = "undefined-func"
	CodeArity          = "arity-mismatch"
	CodeUndeclaredVar  = "undeclared-var"
	CodeRedeclaredVar  = "redeclared-var"
	CodeUseBeforeLet   = "use-before-declaration"
	CodeTypeMismatch   = "type-mismatch"
	CodeCondNotBool    = "condition-not-bool"
	CodeReservedName   = "reserved-temp-name"
	CodeLoopContext    = "outside-loop"
	CodeReturnContext  = "return-outside-function"
	CodeMissingReturn  = "missing-return"
	CodeUnreachable    = "unreachable-code"
)

// Signature is a function's checked type.
type Signature struct {
	Params []Type `json:"params"`
	Result Type   `json:"result"`
}

// Result is everything one checking pass learned.
type Result struct {
	// Funcs maps function name → signature.
	Funcs map[string]Signature `json:"funcs,omitempty"`
	// FuncVars maps function name → its parameters and locals with types.
	FuncVars map[string]map[string]Type `json:"funcVars,omitempty"`
	// ProgVars maps program-scope variables (declared, assigned, or free)
	// to their types.
	ProgVars map[string]Type `json:"progVars,omitempty"`
	// Inputs lists the program's free variables — read before any
	// assignment, bound at execution time — in sorted order.
	Inputs []string `json:"inputs,omitempty"`
	// Diags holds every finding, in source order of discovery.
	Diags []Diagnostic `json:"diags,omitempty"`
}

// Errs returns the error-severity diagnostics.
func (r *Result) Errs() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == SeverityError {
			out = append(out, d)
		}
	}
	return out
}

// Options configure checking.
type Options struct {
	// InspectMode relaxes validation: checking never fails on semantic
	// errors; they are all collected as diagnostics alongside the partial
	// results. Syntax errors still fail, upstream, in the parser.
	InspectMode bool
}

// Check type-checks a parsed unit. In strict mode (InspectMode false), the
// returned error summarizes the first error diagnostic; the Result is
// still populated with everything learned up to and past it. In
// InspectMode the error is always nil.
func Check(u *parse.Unit, opts Options) (*Result, error) {
	c := &checker{
		opts:  opts,
		funcs: map[string]*parse.FuncDecl{},
		res: &Result{
			Funcs:    map[string]Signature{},
			FuncVars: map[string]map[string]Type{},
			ProgVars: map[string]Type{},
		},
	}
	c.run(u)
	if !opts.InspectMode {
		if errs := c.res.Errs(); len(errs) > 0 {
			return c.res, fmt.Errorf("%s", errs[0])
		}
	}
	return c.res, nil
}

// Inspect parses and checks src in InspectMode: semantic problems become
// diagnostics, never errors. Only a lex/parse failure returns an error.
func Inspect(src string) (*Result, error) {
	u, err := parse.ParseUnit(src)
	if err != nil {
		return nil, err
	}
	return Check(u, Options{InspectMode: true})
}

// Compile is the strict front door and the only way a fun source becomes
// a graph: parse, check, lower. The lowering trusts the check that runs
// before it, so past the checker it fails only on its inline budget or
// its depth bound. The Result is returned even when checking fails, for
// error reporting with types.
func Compile(src string) (*ir.Graph, *Result, error) {
	u, err := parse.ParseUnit(src)
	if err != nil {
		return nil, nil, err
	}
	res, err := Check(u, Options{})
	if err != nil {
		return nil, res, err
	}
	g, err := u.Lower()
	if err != nil {
		return nil, res, err
	}
	return g, res, nil
}

type checker struct {
	opts      Options
	funcs     map[string]*parse.FuncDecl
	res       *Result
	loopDepth int
	// returns accumulates the inferred result type of each function whose
	// annotation was omitted.
	returns map[string]Type
}

func (c *checker) diag(at parse.Pos, code, severity, format string, args ...any) {
	c.res.Diags = append(c.res.Diags, Diagnostic{
		Pos: at, Code: code, Severity: severity, Message: fmt.Sprintf(format, args...),
	})
}

func (c *checker) errf(at parse.Pos, code, format string, args ...any) {
	c.diag(at, code, SeverityError, format, args...)
}

// varInfo tracks one variable in a scope.
type varInfo struct {
	typ   Type
	let   bool // declared with let (or a parameter)
	input bool // program-scope free variable read before assignment
}

// scope is one flat checking scope: a function (strict: every name must be
// a parameter or local) or the program (free variables are inputs, as in
// the flat dialects).
type scope struct {
	fn   *parse.FuncDecl // nil for the program
	vars map[string]*varInfo
}

func (c *checker) run(u *parse.Unit) {
	// Declarations and signature skeletons first, so bodies can call in
	// any order.
	for _, fn := range u.Funcs {
		if c.funcs[fn.Name] != nil {
			c.errf(fn.Pos, CodeDuplicateFunc, "duplicate function %q", fn.Name)
			continue
		}
		c.funcs[fn.Name] = fn
		sig := Signature{Result: typeOfName(fn.Result)}
		for _, p := range fn.Params {
			sig.Params = append(sig.Params, typeOfName(p.Typ))
		}
		c.res.Funcs[fn.Name] = sig
	}

	// Check functions in call-graph order so inferred result types are
	// available at call sites; cycles are reported and broken.
	for _, fn := range c.sortFuncs(u) {
		c.checkFunc(fn)
	}

	if u.Prog != nil {
		c.checkProg(u.Prog)
	}
}

// sortFuncs returns the functions in callee-before-caller order, emitting
// recursion diagnostics for call-graph cycles (which the inliner cannot
// lower).
func (c *checker) sortFuncs(u *parse.Unit) []*parse.FuncDecl {
	type edge struct {
		callee string
		at     parse.Pos
	}
	callees := map[string][]edge{}
	for name, fn := range c.funcs {
		var list []edge
		walkCalls(fn.Body, func(call *parse.CallExpr) {
			list = append(list, edge{callee: call.Name, at: call.Pos})
		})
		callees[name] = list
	}
	const (
		white = iota
		gray
		black
	)
	state := map[string]int{}
	var order []*parse.FuncDecl
	var visit func(name string)
	visit = func(name string) {
		state[name] = gray
		for _, e := range callees[name] {
			target := c.funcs[e.callee]
			if target == nil {
				continue // undefined: reported while checking the body
			}
			switch state[e.callee] {
			case white:
				visit(e.callee)
			case gray:
				c.errf(e.at, CodeRecursion,
					"recursive call to %q (functions must not recurse)", e.callee)
			}
		}
		state[name] = black
		order = append(order, c.funcs[name])
	}
	// Iterate declaration order for deterministic output.
	for _, fn := range u.Funcs {
		if c.funcs[fn.Name] == fn && state[fn.Name] == white {
			visit(fn.Name)
		}
	}
	return order
}

func walkCalls(stmts []parse.Stmt, f func(*parse.CallExpr)) {
	var walkExpr func(parse.Expr)
	walkExpr = func(e parse.Expr) {
		switch e := e.(type) {
		case *parse.BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *parse.CallExpr:
			f(e)
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	var walk func([]parse.Stmt)
	walk = func(stmts []parse.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *parse.LetStmt:
				walkExpr(s.Init)
			case *parse.AssignStmt:
				walkExpr(s.Value)
			case *parse.OutStmt:
				for _, a := range s.Args {
					walkExpr(a)
				}
			case *parse.IfStmt:
				walkExpr(s.Cond)
				walk(s.Then)
				walk(s.Else)
			case *parse.WhileStmt:
				walkExpr(s.Cond)
				walk(s.Body)
			case *parse.DoWhileStmt:
				walk(s.Body)
				walkExpr(s.Cond)
			case *parse.ReturnStmt:
				walkExpr(s.Value)
			}
		}
	}
	walk(stmts)
}

func (c *checker) checkFunc(fn *parse.FuncDecl) {
	sc := &scope{fn: fn, vars: map[string]*varInfo{}}
	for _, p := range fn.Params {
		c.checkName(p.Pos, p.Name)
		if _, dup := sc.vars[p.Name]; dup {
			c.errf(p.Pos, CodeDuplicateParam, "duplicate parameter %q", p.Name)
			continue
		}
		sc.vars[p.Name] = &varInfo{typ: typeOfName(p.Typ), let: true}
	}

	saved := c.loopDepth
	c.loopDepth = 0
	terminated := c.checkStmts(fn.Body, sc, &returnCtx{fn: fn, declared: typeOfName(fn.Result)})
	c.loopDepth = saved

	if !terminated {
		c.errf(fn.Pos, CodeMissingReturn, "function %q does not return on every path", fn.Name)
	}

	// Publish the (possibly refined) signature and variable types.
	sig := c.res.Funcs[fn.Name]
	if rc := c.returns[fn.Name]; rc != Unknown && sig.Result == Unknown {
		sig.Result = rc
	}
	c.res.Funcs[fn.Name] = sig
	vars := map[string]Type{}
	for name, vi := range sc.vars {
		vars[name] = vi.typ
	}
	c.res.FuncVars[fn.Name] = vars
}

func (c *checker) checkProg(prog *parse.ProgDecl) {
	sc := &scope{vars: map[string]*varInfo{}}
	c.checkStmts(prog.Body, sc, &returnCtx{})
	var inputs []string
	for name, vi := range sc.vars {
		c.res.ProgVars[name] = vi.typ
		if vi.input {
			inputs = append(inputs, name)
		}
	}
	sort.Strings(inputs)
	c.res.Inputs = inputs
}

// returnCtx carries return typing for the enclosing function; zero value
// means program scope.
type returnCtx struct {
	fn       *parse.FuncDecl
	declared Type // annotated result type, or Unknown
}

func (c *checker) checkName(at parse.Pos, name string) {
	if ir.IsTempName(ir.Var(name)) {
		c.errf(at, CodeReservedName,
			"variable %q uses the reserved temporary spelling h<digits>", name)
	}
}

// checkStmts checks a list, reporting unreachable trailing statements
// (once per list — the first unreachable statement names the tail). It
// returns whether control cannot fall out of the list.
func (c *checker) checkStmts(stmts []parse.Stmt, sc *scope, rc *returnCtx) bool {
	terminated, reported := false, false
	for _, s := range stmts {
		if terminated && !reported {
			at := s.StmtPos()
			c.diag(at, CodeUnreachable, SeverityWarning, "unreachable statement")
			reported = true
		}
		if c.checkStmt(s, sc, rc) {
			terminated = true
		}
	}
	return terminated
}

func (c *checker) checkStmt(s parse.Stmt, sc *scope, rc *returnCtx) bool {
	switch s := s.(type) {
	case *parse.LetStmt:
		c.checkName(s.Pos, s.Name)
		it := c.typeExpr(s.Init, sc)
		declared := typeOfName(s.Typ)
		if declared != Unknown && it != Unknown && declared != it {
			c.errf(s.Init.ExprPos(), CodeTypeMismatch,
				"cannot initialize %s variable %q with %s value", declared, s.Name, it)
		}
		typ := declared
		if typ == Unknown {
			typ = it
		}
		if vi, exists := sc.vars[s.Name]; exists {
			code := CodeRedeclaredVar
			msg := "variable %q already declared"
			if vi.input {
				code, msg = CodeUseBeforeLet, "variable %q used before its declaration"
			}
			c.errf(s.Pos, code, msg, s.Name)
			vi.typ = typ
			vi.let = true
		} else {
			sc.vars[s.Name] = &varInfo{typ: typ, let: true}
		}
		return false
	case *parse.AssignStmt:
		c.checkName(s.Pos, s.Name)
		vt := c.typeExpr(s.Value, sc)
		vi := sc.vars[s.Name]
		if vi == nil {
			if sc.fn != nil {
				c.errf(s.Pos, CodeUndeclaredVar,
					"variable %q is not a parameter or local of function %q", s.Name, sc.fn.Name)
				if c.opts.InspectMode {
					sc.vars[s.Name] = &varInfo{typ: vt}
				}
				return false
			}
			// Program scope: assignment introduces the variable, as in the
			// flat dialects.
			sc.vars[s.Name] = &varInfo{typ: vt}
			return false
		}
		if vi.typ == Unknown {
			vi.typ = vt
		} else if vt != Unknown && vt != vi.typ {
			c.errf(s.Value.ExprPos(), CodeTypeMismatch,
				"cannot assign %s value to %s variable %q", vt, vi.typ, s.Name)
		}
		return false
	case *parse.OutStmt:
		for _, a := range s.Args {
			c.typeExpr(a, sc) // int and bool both print
		}
		return false
	case *parse.SkipStmt:
		return false
	case *parse.IfStmt:
		c.checkCond(s.Cond, sc)
		thenTerm := c.checkStmts(s.Then, sc, rc)
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.checkStmts(s.Else, sc, rc)
		}
		return thenTerm && elseTerm && s.Else != nil
	case *parse.WhileStmt:
		c.checkCond(s.Cond, sc)
		c.loopDepth++
		c.checkStmts(s.Body, sc, rc)
		c.loopDepth--
		return false
	case *parse.DoWhileStmt:
		c.loopDepth++
		c.checkStmts(s.Body, sc, rc)
		c.loopDepth--
		c.checkCond(s.Cond, sc)
		return false
	case *parse.BreakStmt:
		if c.loopDepth == 0 {
			c.errf(s.Pos, CodeLoopContext, "break outside a loop")
		}
		return true
	case *parse.ContinueStmt:
		if c.loopDepth == 0 {
			c.errf(s.Pos, CodeLoopContext, "continue outside a loop")
		}
		return true
	case *parse.ReturnStmt:
		vt := c.typeExpr(s.Value, sc)
		if rc.fn == nil {
			c.errf(s.Pos, CodeReturnContext, "return outside a function")
			return true
		}
		c.recordReturn(rc, s, vt)
		return true
	}
	return false
}

// recordReturn unifies one return's type into the function's result type.
func (c *checker) recordReturn(rc *returnCtx, s *parse.ReturnStmt, vt Type) {
	name := rc.fn.Name
	if rc.declared != Unknown {
		if vt != Unknown && vt != rc.declared {
			c.errf(s.Value.ExprPos(), CodeTypeMismatch,
				"function %q returns %s, got %s", name, rc.declared, vt)
		}
		return
	}
	if c.returns == nil {
		c.returns = map[string]Type{}
	}
	prev := c.returns[name]
	switch {
	case prev == Unknown:
		c.returns[name] = vt
	case vt != Unknown && vt != prev:
		c.errf(s.Value.ExprPos(), CodeTypeMismatch,
			"function %q returns %s here but %s elsewhere", name, vt, prev)
	}
}

func (c *checker) checkCond(e parse.Expr, sc *scope) {
	t := c.typeExpr(e, sc)
	if t != Unknown && t != Bool {
		c.errf(e.ExprPos(), CodeCondNotBool, "condition has type %s, want bool", t)
	}
}

// typeExpr infers the type of e, reporting mismatches along the way.
func (c *checker) typeExpr(e parse.Expr, sc *scope) Type {
	switch e := e.(type) {
	case *parse.IntLit:
		return Int
	case *parse.BoolLit:
		return Bool
	case *parse.VarRef:
		c.checkName(e.Pos, e.Name)
		if vi, ok := sc.vars[e.Name]; ok {
			return vi.typ
		}
		if sc.fn != nil {
			c.errf(e.Pos, CodeUndeclaredVar,
				"variable %q is not a parameter or local of function %q", e.Name, sc.fn.Name)
			if c.opts.InspectMode {
				sc.vars[e.Name] = &varInfo{}
			}
			return Unknown
		}
		// Program scope: a read of an unseen variable is a free input;
		// inputs are integers.
		sc.vars[e.Name] = &varInfo{typ: Int, input: true}
		return Int
	case *parse.BinExpr:
		lt := c.typeExpr(e.L, sc)
		rt := c.typeExpr(e.R, sc)
		want := "operands of %q must be int, got %s"
		if lt == Bool {
			c.errf(e.L.ExprPos(), CodeTypeMismatch, want, e.Op, lt)
		}
		if rt == Bool {
			c.errf(e.R.ExprPos(), CodeTypeMismatch, want, e.Op, rt)
		}
		if e.Op.IsRel() {
			return Bool
		}
		return Int
	case *parse.CallExpr:
		fn := c.funcs[e.Name]
		if fn == nil {
			c.errf(e.Pos, CodeUndefinedFunc, "call to undefined function %q", e.Name)
			for _, a := range e.Args {
				c.typeExpr(a, sc)
			}
			return Unknown
		}
		sig := c.res.Funcs[e.Name]
		if len(e.Args) != len(sig.Params) {
			c.errf(e.Pos, CodeArity, "%q takes %d argument(s), got %d",
				e.Name, len(sig.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at := c.typeExpr(a, sc)
			if i < len(sig.Params) && at != Unknown && sig.Params[i] != Unknown && at != sig.Params[i] {
				c.errf(a.ExprPos(), CodeTypeMismatch,
					"argument %d of %q must be %s, got %s", i+1, e.Name, sig.Params[i], at)
			}
		}
		return sig.Result
	}
	return Unknown
}
