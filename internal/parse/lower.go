package parse

import (
	"fmt"
	"strconv"

	"assignmentmotion/internal/ir"
)

// inlineCallBudget bounds the total number of calls inlined for one unit.
// Nested non-recursive calls can still multiply code size exponentially
// (f calls g twice, g calls h twice, ...); the budget turns that into a
// clean error instead of an effectively unbounded graph.
const inlineCallBudget = 10_000

// maxLoweringDepth bounds the lowering's recursion: statements and
// operands, counted across inlined calls. The parser caps each
// function's own nesting at maxNesting, but an inlined body nests inside
// its call site, so a chain of calls reaches depths no single function
// has, and a Go stack overflow is fatal rather than a panic. A program
// without calls stays below about 2 × maxNesting.
const maxLoweringDepth = 10_000

// Lower desugars the unit into a single flow graph. Functions disappear:
// every call site is inlined, with the callee's parameters and locals
// renamed to per-function instances ("<fn>_<name>") and each call result
// landing in a per-site variable. Because a function's instances are
// shared by all of its call sites, repeated calls materialize as repeated
// assignment patterns — exactly the redundancy the motion passes exist to
// remove. Booleans lower to 0/1 integers; a relational expression in value
// position materializes through a two-way branch.
//
// Precondition: u comes from ParseUnit and has passed
// internal/typeinference's Check, which
// rejects every program the lowering could not lower soundly (undefined
// or duplicate functions, recursion, arity, names outside a function's
// scope, missing returns, break, continue and return out of context).
// typeinference.Compile is the entry point that guarantees it. Lower
// itself fails only when inlining exceeds inlineCallBudget calls or
// maxLoweringDepth levels; the budget also bounds the recursion of a
// unit that was never checked.
func (u *Unit) Lower() (*ir.Graph, error) {
	l := &lowerer{
		b:       ir.NewBuilder(u.Prog.Name),
		ns:      &nestedState{prefix: u.tempPrefix},
		funcs:   map[string]*FuncDecl{},
		mangles: map[string]map[string]ir.Var{},
		idents:  u.idents,
		taken:   map[string]bool{},
	}
	for _, fn := range u.Funcs {
		l.funcs[fn.Name] = fn
	}
	entry := l.newBlock()
	l.b.Block(entry) // an empty body still has its entry block
	l.cur = entry
	if _, err := l.lowerStmts(u.Prog.Body, &loweringFrame{}); err != nil {
		return nil, err
	}
	return l.b.MustFinish(entry, l.cur), nil
}

// lowerer carries the state of one Unit.Lower run.
type lowerer struct {
	b      *ir.Builder
	ns     *nestedState // decomposition + bool temporaries, memoized by term key
	nblock int
	cur    string // block currently receiving instructions
	loops  []*typedLoop
	funcs  map[string]*FuncDecl
	// mangles memoizes the per-function rename table: the same instance
	// variables serve every call site of a function.
	mangles map[string]map[string]ir.Var
	idents  map[string]bool // the source's identifiers (Unit.idents)
	taken   map[string]bool // names freshVar has generated
	calls   int             // inlined calls so far, against inlineCallBudget
	depth   int             // current recursion, against maxLoweringDepth
	rets    int             // per-call-site result variable counter
}

type typedLoop struct {
	continueTo   string
	breakTo      string
	usedContinue bool
	usedBreak    bool
}

// loweringFrame is one inlining context: nil rename means program scope
// (names lower as themselves), a function frame renames through its
// table, which holds every name the checker let the function use.
type loweringFrame struct {
	rename map[string]ir.Var
	retVar ir.Var
	retTo  string
}

func (fr *loweringFrame) resolve(name string) ir.Var {
	if fr.rename == nil {
		return ir.Var(name)
	}
	return fr.rename[name]
}

// nest enters one level of the lowering's recursion, for the statement
// or operand at at, failing past maxLoweringDepth; the caller leaves it
// with l.depth--.
func (l *lowerer) nest(at Pos) error {
	if l.depth++; l.depth > maxLoweringDepth {
		return fmt.Errorf("%d:%d: nesting deeper than %d levels after inlining",
			at.Line, at.Col, maxLoweringDepth)
	}
	return nil
}

func (l *lowerer) newBlock() string {
	l.nblock++
	return fmt.Sprintf("b%d", l.nblock)
}

func (l *lowerer) emit(in ir.Instr) {
	l.b.Block(l.cur).Instr(in)
}

// freshVar returns base, or the first "base_N" that collides with neither
// a source identifier nor an earlier allocation nor the reserved temp
// spelling.
func (l *lowerer) freshVar(base string) ir.Var {
	name := base
	for i := 1; l.idents[name] || l.taken[name] || ir.IsTempName(ir.Var(name)); i++ {
		name = base + "_" + strconv.Itoa(i)
	}
	l.taken[name] = true
	return ir.Var(name)
}

// mangleFunc builds (once) the instance-variable table of fn.
func (l *lowerer) mangleFunc(fn *FuncDecl) map[string]ir.Var {
	if m := l.mangles[fn.Name]; m != nil {
		return m
	}
	m := map[string]ir.Var{}
	for _, p := range fn.Params {
		if _, ok := m[p.Name]; !ok {
			m[p.Name] = l.freshVar(fn.Name + "_" + p.Name)
		}
	}
	collectLets(fn.Body, func(name string) {
		if _, ok := m[name]; !ok {
			m[name] = l.freshVar(fn.Name + "_" + name)
		}
	})
	l.mangles[fn.Name] = m
	return m
}

// lowerStmts lowers a statement list into the current block chain. It
// returns true when control cannot fall out of the list (break, continue,
// return, or an if whose branches all terminate); any trailing statements
// are unreachable and dropped — typeinference reports them.
func (l *lowerer) lowerStmts(stmts []Stmt, fr *loweringFrame) (bool, error) {
	for _, s := range stmts {
		terminated, err := l.lowerStmt(s, fr)
		if err != nil {
			return false, err
		}
		if terminated {
			return true, nil
		}
	}
	return false, nil
}

func (l *lowerer) lowerStmt(s Stmt, fr *loweringFrame) (bool, error) {
	if err := l.nest(s.StmtPos()); err != nil {
		return false, err
	}
	defer func() { l.depth-- }()
	switch s := s.(type) {
	case *LetStmt:
		return false, l.lowerValueInto(fr.resolve(s.Name), s.Init, fr)
	case *AssignStmt:
		return false, l.lowerValueInto(fr.resolve(s.Name), s.Value, fr)
	case *OutStmt:
		args := make([]ir.Operand, len(s.Args))
		for i, a := range s.Args {
			o, err := l.lowerOperand(a, fr)
			if err != nil {
				return false, err
			}
			args[i] = o
		}
		l.emit(ir.NewOut(args...))
		return false, nil
	case *SkipStmt:
		l.emit(ir.Skip())
		return false, nil
	case *IfStmt:
		return l.lowerIf(s, fr)
	case *WhileStmt:
		return false, l.lowerWhile(s, fr)
	case *DoWhileStmt:
		return l.lowerDoWhile(s, fr)
	case *BreakStmt, *ContinueStmt:
		top := l.loops[len(l.loops)-1]
		target := top.breakTo
		if _, ok := s.(*ContinueStmt); ok {
			target = top.continueTo
			top.usedContinue = true
		} else {
			top.usedBreak = true
		}
		l.b.Edge(l.cur, target)
		return true, nil
	case *ReturnStmt:
		if err := l.lowerValueInto(fr.retVar, s.Value, fr); err != nil {
			return false, err
		}
		l.b.Edge(l.cur, fr.retTo)
		return true, nil
	}
	panic(fmt.Sprintf("parse: cannot lower statement %T", s))
}

// lowerValueInto assigns value to dst. A direct call lands its result in
// dst without an intermediate result variable.
func (l *lowerer) lowerValueInto(dst ir.Var, value Expr, fr *loweringFrame) error {
	if call, ok := value.(*CallExpr); ok {
		_, err := l.lowerCall(call, fr, dst)
		return err
	}
	t, err := l.lowerTermExpr(value, fr)
	if err != nil {
		return err
	}
	l.emit(ir.NewAssign(dst, t))
	return nil
}

func (l *lowerer) lowerIf(s *IfStmt, fr *loweringFrame) (bool, error) {
	if err := l.lowerCond(s.Cond, fr); err != nil {
		return false, err
	}
	condBlk := l.cur
	thenB := l.newBlock()
	join := l.newBlock()
	elseTarget := join
	if s.Else != nil {
		elseTarget = l.newBlock()
	}
	l.b.Edge(condBlk, thenB)
	l.b.Edge(condBlk, elseTarget)

	l.cur = thenB
	thenTerm, err := l.lowerStmts(s.Then, fr)
	if err != nil {
		return false, err
	}
	if !thenTerm {
		l.b.Edge(l.cur, join)
	}
	elseTerm := false
	if s.Else != nil {
		l.cur = elseTarget
		elseTerm, err = l.lowerStmts(s.Else, fr)
		if err != nil {
			return false, err
		}
		if !elseTerm {
			l.b.Edge(l.cur, join)
		}
	}
	if thenTerm && elseTerm {
		// Both branches left; the join block was never created and
		// anything after the if is unreachable.
		return true, nil
	}
	l.cur = join
	return false, nil
}

func (l *lowerer) lowerWhile(s *WhileStmt, fr *loweringFrame) error {
	hdr := l.newBlock()
	l.b.Edge(l.cur, hdr)
	l.cur = hdr
	if err := l.lowerCond(s.Cond, fr); err != nil {
		return err
	}
	condBlk := l.cur
	body := l.newBlock()
	after := l.newBlock()
	l.b.Edge(condBlk, body)
	l.b.Edge(condBlk, after)

	// continue re-enters at hdr so the full condition chain (including any
	// decomposition or call blocks) re-executes.
	l.loops = append(l.loops, &typedLoop{continueTo: hdr, breakTo: after})
	l.cur = body
	bodyTerm, err := l.lowerStmts(s.Body, fr)
	l.loops = l.loops[:len(l.loops)-1]
	if err != nil {
		return err
	}
	if !bodyTerm {
		l.b.Edge(l.cur, hdr)
	}
	l.cur = after
	return nil
}

func (l *lowerer) lowerDoWhile(s *DoWhileStmt, fr *loweringFrame) (bool, error) {
	body := l.newBlock()
	condEntry := l.newBlock()
	after := l.newBlock()
	l.b.Edge(l.cur, body)

	loop := &typedLoop{continueTo: condEntry, breakTo: after}
	l.loops = append(l.loops, loop)
	l.cur = body
	bodyTerm, err := l.lowerStmts(s.Body, fr)
	l.loops = l.loops[:len(l.loops)-1]
	if err != nil {
		return false, err
	}
	if !bodyTerm {
		l.b.Edge(l.cur, condEntry)
	}
	if bodyTerm && !loop.usedContinue {
		// The condition is unreachable: the body always leaves the loop.
		// Don't materialize dangling blocks; control continues after the
		// loop only if some break targeted it.
		if !loop.usedBreak {
			return true, nil
		}
		l.cur = after
		return false, nil
	}
	l.cur = condEntry
	if err := l.lowerCond(s.Cond, fr); err != nil {
		return false, err
	}
	l.b.Edge(l.cur, body)
	l.b.Edge(l.cur, after)
	l.cur = after
	return false, nil
}

// lowerCond emits the branch condition for e into the current block. The
// caller adds the two outgoing edges (then-target first). A relational
// expression branches directly; any other (bool-typed) expression compares
// its 0/1 value against 0.
func (l *lowerer) lowerCond(e Expr, fr *loweringFrame) error {
	if be, ok := e.(*BinExpr); ok && be.Op.IsRel() {
		lt, err := l.lowerTermExpr(be.L, fr)
		if err != nil {
			return err
		}
		rt, err := l.lowerTermExpr(be.R, fr)
		if err != nil {
			return err
		}
		l.emit(ir.NewCond(be.Op, lt, rt))
		return nil
	}
	o, err := l.lowerOperand(e, fr)
	if err != nil {
		return err
	}
	l.emit(ir.NewCond(ir.OpNE, ir.OperandTerm(o), ir.ConstTerm(0)))
	return nil
}

// lowerTermExpr reduces e to a 3-address term (at most one operator),
// decomposing nested sub-expressions through memoized temporaries exactly
// as the nested dialect does.
func (l *lowerer) lowerTermExpr(e Expr, fr *loweringFrame) (ir.Term, error) {
	if be, ok := e.(*BinExpr); ok && be.Op.IsArith() {
		lo, err := l.lowerOperand(be.L, fr)
		if err != nil {
			return ir.Term{}, err
		}
		ro, err := l.lowerOperand(be.R, fr)
		if err != nil {
			return ir.Term{}, err
		}
		return ir.BinTerm(be.Op, lo, ro), nil
	}
	o, err := l.lowerOperand(e, fr)
	if err != nil {
		return ir.Term{}, err
	}
	return ir.OperandTerm(o), nil
}

// lowerOperand reduces e to a single operand, introducing decomposition
// temporaries, bool materialization, or call inlining as needed.
func (l *lowerer) lowerOperand(e Expr, fr *loweringFrame) (ir.Operand, error) {
	if err := l.nest(e.ExprPos()); err != nil {
		return ir.Operand{}, err
	}
	defer func() { l.depth-- }()
	switch e := e.(type) {
	case *IntLit:
		return ir.ConstOp(e.Value), nil
	case *BoolLit:
		if e.Value {
			return ir.ConstOp(1), nil
		}
		return ir.ConstOp(0), nil
	case *VarRef:
		return ir.VarOp(fr.resolve(e.Name)), nil
	case *CallExpr:
		return l.lowerCall(e, fr, "")
	case *BinExpr:
		if e.Op.IsArith() {
			t, err := l.lowerTermExpr(e, fr)
			if err != nil {
				return ir.Operand{}, err
			}
			v := l.ns.tempFor(t)
			l.emit(ir.NewAssign(v, t))
			return ir.VarOp(v), nil
		}
		return l.materializeBool(e, fr)
	}
	panic(fmt.Sprintf("parse: cannot lower expression %T", e))
}

// materializeBool turns a relational expression in value position into a
// 0/1 variable via a two-way branch. The variable is memoized by the
// condition's spelling, so repeated occurrences share one name (each still
// computes its own value; sharing is the optimizer's job).
func (l *lowerer) materializeBool(e *BinExpr, fr *loweringFrame) (ir.Operand, error) {
	lt, err := l.lowerTermExpr(e.L, fr)
	if err != nil {
		return ir.Operand{}, err
	}
	rt, err := l.lowerTermExpr(e.R, fr)
	if err != nil {
		return ir.Operand{}, err
	}
	v := l.ns.relTempFor(e.Op, lt, rt)
	l.emit(ir.NewCond(e.Op, lt, rt))
	condBlk := l.cur
	tB := l.newBlock()
	fB := l.newBlock()
	join := l.newBlock()
	l.b.Edge(condBlk, tB)
	l.b.Edge(condBlk, fB)
	l.b.Block(tB).Assign(v, ir.ConstTerm(1))
	l.b.Edge(tB, join)
	l.b.Block(fB).Assign(v, ir.ConstTerm(0))
	l.b.Edge(fB, join)
	l.cur = join
	return ir.VarOp(v), nil
}

// lowerCall inlines a call. When dst is non-empty the result lands there;
// otherwise a fresh per-site result variable is allocated. Arguments are
// evaluated left to right in the caller's frame, copied into the callee's
// parameter instances, and the body is lowered with returns rewired to a
// continuation block.
func (l *lowerer) lowerCall(e *CallExpr, fr *loweringFrame, dst ir.Var) (ir.Operand, error) {
	fn := l.funcs[e.Name]
	l.calls++
	if l.calls > inlineCallBudget {
		return ir.Operand{}, fmt.Errorf("%d:%d: inline budget exceeded (more than %d calls after inlining)",
			e.Pos.Line, e.Pos.Col, inlineCallBudget)
	}

	args := make([]ir.Operand, len(e.Args))
	for i, a := range e.Args {
		o, err := l.lowerOperand(a, fr)
		if err != nil {
			return ir.Operand{}, err
		}
		args[i] = o
	}
	rename := l.mangleFunc(fn)
	for i, p := range fn.Params {
		l.emit(ir.NewAssign(rename[p.Name], ir.OperandTerm(args[i])))
	}
	ret := dst
	if ret == "" {
		l.rets++
		ret = l.freshVar(e.Name + "_ret" + strconv.Itoa(l.rets))
	}
	cont := l.newBlock()
	nfr := &loweringFrame{rename: rename, retVar: ret, retTo: cont}
	savedLoops := l.loops
	l.loops = nil // the callee must not see the caller's loops
	_, err := l.lowerStmts(fn.Body, nfr)
	l.loops = savedLoops
	if err != nil {
		return ir.Operand{}, err
	}
	l.cur = cont
	return ir.VarOp(ret), nil
}

// collectLets calls f with every let-declared name in the statement tree.
func collectLets(stmts []Stmt, f func(string)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *LetStmt:
			f(s.Name)
		case *IfStmt:
			collectLets(s.Then, f)
			collectLets(s.Else, f)
		case *WhileStmt:
			collectLets(s.Body, f)
		case *DoWhileStmt:
			collectLets(s.Body, f)
		}
	}
}
