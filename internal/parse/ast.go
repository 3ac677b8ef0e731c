package parse

import "assignmentmotion/internal/ir"

// This file defines the syntax tree of the typed dialect ("fun" dialect):
// the structured mini-language extended with function definitions, typed
// "let" declarations, calls, and booleans. ParseUnit (typed.go) produces a
// *Unit, internal/typeinference checks it, and Unit.Lower (lower.go), which
// trusts that check, inlines calls and desugars the result into a plain
// ir.Graph so every downstream pass works unchanged.
// typeinference.Compile runs all three.

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// Type names as written in source. The empty string means "not annotated";
// typeinference fills it in.
const (
	TypeInt  = "int"
	TypeBool = "bool"
)

// Unit is one source file of the typed dialect: zero or more function
// definitions followed by a single program.
type Unit struct {
	Funcs []*FuncDecl
	Prog  *ProgDecl

	// idents holds every identifier token of the source, and tempPrefix
	// the decomposition prefix none of them clashes with: the names the
	// lowering generates avoid both.
	idents     map[string]bool
	tempPrefix string
}

// FuncDecl is "fn name(params): result { body }". Result is "" when the
// annotation is omitted (inferred from return statements). Every function
// returns a value; there are no void functions.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Params []Param
	Result string // TypeInt, TypeBool, or "" (inferred)
	Body   []Stmt
}

// Param is one "name: type" function parameter. Parameter types are
// mandatory — they anchor the inference.
type Param struct {
	Pos  Pos
	Name string
	Typ  string
}

// ProgDecl is "prog name { body }".
type ProgDecl struct {
	Pos  Pos
	Name string
	Body []Stmt
}

// Stmt is a statement node.
type Stmt interface {
	StmtPos() Pos
	stmtNode()
}

// LetStmt is "let name[: typ] = init". Declares a new variable.
type LetStmt struct {
	Pos  Pos
	Name string
	Typ  string // TypeInt, TypeBool, or "" (inferred from Init)
	Init Expr
}

// AssignStmt is "name := value" to an already-declared variable.
type AssignStmt struct {
	Pos   Pos
	Name  string
	Value Expr
}

// OutStmt is "out(args...)".
type OutStmt struct {
	Pos  Pos
	Args []Expr
}

// SkipStmt is "skip".
type SkipStmt struct {
	Pos Pos
}

// IfStmt is "if cond { then } [else { else }]"; an "else if" chain parses
// as an Else list holding a single IfStmt. Else is nil when absent.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// WhileStmt is "while cond { body }".
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body []Stmt
}

// DoWhileStmt is "do { body } while cond".
type DoWhileStmt struct {
	Pos  Pos
	Body []Stmt
	Cond Expr
}

// BreakStmt / ContinueStmt refer to the innermost loop.
type BreakStmt struct{ Pos Pos }
type ContinueStmt struct{ Pos Pos }

// ReturnStmt is "return value"; only valid inside a function.
type ReturnStmt struct {
	Pos   Pos
	Value Expr
}

func (s *LetStmt) StmtPos() Pos      { return s.Pos }
func (s *AssignStmt) StmtPos() Pos   { return s.Pos }
func (s *OutStmt) StmtPos() Pos      { return s.Pos }
func (s *SkipStmt) StmtPos() Pos     { return s.Pos }
func (s *IfStmt) StmtPos() Pos       { return s.Pos }
func (s *WhileStmt) StmtPos() Pos    { return s.Pos }
func (s *DoWhileStmt) StmtPos() Pos  { return s.Pos }
func (s *BreakStmt) StmtPos() Pos    { return s.Pos }
func (s *ContinueStmt) StmtPos() Pos { return s.Pos }
func (s *ReturnStmt) StmtPos() Pos   { return s.Pos }

func (*LetStmt) stmtNode()      {}
func (*AssignStmt) stmtNode()   {}
func (*OutStmt) stmtNode()      {}
func (*SkipStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}

// Expr is an expression node.
type Expr interface {
	ExprPos() Pos
	// nesting is the number of operators and calls on the deepest path
	// down from the node, its own included.
	nesting() int
}

// IntLit is an integer literal; unary minus is folded in by the parser.
type IntLit struct {
	Pos   Pos
	Value int64
}

// BoolLit is "true" or "false".
type BoolLit struct {
	Pos   Pos
	Value bool
}

// VarRef reads a variable.
type VarRef struct {
	Pos  Pos
	Name string
}

// BinExpr is a binary operation: arithmetic (+ - * / %, int → int) or
// relational (< <= > >= == !=, int → bool, non-associative).
type BinExpr struct {
	Pos Pos
	Op  ir.Op
	L   Expr
	R   Expr

	depth int // nesting()
}

// CallExpr calls a function defined in the same unit.
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr

	depth int // nesting()
}

func (e *IntLit) ExprPos() Pos   { return e.Pos }
func (e *BoolLit) ExprPos() Pos  { return e.Pos }
func (e *VarRef) ExprPos() Pos   { return e.Pos }
func (e *BinExpr) ExprPos() Pos  { return e.Pos }
func (e *CallExpr) ExprPos() Pos { return e.Pos }

func (*IntLit) nesting() int     { return 0 }
func (*BoolLit) nesting() int    { return 0 }
func (*VarRef) nesting() int     { return 0 }
func (e *BinExpr) nesting() int  { return e.depth }
func (e *CallExpr) nesting() int { return e.depth }
