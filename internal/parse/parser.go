package parse

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"assignmentmotion/internal/ir"
)

// Options configure parsing.
type Options struct {
	// AllowTemps permits variables spelled like generated temporaries
	// ("h" + digits). Source programs must not use them — the reserved
	// spelling is what lets every phase recognize temporaries — but tests
	// that describe intermediate (post-initialization) programs need them.
	// Any such variable used as "hN := a op b" is registered as the
	// temporary for that expression.
	AllowTemps bool
}

// Parse parses a single graph from src.
func Parse(src string) (*ir.Graph, error) {
	return ParseWith(src, Options{})
}

// ParseWith parses a single graph from src with explicit options.
func ParseWith(src string, opts Options) (*ir.Graph, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	p.opts = opts
	return p.parseGraph()
}

// ParseFile parses the graph in the named file.
func ParseFile(path string) (*ir.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s:%w", path, err)
	}
	return g, nil
}

// MustParse parses src and panics on error; for tests and examples. The
// panic message carries the source position and the offending line, not
// just the bare error.
func MustParse(src string) *ir.Graph {
	g, err := Parse(src)
	if err != nil {
		panic(mustMessage("parse.MustParse", src, err))
	}
	return g
}

// MustParseTemps parses src with AllowTemps and panics on error.
func MustParseTemps(src string) *ir.Graph {
	g, err := ParseWith(src, Options{AllowTemps: true})
	if err != nil {
		panic(mustMessage("parse.MustParseTemps", src, err))
	}
	return g
}

// mustMessage builds the panic message of the Must* entry points: the
// failing function, the "line:col: detail" error, and — when the error's
// leading line number resolves inside src — the offending source line with
// a caret under the error column.
func mustMessage(fn, src string, err error) string {
	msg := fmt.Sprintf("%s: %v", fn, err)
	line, col, ok := errorPosition(err)
	if !ok {
		return msg
	}
	lines := strings.Split(src, "\n")
	if line < 1 || line > len(lines) {
		return msg
	}
	text := lines[line-1]
	caret := len(text)
	if col >= 1 && col <= len(text)+1 {
		caret = col - 1
	}
	return fmt.Sprintf("%s\n\t%s\n\t%s^", msg, text, strings.Repeat(" ", caret))
}

// errorPosition extracts the leading "line:col:" of a parse error.
func errorPosition(err error) (line, col int, ok bool) {
	parts := strings.SplitN(err.Error(), ":", 3)
	if len(parts) < 3 {
		return 0, 0, false
	}
	line, lerr := strconv.Atoi(strings.TrimSpace(parts[0]))
	col, cerr := strconv.Atoi(strings.TrimSpace(parts[1]))
	if lerr != nil || cerr != nil {
		return 0, 0, false
	}
	return line, col, true
}

// maxNesting caps how deeply a source nests: parentheses, calls and
// unary minus around an expression, the operators on its deepest path,
// and the typed dialect's blocks and else-ifs. The parser, the checker
// and the lowerings recurse along that nesting, and a Go stack overflow
// is fatal rather than a panic, so a deeper source is a parse error.
// Real programs nest a few levels.
const maxNesting = 1000

// parser reads the token stream of one source. The .fg parser appends
// every block's instructions to one slab and every out(...) operand to
// another, both sized from the lexer's tally, and assembles the graph with
// ir.Assemble; the typed parser reads tokens the same way.
type parser struct {
	src  string
	toks []token
	n    tally
	pos  int
	opts Options
	// nested, when non-nil, enables the full-precedence expression
	// grammar with canonical 3-address decomposition (see ParseNested).
	nested *nestedState
	exprs  []expr // nested mode: the expression being parsed
	depth  int    // constructs open around the current token (nest)

	decls  []blockDecl
	ids    map[string]ir.NodeID // block name -> index into decls
	instrs []ir.Instr           // every block's instructions, in order
	args   []ir.Operand         // every out(...) operand, in order
}

func newParser(src string) (*parser, error) {
	toks, n, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return &parser{src: src, toks: toks, n: n}, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }

// text returns the source text of t.
func (p *parser) text(t token) string { return p.src[t.off:t.end] }

// spell returns t as an error message names it.
func (p *parser) spell(t token) string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return strconv.Quote(p.text(t))
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errorf(t, "expected %s, found %s", what, p.spell(t))
	}
	p.advance()
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokIdent || p.text(t) != kw {
		return p.errorf(t, "expected %q, found %s", kw, p.spell(t))
	}
	p.advance()
	return nil
}

// nest opens one level of nesting at t, refusing more than maxNesting;
// the caller closes it with p.depth--.
func (p *parser) nest(t token) error {
	if p.depth++; p.depth > maxNesting {
		return p.tooDeep(t)
	}
	return nil
}

// tooDeep is the error of a source that nests deeper than maxNesting at t.
func (p *parser) tooDeep(t token) error {
	return p.errorf(t, "nesting deeper than %d levels", maxNesting)
}

func (p *parser) ident(what string) (token, error) {
	t, err := p.expect(tokIdent, what)
	if err != nil {
		return t, err
	}
	if isKeyword(p.text(t)) {
		return t, p.errorf(t, "keyword %q cannot be used as %s", p.text(t), what)
	}
	return t, nil
}

// blockDecl is the parse-time form of a block: its name token, its
// instructions p.instrs[lo:hi], and its terminator — the "goto" or "if"
// token and the target names, still unresolved. Token fields the block
// does not have stay zero (kind tokEOF).
type blockDecl struct {
	name      token
	lo, hi    int
	term      token
	then, els token // a goto's target is then
}

func (d *blockDecl) terminated() bool { return d.then.kind == tokIdent }

func (p *parser) parseGraph() (*ir.Graph, error) {
	if err := p.expectKeyword("graph"); err != nil {
		return nil, err
	}
	nameTok, err := p.ident("graph name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}

	nInstrs := p.n.instrs
	if p.nested != nil {
		nInstrs += p.n.ops
	}
	p.decls = make([]blockDecl, 0, p.n.blocks)
	p.ids = make(map[string]ir.NodeID, p.n.blocks)
	p.instrs = make([]ir.Instr, 0, nInstrs)
	p.args = make([]ir.Operand, 0, p.n.args)
	var entryTok, exitTok token // kind tokIdent once declared
	for p.cur().kind != tokRBrace {
		t := p.cur()
		if t.kind != tokIdent {
			return nil, p.errorf(t, "expected declaration, found %s", p.spell(t))
		}
		switch p.text(t) {
		case "entry":
			p.advance()
			id, err := p.ident("entry block name")
			if err != nil {
				return nil, err
			}
			if entryTok.kind == tokIdent {
				return nil, p.errorf(id, "duplicate entry declaration")
			}
			entryTok = id
		case "exit":
			p.advance()
			id, err := p.ident("exit block name")
			if err != nil {
				return nil, err
			}
			if exitTok.kind == tokIdent {
				return nil, p.errorf(id, "duplicate exit declaration")
			}
			exitTok = id
		case "block":
			d, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			name := p.text(d.name)
			if _, dup := p.ids[name]; dup {
				return nil, p.errorf(d.name, "duplicate block %q", name)
			}
			p.ids[name] = ir.NodeID(len(p.decls))
			p.decls = append(p.decls, d)
		default:
			return nil, p.errorf(t, "expected entry, exit, or block, found %q", p.text(t))
		}
	}
	p.advance() // }
	if _, err := p.expect(tokEOF, "end of input"); err != nil {
		return nil, err
	}

	if entryTok.kind != tokIdent {
		return nil, p.errorf(nameTok, "graph %q has no entry declaration", p.text(nameTok))
	}
	if exitTok.kind != tokIdent {
		return nil, p.errorf(nameTok, "graph %q has no exit declaration", p.text(nameTok))
	}
	entry, ok := p.ids[p.text(entryTok)]
	if !ok {
		return nil, p.errorf(entryTok, "entry block %q not declared", p.text(entryTok))
	}
	exit, ok := p.ids[p.text(exitTok)]
	if !ok {
		return nil, p.errorf(exitTok, "exit block %q not declared", p.text(exitTok))
	}

	// Terminator discipline: the exit block flows nowhere; everything else
	// must say where it goes.
	for i := range p.decls {
		d := &p.decls[i]
		isExit := ir.NodeID(i) == exit
		if isExit && d.terminated() {
			return nil, p.errorf(d.term, "exit block %q must not have a terminator", p.text(d.name))
		}
		if !isExit && !d.terminated() {
			return nil, p.errorf(d.name, "block %q has no goto or if terminator", p.text(d.name))
		}
	}

	edges := make([]ir.Edge, 0, p.n.edges)
	for i := range p.decls {
		d := &p.decls[i]
		for _, target := range [...]token{d.then, d.els} {
			if target.kind != tokIdent {
				continue
			}
			to, ok := p.ids[p.text(target)]
			if !ok {
				return nil, p.errorf(d.term, "block %q jumps to undeclared block %q", p.text(d.name), p.text(target))
			}
			edges = append(edges, ir.Edge{From: ir.NodeID(i), To: to})
		}
	}
	blocks := make([]ir.Block, len(p.decls))
	for i := range p.decls {
		d := &p.decls[i]
		blocks[i].Name, blocks[i].Instrs = p.text(d.name), p.instrs[d.lo:d.hi:d.hi]
	}
	g := ir.Assemble(p.text(nameTok), blocks, edges, entry, exit)
	g.Normalize()
	if p.opts.AllowTemps {
		if err := registerTemps(g); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph %q: %w", g.Name, err)
	}
	return g, nil
}

// registerTemps binds every assignment "hN := a op b" in g as the defining
// instance of temporary hN, so that graphs describing intermediate
// (post-initialization) programs carry a consistent temp registry.
func registerTemps(g *ir.Graph) error {
	for _, b := range g.Blocks {
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if in.Kind != ir.KindAssign || !ir.IsTempName(in.LHS) || in.RHS.Trivial() {
				continue
			}
			if prev, ok := g.TempExpr(in.LHS); ok && !prev.Equal(in.RHS) {
				return fmt.Errorf("graph %q: temporary %s initialized with both %s and %s",
					g.Name, in.LHS, prev, in.RHS)
			}
			g.RegisterTemp(in.LHS, in.RHS)
		}
	}
	return nil
}

// parseBlock parses one block declaration, appending its instructions to
// p.instrs. A block without instructions gets a skip, as Normalize would
// give it, so that it too owns a range of the slab.
func (p *parser) parseBlock() (blockDecl, error) {
	if err := p.expectKeyword("block"); err != nil {
		return blockDecl{}, err
	}
	nameTok, err := p.ident("block name")
	if err != nil {
		return blockDecl{}, err
	}
	d := blockDecl{name: nameTok, lo: len(p.instrs)}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return blockDecl{}, err
	}
	for p.cur().kind != tokRBrace {
		if d.terminated() {
			return blockDecl{}, p.errorf(p.cur(), "statement after terminator in block %q", p.text(d.name))
		}
		if err := p.parseStmt(&d); err != nil {
			return blockDecl{}, err
		}
	}
	p.advance() // }
	if len(p.instrs) == d.lo {
		p.instrs = append(p.instrs, ir.Skip())
	}
	d.hi = len(p.instrs)
	return d, nil
}

func (p *parser) parseStmt(d *blockDecl) error {
	t := p.cur()
	if t.kind != tokIdent {
		return p.errorf(t, "expected statement, found %s", p.spell(t))
	}
	switch p.text(t) {
	case "skip":
		p.advance()
		p.instrs = append(p.instrs, ir.Skip())
		return nil
	case "out":
		p.advance()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return err
		}
		lo := len(p.args)
		if p.cur().kind != tokRParen {
			for {
				o, err := p.parseArgOperand()
				if err != nil {
					return err
				}
				p.args = append(p.args, o)
				if p.cur().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return err
		}
		var args []ir.Operand
		if hi := len(p.args); hi > lo {
			args = p.args[lo:hi:hi]
		}
		p.instrs = append(p.instrs, ir.NewOut(args...))
		return nil
	case "goto":
		d.term = t
		p.advance()
		id, err := p.ident("goto target")
		if err != nil {
			return err
		}
		d.then = id
		return nil
	case "if":
		d.term = t
		p.advance()
		l, err := p.parseStmtTerm()
		if err != nil {
			return err
		}
		opTok, err := p.expect(tokOp, "relational operator")
		if err != nil {
			return err
		}
		op := ir.Op(p.text(opTok))
		if !op.IsRel() {
			return p.errorf(opTok, "%q is not a relational operator", op)
		}
		r, err := p.parseStmtTerm()
		if err != nil {
			return err
		}
		if err := p.expectKeyword("then"); err != nil {
			return err
		}
		thenTok, err := p.ident("then target")
		if err != nil {
			return err
		}
		if err := p.expectKeyword("else"); err != nil {
			return err
		}
		elseTok, err := p.ident("else target")
		if err != nil {
			return err
		}
		d.then, d.els = thenTok, elseTok
		p.instrs = append(p.instrs, ir.NewCond(op, l, r))
		return nil
	default:
		// assignment: IDENT := term
		v, err := p.variable("assignment target")
		if err != nil {
			return err
		}
		if _, err := p.expect(tokAssign, ":="); err != nil {
			return err
		}
		rhs, err := p.parseStmtTerm()
		if err != nil {
			return err
		}
		p.instrs = append(p.instrs, ir.NewAssign(v, rhs))
		return nil
	}
}

// parseStmtTerm parses a right-hand side or condition side: a plain
// 3-address term, or — in nested mode — a full expression that is lowered
// to a term, its decomposition assignments appended to p.instrs.
func (p *parser) parseStmtTerm() (ir.Term, error) {
	if p.nested == nil {
		return p.parseTerm()
	}
	e, err := p.parseExpr()
	if err != nil {
		return ir.Term{}, err
	}
	return p.lowerToTerm(e), nil
}

// parseArgOperand parses an out(...) argument: a plain operand, or — in
// nested mode — an expression reduced to an operand.
func (p *parser) parseArgOperand() (ir.Operand, error) {
	if p.nested == nil {
		return p.parseOperand()
	}
	e, err := p.parseExpr()
	if err != nil {
		return ir.Operand{}, err
	}
	return p.lowerToOperand(e), nil
}

// variable parses a variable name, enforcing the reserved temp spelling.
func (p *parser) variable(what string) (ir.Var, error) {
	t, err := p.ident(what)
	if err != nil {
		return "", err
	}
	v := ir.Var(p.text(t))
	if ir.IsTempName(v) && !p.opts.AllowTemps {
		return "", p.errorf(t, "variable %q uses the reserved temporary spelling h<digits>", v)
	}
	return v, nil
}

func (p *parser) parseTerm() (ir.Term, error) {
	a, err := p.parseOperand()
	if err != nil {
		return ir.Term{}, err
	}
	t := p.cur()
	if op := ir.Op(p.text(t)); t.kind == tokOp && op.IsArith() {
		p.advance()
		b, err := p.parseOperand()
		if err != nil {
			return ir.Term{}, err
		}
		return ir.BinTerm(op, a, b), nil
	}
	return ir.OperandTerm(a), nil
}

func (p *parser) parseOperand() (ir.Operand, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.advance()
		n, err := strconv.ParseInt(p.text(t), 10, 64)
		if err != nil {
			return ir.Operand{}, p.errorf(t, "integer %q out of range", p.text(t))
		}
		return ir.ConstOp(n), nil
	case t.kind == tokOp && p.text(t) == "-":
		p.advance()
		it, err := p.expect(tokInt, "integer after unary -")
		if err != nil {
			return ir.Operand{}, err
		}
		n, err := strconv.ParseInt("-"+p.text(it), 10, 64)
		if err != nil {
			return ir.Operand{}, p.errorf(it, "integer -%q out of range", p.text(it))
		}
		return ir.ConstOp(n), nil
	case t.kind == tokIdent:
		v, err := p.variable("operand")
		if err != nil {
			return ir.Operand{}, err
		}
		return ir.VarOp(v), nil
	}
	return ir.Operand{}, p.errorf(t, "expected operand, found %s", p.spell(t))
}
