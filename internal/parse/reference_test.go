package parse_test

// The .fg lexer and parser that the slab parser replaced, kept as a
// test-only reference: lexer.go, parser.go and nested.go as they were
// before tokens became byte spans, with the exported entry points
// renamed (refParseWith, refParseNested, refOptions) and the helpers
// nothing here calls dropped. It builds graphs block by block and edge by
// edge through ir.Graph.AddBlock and AddEdge, so TestParseMatchesReference
// checks the slab assembly against the incremental one as well.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"assignmentmotion/internal/ir"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokAssign // :=
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokComma
	tokColon // ':' alone — type annotations of the typed dialect
	tokEq    // '=' alone — "let" initializers of the typed dialect
	tokOp    // arithmetic or relational operator symbol
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		default:
			return
		}
	}
}

func (l *lexer) skipLine() {
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return
		}
		l.advance()
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	switch {
	case isIdentStart(c):
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !isIdentCont(c) {
				break
			}
			l.advance()
			_ = c
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col}, nil
	case c >= '0' && c <= '9':
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || c < '0' || c > '9' {
				break
			}
			l.advance()
		}
		return token{kind: tokInt, text: l.src[start:l.pos], line: line, col: col}, nil
	}
	l.advance()
	two := func(second byte, twoText, oneText string) (token, error) {
		if n, ok := l.peekByte(); ok && n == second {
			l.advance()
			return token{kind: tokOp, text: twoText, line: line, col: col}, nil
		}
		if oneText == "" {
			return token{}, l.errorf(line, col, "unexpected character %q", string(c))
		}
		return token{kind: tokOp, text: oneText, line: line, col: col}, nil
	}
	switch c {
	case '{':
		return token{kind: tokLBrace, text: "{", line: line, col: col}, nil
	case '}':
		return token{kind: tokRBrace, text: "}", line: line, col: col}, nil
	case '(':
		return token{kind: tokLParen, text: "(", line: line, col: col}, nil
	case ')':
		return token{kind: tokRParen, text: ")", line: line, col: col}, nil
	case ',':
		return token{kind: tokComma, text: ",", line: line, col: col}, nil
	case ':':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return token{kind: tokAssign, text: ":=", line: line, col: col}, nil
		}
		return token{kind: tokColon, text: ":", line: line, col: col}, nil
	case '+', '-', '*', '/', '%':
		return token{kind: tokOp, text: string(c), line: line, col: col}, nil
	case '<':
		return two('=', "<=", "<")
	case '>':
		return two('=', ">=", ">")
	case '=':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return token{kind: tokOp, text: "==", line: line, col: col}, nil
		}
		return token{kind: tokEq, text: "=", line: line, col: col}, nil
	case '!':
		return two('=', "!=", "")
	}
	return token{}, l.errorf(line, col, "unexpected character %q", string(c))
}

// lexAll tokenizes the whole input; used by the parser.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	// Printed .fg programs run about four source bytes to a token, so one
	// token per three bytes usually fits without regrowing, and it never
	// exceeds the one token per byte that regrowing could reach.
	toks := make([]token, 0, len(src)/3+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// keywords that may not be used as identifiers for blocks or variables,
// across both the .fg flow-graph syntax and the typed dialect.
var keywords = map[string]bool{
	"graph": true, "entry": true, "exit": true, "block": true,
	"out": true, "skip": true, "goto": true,
	"if": true, "then": true, "else": true,
	"prog": true, "while": true, "do": true,
	"break": true, "continue": true,
	// typed dialect
	"fn": true, "let": true, "return": true,
	"true": true, "false": true, "int": true, "bool": true,
}

func isKeyword(s string) bool { return keywords[strings.ToLower(s)] }

// refOptions configure parsing.
type refOptions struct {
	// AllowTemps permits variables spelled like generated temporaries
	// ("h" + digits). Source programs must not use them — the reserved
	// spelling is what lets every phase recognize temporaries — but tests
	// that describe intermediate (post-initialization) programs need them.
	// Any such variable used as "hN := a op b" is registered as the
	// temporary for that expression.
	AllowTemps bool
}

// refParseWith parses a single graph from src with explicit options.
func refParseWith(src string, opts refOptions) (*ir.Graph, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, opts: opts}
	g, err := p.parseGraph()
	if err != nil {
		return nil, err
	}
	return g, nil
}

type parser struct {
	toks []token
	pos  int
	opts refOptions
	// nested, when non-nil, enables the full-precedence expression
	// grammar with canonical 3-address decomposition (see refParseNested).
	nested *nestedState
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errorf(t, "expected %s, found %s", what, t)
	}
	p.advance()
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokIdent || t.text != kw {
		return p.errorf(t, "expected %q, found %s", kw, t)
	}
	p.advance()
	return nil
}

func (p *parser) ident(what string) (token, error) {
	t, err := p.expect(tokIdent, what)
	if err != nil {
		return t, err
	}
	if isKeyword(t.text) {
		return t, p.errorf(t, "keyword %q cannot be used as %s", t.text, what)
	}
	return t, nil
}

// blockDecl is the parse-time form of a block before edge resolution.
type blockDecl struct {
	name   string
	tok    token
	instrs []ir.Instr
	// terminator
	gotoTarget string // "goto" target, or ""
	condThen   string // "if" targets, or ""
	condElse   string
	termTok    token
}

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

	var entry, exit string
	var entryTok, exitTok token
	var decls []*blockDecl
	byName := map[string]*blockDecl{}

	for p.cur().kind != tokRBrace {
		t := p.cur()
		if t.kind != tokIdent {
			return nil, p.errorf(t, "expected declaration, found %s", t)
		}
		switch t.text {
		case "entry":
			p.advance()
			id, err := p.ident("entry block name")
			if err != nil {
				return nil, err
			}
			if entry != "" {
				return nil, p.errorf(id, "duplicate entry declaration")
			}
			entry, entryTok = id.text, id
		case "exit":
			p.advance()
			id, err := p.ident("exit block name")
			if err != nil {
				return nil, err
			}
			if exit != "" {
				return nil, p.errorf(id, "duplicate exit declaration")
			}
			exit, exitTok = id.text, id
		case "block":
			d, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			if byName[d.name] != nil {
				return nil, p.errorf(d.tok, "duplicate block %q", d.name)
			}
			byName[d.name] = d
			decls = append(decls, d)
		default:
			return nil, p.errorf(t, "expected entry, exit, or block, found %q", t.text)
		}
	}
	p.advance() // }
	if _, err := p.expect(tokEOF, "end of input"); err != nil {
		return nil, err
	}

	if entry == "" {
		return nil, p.errorf(nameTok, "graph %q has no entry declaration", nameTok.text)
	}
	if exit == "" {
		return nil, p.errorf(nameTok, "graph %q has no exit declaration", nameTok.text)
	}
	if byName[entry] == nil {
		return nil, p.errorf(entryTok, "entry block %q not declared", entry)
	}
	if byName[exit] == nil {
		return nil, p.errorf(exitTok, "exit block %q not declared", exit)
	}

	// Terminator discipline: the exit block flows nowhere; everything else
	// must say where it goes.
	for _, d := range decls {
		isExit := d.name == exit
		hasTerm := d.gotoTarget != "" || d.condThen != ""
		if isExit && hasTerm {
			return nil, p.errorf(d.termTok, "exit block %q must not have a terminator", d.name)
		}
		if !isExit && !hasTerm {
			return nil, p.errorf(d.tok, "block %q has no goto or if terminator", d.name)
		}
	}

	g := ir.NewGraph(nameTok.text)
	ids := map[string]ir.NodeID{}
	for _, d := range decls {
		ids[d.name] = g.AddBlock(d.name).ID
	}
	resolve := func(d *blockDecl, target string) (ir.NodeID, error) {
		id, ok := ids[target]
		if !ok {
			return 0, p.errorf(d.termTok, "block %q jumps to undeclared block %q", d.name, target)
		}
		return id, nil
	}
	for _, d := range decls {
		blk := g.Block(ids[d.name])
		blk.Instrs = d.instrs
		switch {
		case d.gotoTarget != "":
			id, err := resolve(d, d.gotoTarget)
			if err != nil {
				return nil, err
			}
			g.AddEdge(blk.ID, id)
		case d.condThen != "":
			thenID, err := resolve(d, d.condThen)
			if err != nil {
				return nil, err
			}
			elseID, err := resolve(d, d.condElse)
			if err != nil {
				return nil, err
			}
			g.AddEdge(blk.ID, thenID)
			g.AddEdge(blk.ID, elseID)
		}
	}
	g.Entry, g.Exit = ids[entry], ids[exit]
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
		for _, in := range b.Instrs {
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

func (p *parser) parseBlock() (*blockDecl, error) {
	if err := p.expectKeyword("block"); err != nil {
		return nil, err
	}
	nameTok, err := p.ident("block name")
	if err != nil {
		return nil, err
	}
	d := &blockDecl{name: nameTok.text, tok: nameTok}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	for p.cur().kind != tokRBrace {
		if d.gotoTarget != "" || d.condThen != "" {
			return nil, p.errorf(p.cur(), "statement after terminator in block %q", d.name)
		}
		if err := p.parseStmt(d); err != nil {
			return nil, err
		}
	}
	p.advance() // }
	return d, nil
}

func (p *parser) parseStmt(d *blockDecl) error {
	t := p.cur()
	if t.kind != tokIdent {
		return p.errorf(t, "expected statement, found %s", t)
	}
	switch t.text {
	case "skip":
		p.advance()
		d.instrs = append(d.instrs, ir.Skip())
		return nil
	case "out":
		p.advance()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return err
		}
		var args []ir.Operand
		if p.cur().kind != tokRParen {
			for {
				o, err := p.parseArgOperand(d)
				if err != nil {
					return err
				}
				args = append(args, o)
				if p.cur().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return err
		}
		d.instrs = append(d.instrs, ir.NewOut(args...))
		return nil
	case "goto":
		d.termTok = t
		p.advance()
		id, err := p.ident("goto target")
		if err != nil {
			return err
		}
		d.gotoTarget = id.text
		return nil
	case "if":
		d.termTok = t
		p.advance()
		l, err := p.parseStmtTerm(d)
		if err != nil {
			return err
		}
		opTok, err := p.expect(tokOp, "relational operator")
		if err != nil {
			return err
		}
		op := ir.Op(opTok.text)
		if !op.IsRel() {
			return p.errorf(opTok, "%q is not a relational operator", opTok.text)
		}
		r, err := p.parseStmtTerm(d)
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
		d.condThen, d.condElse = thenTok.text, elseTok.text
		d.instrs = append(d.instrs, ir.NewCond(op, l, r))
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
		rhs, err := p.parseStmtTerm(d)
		if err != nil {
			return err
		}
		d.instrs = append(d.instrs, ir.NewAssign(v, rhs))
		return nil
	}
}

// parseStmtTerm parses a right-hand side or condition side: a plain
// 3-address term, or — in nested mode — a full expression that is lowered
// to a term with decomposition assignments appended to d.
func (p *parser) parseStmtTerm(d *blockDecl) (ir.Term, error) {
	if p.nested == nil {
		return p.parseTerm()
	}
	e, err := p.parseExpr()
	if err != nil {
		return ir.Term{}, err
	}
	return p.lowerToTerm(d, e), nil
}

// parseArgOperand parses an out(...) argument: a plain operand, or — in
// nested mode — an expression reduced to an operand.
func (p *parser) parseArgOperand(d *blockDecl) (ir.Operand, error) {
	if p.nested == nil {
		return p.parseOperand()
	}
	e, err := p.parseExpr()
	if err != nil {
		return ir.Operand{}, err
	}
	return p.lowerToOperand(d, e), nil
}

// variable parses a variable name, enforcing the reserved temp spelling.
func (p *parser) variable(what string) (ir.Var, error) {
	t, err := p.ident(what)
	if err != nil {
		return "", err
	}
	v := ir.Var(t.text)
	if ir.IsTempName(v) && !p.opts.AllowTemps {
		return "", p.errorf(t, "variable %q uses the reserved temporary spelling h<digits>", t.text)
	}
	return v, nil
}

func (p *parser) parseTerm() (ir.Term, error) {
	a, err := p.parseOperand()
	if err != nil {
		return ir.Term{}, err
	}
	t := p.cur()
	if t.kind == tokOp && ir.Op(t.text).IsArith() {
		p.advance()
		b, err := p.parseOperand()
		if err != nil {
			return ir.Term{}, err
		}
		return ir.BinTerm(ir.Op(t.text), a, b), nil
	}
	return ir.OperandTerm(a), nil
}

func (p *parser) parseOperand() (ir.Operand, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return ir.Operand{}, p.errorf(t, "integer %q out of range", t.text)
		}
		return ir.ConstOp(n), nil
	case t.kind == tokOp && t.text == "-":
		p.advance()
		it, err := p.expect(tokInt, "integer after unary -")
		if err != nil {
			return ir.Operand{}, err
		}
		n, err := strconv.ParseInt("-"+it.text, 10, 64)
		if err != nil {
			return ir.Operand{}, p.errorf(it, "integer -%q out of range", it.text)
		}
		return ir.ConstOp(n), nil
	case t.kind == tokIdent:
		v, err := p.variable("operand")
		if err != nil {
			return ir.Operand{}, err
		}
		return ir.VarOp(v), nil
	}
	return ir.Operand{}, p.errorf(t, "expected operand, found %s", t)
}

// refParseNested parses a graph whose right-hand sides and condition sides
// may be arbitrarily nested expressions with the usual precedence
// ("*", "/", "%" bind tighter than "+", "-"; parentheses allowed) and
// canonically decomposes them into 3-address form along the inductive
// structure of the terms — the transformation of §6 / Figure 18:
//
//	x := a + b + c        ⇒   t1 := a + b
//	                          x  := t1 + c
//
// Decomposition temporaries use a fresh identifier prefix that does not
// collide with any identifier of the source program (preferring t1, t2,
// …, as the paper writes them). Operands of out(...) may also be nested
// and are reduced to variables the same way.
func refParseNested(src string) (*ir.Graph, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	prefix := freshPrefix(toks)
	p := &parser{toks: toks, opts: refOptions{}, nested: &nestedState{prefix: prefix}}
	return p.parseGraph()
}

// nestedState carries the decomposition-temporary allocator. Temporaries
// are memoized by sub-term spelling — the "special naming discipline" of
// Briggs/Cooper that §6 mentions: syntactically identical sub-terms
// always decompose through the same temporary, so the later phases see
// them as one assignment pattern (each occurrence still carries its own
// initialization; sharing is the optimizer's job).
type nestedState struct {
	prefix string
	next   int
	byTerm map[string]ir.Var
}

func (ns *nestedState) tempFor(key string) ir.Var {
	if ns.byTerm == nil {
		ns.byTerm = map[string]ir.Var{}
	}
	if v, ok := ns.byTerm[key]; ok {
		return v
	}
	ns.next++
	v := ir.Var(fmt.Sprintf("%s%d", ns.prefix, ns.next))
	ns.byTerm[key] = v
	return v
}

// freshPrefix picks a temp prefix not colliding with program identifiers:
// the first of t, u, w, tmp whose digit-suffixed forms are unused.
func freshPrefix(toks []token) string {
	used := map[string]bool{}
	for _, t := range toks {
		if t.kind == tokIdent {
			used[t.text] = true
		}
	}
	return freshPrefixFrom(used)
}

// freshPrefixFrom is freshPrefix over a pre-collected identifier set; the
// typed dialect's lowering works from the syntax tree, not the tokens.
func freshPrefixFrom(used map[string]bool) string {
	for _, prefix := range []string{"t", "u", "w", "tmp", "dtmp"} {
		ok := true
		for id := range used {
			if strings.HasPrefix(id, prefix) && allDigits(id[len(prefix):]) && len(id) > len(prefix) {
				ok = false
				break
			}
		}
		if ok {
			return prefix
		}
	}
	return "dtmp_"
}

func allDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// expr is a parse-time expression tree.
type expr struct {
	leaf ir.Operand // valid when l == nil
	op   ir.Op
	l, r *expr
}

// parseExpr parses a full-precedence expression (nested mode only).
func (p *parser) parseExpr() (*expr, error) {
	e, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			// A "-" directly followed by an integer could be either a
			// binary minus or the start of something else; in expression
			// position it is always binary here because unary minus is
			// folded into integer literals by parseAtom.
			p.advance()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			e = &expr{op: ir.Op(t.text), l: e, r: r}
			continue
		}
		return e, nil
	}
}

func (p *parser) parseMul() (*expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokOp && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.advance()
			r, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			e = &expr{op: ir.Op(t.text), l: e, r: r}
			continue
		}
		return e, nil
	}
}

func (p *parser) parseAtom() (*expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		o, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &expr{leaf: o}, nil
	}
}

// lowerToTerm reduces e to a 3-address term (at most one operator),
// appending decomposition assignments to d.
func (p *parser) lowerToTerm(d *blockDecl, e *expr) ir.Term {
	if e.l == nil {
		return ir.OperandTerm(e.leaf)
	}
	lo := p.lowerToOperand(d, e.l)
	ro := p.lowerToOperand(d, e.r)
	return ir.BinTerm(e.op, lo, ro)
}

// lowerToOperand reduces e to a single operand, introducing a fresh
// decomposition temporary when e is compound.
func (p *parser) lowerToOperand(d *blockDecl, e *expr) ir.Operand {
	if e.l == nil {
		return e.leaf
	}
	t := p.lowerToTerm(d, e)
	v := p.nested.tempFor(t.Key())
	d.instrs = append(d.instrs, ir.NewAssign(v, t))
	return ir.VarOp(v)
}
