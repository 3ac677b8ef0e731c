package parse

import (
	"strconv"

	"assignmentmotion/internal/ir"
)

// ParseUnit parses a source file of the typed dialect into its syntax
// tree. A unit without functions is a program of the structured
// mini-language ("prog"); functions, typed let declarations, calls, and
// booleans extend it:
//
//	unit    = fndecl* progdecl
//	fndecl  = "fn" IDENT "(" [ param { "," param } ] ")" [ ":" type ] "{" stmt* "}"
//	param   = IDENT ":" type
//	type    = "int" | "bool"
//	progdecl= "prog" IDENT "{" stmt* "}"
//	stmt    = "let" IDENT [ ":" type ] "=" expr
//	        | IDENT ":=" expr
//	        | "out" "(" [ expr { "," expr } ] ")"
//	        | "skip"
//	        | "if" expr "{" stmt* "}" [ "else" ( ifstmt | "{" stmt* "}" ) ]
//	        | "while" expr "{" stmt* "}"
//	        | "do" "{" stmt* "}" "while" expr
//	        | "break" | "continue"
//	        | "return" expr                       (functions only)
//	expr    = sum [ relop sum ]                   (relops non-associative)
//	sum     = mul { ("+" | "-") mul }
//	mul     = unary { ("*" | "/" | "%") unary }
//	unary   = "-" unary | atom
//	atom    = INT | "true" | "false" | IDENT | IDENT "(" [ expr { "," expr } ] ")"
//	        | "(" expr ")"
//
// ParseUnit reports only syntax errors, and a source nested deeper than
// maxNesting; name, type, and reachability checking is
// internal/typeinference's job, and lowering to an ir.Graph is
// Unit.Lower's. typeinference.Compile runs all three.
func ParseUnit(src string) (*Unit, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	u, err := (&typedParser{p}).parseUnit()
	if err != nil {
		return nil, err
	}
	u.idents = map[string]bool{}
	for _, t := range p.toks {
		if t.kind == tokIdent {
			u.idents[p.text(t)] = true
		}
	}
	u.tempPrefix = freshPrefix(src, p.toks)
	return u, nil
}

type typedParser struct {
	*parser
}

func pos(t token) Pos { return Pos{Line: int(t.line), Col: int(t.col)} }

// at reports whether the current token is the given keyword.
func (p *typedParser) at(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && p.text(t) == kw
}

func (p *typedParser) parseUnit() (*Unit, error) {
	u := &Unit{}
	for p.at("fn") {
		fd, err := p.parseFn()
		if err != nil {
			return nil, err
		}
		u.Funcs = append(u.Funcs, fd)
	}
	if err := p.expectKeyword("prog"); err != nil {
		return nil, err
	}
	nameTok, err := p.ident("program name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	body, err := p.stmts()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace, "}"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEOF, "end of input"); err != nil {
		return nil, err
	}
	u.Prog = &ProgDecl{Pos: pos(nameTok), Name: p.text(nameTok), Body: body}
	return u, nil
}

func (p *typedParser) parseFn() (*FuncDecl, error) {
	p.advance() // fn
	nameTok, err := p.ident("function name")
	if err != nil {
		return nil, err
	}
	fd := &FuncDecl{Pos: pos(nameTok), Name: p.text(nameTok)}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	if p.cur().kind != tokRParen {
		for {
			pn, err := p.ident("parameter name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokColon, ": before parameter type"); err != nil {
				return nil, err
			}
			pt, err := p.typeName()
			if err != nil {
				return nil, err
			}
			fd.Params = append(fd.Params, Param{Pos: pos(pn), Name: p.text(pn), Typ: pt})
			if p.cur().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	if p.cur().kind == tokColon {
		p.advance()
		rt, err := p.typeName()
		if err != nil {
			return nil, err
		}
		fd.Result = rt
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	body, err := p.stmts()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace, "}"); err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

// typeName parses "int" or "bool".
func (p *typedParser) typeName() (string, error) {
	t := p.cur()
	if t.kind == tokIdent && (p.text(t) == TypeInt || p.text(t) == TypeBool) {
		p.advance()
		return p.text(t), nil
	}
	return "", p.errorf(t, "expected type (int or bool), found %s", p.spell(t))
}

// stmts parses statements until the closing brace (not consumed).
// Context rules (return only in functions, break only in loops) are
// checked semantically, not syntactically, so inspect tooling sees them
// as diagnostics.
func (p *typedParser) stmts() ([]Stmt, error) {
	var list []Stmt
	for {
		t := p.cur()
		if t.kind == tokRBrace || t.kind == tokEOF {
			return list, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		list = append(list, s)
	}
}

func (p *typedParser) stmt() (Stmt, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errorf(t, "expected statement, found %s", p.spell(t))
	}
	switch p.text(t) {
	case "let":
		p.advance()
		nameTok, err := p.ident("variable name")
		if err != nil {
			return nil, err
		}
		typ := ""
		if p.cur().kind == tokColon {
			p.advance()
			typ, err = p.typeName()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokEq, "= after let declaration"); err != nil {
			return nil, err
		}
		init, err := p.parseTypedExpr()
		if err != nil {
			return nil, err
		}
		return &LetStmt{Pos: pos(nameTok), Name: p.text(nameTok), Typ: typ, Init: init}, nil
	case "skip":
		p.advance()
		return &SkipStmt{Pos: pos(t)}, nil
	case "out":
		p.advance()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		var args []Expr
		if p.cur().kind != tokRParen {
			for {
				e, err := p.parseTypedExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, e)
				if p.cur().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return &OutStmt{Pos: pos(t), Args: args}, nil
	case "if":
		return p.parseTypedIf()
	case "while":
		p.advance()
		cond, err := p.parseTypedExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.braced()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: pos(t), Cond: cond, Body: body}, nil
	case "do":
		p.advance()
		body, err := p.braced()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("while"); err != nil {
			return nil, err
		}
		cond, err := p.parseTypedExpr()
		if err != nil {
			return nil, err
		}
		return &DoWhileStmt{Pos: pos(t), Body: body, Cond: cond}, nil
	case "break":
		p.advance()
		return &BreakStmt{Pos: pos(t)}, nil
	case "continue":
		p.advance()
		return &ContinueStmt{Pos: pos(t)}, nil
	case "return":
		p.advance()
		e, err := p.parseTypedExpr()
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: pos(t), Value: e}, nil
	default:
		nameTok, err := p.ident("assignment target")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokAssign, ":="); err != nil {
			return nil, err
		}
		e, err := p.parseTypedExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: pos(nameTok), Name: p.text(nameTok), Value: e}, nil
	}
}

// braced parses "{ stmt* }", a nested block.
func (p *typedParser) braced() ([]Stmt, error) {
	t, err := p.expect(tokLBrace, "{")
	if err != nil {
		return nil, err
	}
	if err := p.nest(t); err != nil {
		return nil, err
	}
	list, err := p.stmts()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace, "}"); err != nil {
		return nil, err
	}
	p.depth--
	return list, nil
}

func (p *typedParser) parseTypedIf() (Stmt, error) {
	t := p.cur()
	p.advance() // if
	cond, err := p.parseTypedExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.braced()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Pos: pos(t), Cond: cond, Then: then}
	if p.at("else") {
		p.advance()
		if p.at("if") {
			if err := p.nest(p.cur()); err != nil {
				return nil, err
			}
			elif, err := p.parseTypedIf()
			if err != nil {
				return nil, err
			}
			p.depth--
			s.Else = []Stmt{elif}
		} else {
			s.Else, err = p.braced()
			if err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// parseTypedExpr parses a full expression: sum [relop sum]. Relational
// operators are non-associative, as in the flat dialect.
func (p *typedParser) parseTypedExpr() (Expr, error) {
	l, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokOp && ir.Op(p.text(t)).IsRel() {
		p.advance()
		r, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return p.binary(t, l, r)
	}
	return l, nil
}

// binary builds "l op r" for the operator token t, refusing an
// expression more than maxNesting operators deep.
func (p *typedParser) binary(t token, l, r Expr) (Expr, error) {
	d := max(l.nesting(), r.nesting()) + 1
	if d > maxNesting {
		return nil, p.tooDeep(t)
	}
	return &BinExpr{Pos: pos(t), Op: ir.Op(p.text(t)), L: l, R: r, depth: d}, nil
}

func (p *typedParser) parseSum() (Expr, error) {
	e, err := p.parseTypedMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp || (p.text(t) != "+" && p.text(t) != "-") {
			return e, nil
		}
		p.advance()
		r, err := p.parseTypedMul()
		if err != nil {
			return nil, err
		}
		if e, err = p.binary(t, e, r); err != nil {
			return nil, err
		}
	}
}

func (p *typedParser) parseTypedMul() (Expr, error) {
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp || (p.text(t) != "*" && p.text(t) != "/" && p.text(t) != "%") {
			return e, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if e, err = p.binary(t, e, r); err != nil {
			return nil, err
		}
	}
}

func (p *typedParser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == tokOp && p.text(t) == "-" {
		p.advance()
		if it := p.cur(); it.kind == tokInt {
			// The sign belongs to the literal, as in the flat dialects:
			// the int64 minimum has no positive magnitude to negate.
			p.advance()
			n, err := strconv.ParseInt("-"+p.text(it), 10, 64)
			if err != nil {
				return nil, p.errorf(it, "integer -%q out of range", p.text(it))
			}
			return &IntLit{Pos: pos(t), Value: n}, nil
		}
		if err := p.nest(t); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		if lit, ok := e.(*IntLit); ok {
			return &IntLit{Pos: pos(t), Value: -lit.Value}, nil
		}
		// General unary minus desugars to 0 - e.
		return p.binary(t, &IntLit{Pos: pos(t)}, e)
	}
	return p.parseTypedAtom()
}

func (p *typedParser) parseTypedAtom() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.advance()
		n, err := strconv.ParseInt(p.text(t), 10, 64)
		if err != nil {
			return nil, p.errorf(t, "integer %q out of range", p.text(t))
		}
		return &IntLit{Pos: pos(t), Value: n}, nil
	case t.kind == tokLParen:
		if err := p.nest(t); err != nil {
			return nil, err
		}
		p.advance()
		e, err := p.parseTypedExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		p.depth--
		return e, nil
	case p.at("true") || p.at("false"):
		p.advance()
		return &BoolLit{Pos: pos(t), Value: p.text(t) == "true"}, nil
	case t.kind == tokIdent:
		nameTok, err := p.ident("expression")
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokLParen {
			return &VarRef{Pos: pos(nameTok), Name: p.text(nameTok)}, nil
		}
		if err := p.nest(p.cur()); err != nil {
			return nil, err
		}
		p.advance() // (
		call := &CallExpr{Pos: pos(nameTok), Name: p.text(nameTok), depth: 1}
		if p.cur().kind != tokRParen {
			for {
				a, err := p.parseTypedExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				call.depth = max(call.depth, a.nesting()+1)
				if p.cur().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		if call.depth > maxNesting {
			return nil, p.tooDeep(nameTok)
		}
		p.depth--
		return call, nil
	}
	return nil, p.errorf(t, "expected expression, found %s", p.spell(t))
}
