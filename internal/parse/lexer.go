// Package parse implements the textual ".fg" flow-graph language used by
// the examples, tests, and the amopt command line tool.
//
// The grammar mirrors the paper's program model directly:
//
//	graph    = "graph" IDENT "{" decl* "}"
//	decl     = "entry" IDENT | "exit" IDENT | "block" IDENT "{" stmt* "}"
//	stmt     = IDENT ":=" term
//	         | "out" "(" [ operand { "," operand } ] ")"
//	         | "skip"
//	         | "goto" IDENT
//	         | "if" term relop term "then" IDENT "else" IDENT
//	term     = operand [ arithop operand ]
//	operand  = IDENT | INT
//	arithop  = "+" | "-" | "*" | "/" | "%"
//	relop    = "<" | "<=" | ">" | ">=" | "==" | "!="
//
// Line comments start with "//" or "#". Every non-exit block must end in a
// goto or an if; the exit block must end in neither.
//
// Two more front ends share the lexer. ParseNested accepts nested
// expressions in .fg blocks and decomposes them into 3-address form (§6).
// ParseUnit reads the typed dialect, and Unit.Lower lowers its structured
// statements (if, while, do … while, break, continue) to blocks. A source
// of the structured mini-language ("prog") is a typed unit without
// functions, so it takes the same path.
package parse

import (
	"fmt"
	"strings"
	"unicode"
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

// IsGraphName reports whether the parser accepts name after "graph": one
// identifier token (a letter or '_', then letters, digits and '_') that is
// not a keyword. The printer writes a graph's name verbatim, so only such
// names print back into a program that parses.
func IsGraphName(name string) bool {
	if name == "" || !isIdentStart(name[0]) || isKeyword(name) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isIdentCont(name[i]) {
			return false
		}
	}
	return true
}
