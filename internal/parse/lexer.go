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
// Identifiers are ASCII: a letter or '_', then letters, digits and '_'.
// Line comments start with "//" or "#". Every non-exit block must end in a
// goto or an if; the exit block must end in neither.
//
// Two more front ends share the lexer. ParseNested accepts nested
// expressions in .fg blocks and decomposes them into 3-address form (§6).
// ParseUnit reads the typed dialect, and Unit.Lower lowers its structured
// statements (if, while, do … while, break, continue) to blocks once
// internal/typeinference has checked the unit; typeinference.Compile runs
// the three. A source of the structured mini-language ("prog") is a typed
// unit without functions, so it takes the same path. Both nesting front
// ends refuse a source nested deeper than maxNesting.
package parse

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

type tokKind uint8

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

// token is one lexeme: its kind, its text as the byte span src[off:end],
// and the line and byte column where it starts. Tokens hold no pointers,
// so a program's token slice is one allocation the collector never scans,
// and the parser takes a token's text only where it needs it.
type token struct {
	kind      tokKind
	off, end  int32
	line, col int32
}

// tally counts what the .fg parser allocates per program, so that it can
// size each slab once: block declarations; instructions (one per ":=",
// "out", "skip" and "if", or the one skip a block without statements
// gets); edges (one per "goto", two per "if"); out(...) operands (at most
// one per "out" and per ","); and operators, which bound ParseNested's
// decomposition assignments.
type tally struct {
	blocks, instrs, edges, args, ops int
	// bare: no statement since the last "block", whose skip is counted.
	bare bool
}

// stmt counts one statement's instruction. The first statement of a block
// takes over the slot counted for its skip.
func (n *tally) stmt() {
	if n.bare {
		n.bare = false
		return
	}
	n.instrs++
}

// Byte classes of the lexer's hot loop. Identifiers are ASCII:
// [A-Za-z_][A-Za-z0-9_]*.
const (
	classIdentStart = 1 << iota
	classIdentCont
	classDigit
)

var byteClass = func() (c [256]uint8) {
	for b := 'a'; b <= 'z'; b++ {
		c[b] = classIdentStart | classIdentCont
		c[b-'a'+'A'] = classIdentStart | classIdentCont
	}
	c['_'] = classIdentStart | classIdentCont
	for b := '0'; b <= '9'; b++ {
		c[b] = classIdentCont | classDigit
	}
	return c
}()

// lexAll tokenizes the whole source before parsing starts, so a lexical
// error anywhere wins over a syntax error. The token slice ends in tokEOF.
func lexAll(src string) ([]token, tally, error) {
	var n tally
	if len(src) > math.MaxInt32 {
		return nil, n, errors.New("source exceeds 2 GiB")
	}
	// Printed .fg programs run about four source bytes to a token, so one
	// token per three bytes usually fits without regrowing, and it never
	// exceeds the one token per byte that regrowing could reach.
	toks := make([]token, 0, len(src)/3+1)
	line, lineStart := 1, 0
	for i := 0; ; {
		// Skip white space and "//" and "#" line comments.
	space:
		for i < len(src) {
			c := src[i]
			switch {
			case c == '\n':
				line++
				i++
				lineStart = i
			case c == ' ' || c == '\t' || c == '\r':
				i++
			case c == '#' || c == '/' && i+1 < len(src) && src[i+1] == '/':
				for i < len(src) && src[i] != '\n' {
					i++
				}
			default:
				break space
			}
		}
		t := token{off: int32(i), line: int32(line), col: int32(i - lineStart + 1)}
		if i == len(src) {
			t.end = t.off
			return append(toks, t), n, nil
		}
		c := src[i]
		j := i + 1
		switch {
		case byteClass[c]&classIdentStart != 0:
			for j < len(src) && byteClass[src[j]]&classIdentCont != 0 {
				j++
			}
			t.kind = tokIdent
			n.keyword(src[i:j])
		case byteClass[c]&classDigit != 0:
			for j < len(src) && byteClass[src[j]]&classDigit != 0 {
				j++
			}
			t.kind = tokInt
		default:
			next := byte(0)
			if j < len(src) {
				next = src[j]
			}
			switch c {
			case '{':
				t.kind = tokLBrace
			case '}':
				t.kind = tokRBrace
			case '(':
				t.kind = tokLParen
			case ')':
				t.kind = tokRParen
			case ',':
				t.kind = tokComma
				n.args++
			case ':':
				t.kind = tokColon
				if next == '=' {
					t.kind = tokAssign
					n.stmt()
					j++
				}
			case '=':
				t.kind = tokEq
				if next == '=' {
					t.kind = tokOp
					j++
				}
			case '+', '-', '*', '/', '%':
				t.kind = tokOp
			case '<', '>':
				t.kind = tokOp
				if next == '=' {
					j++
				}
			case '!':
				if next != '=' {
					return nil, n, unexpected(src, i, line, lineStart)
				}
				t.kind = tokOp
				j++
			default:
				return nil, n, unexpected(src, i, line, lineStart)
			}
			if t.kind == tokOp {
				n.ops++
			}
		}
		t.end = int32(j)
		toks = append(toks, t)
		i = j
	}
}

// keyword counts the .fg statement and declaration keyword id, if it is one.
func (n *tally) keyword(id string) {
	switch id {
	case "block":
		n.blocks++
		n.instrs++
		n.bare = true
	case "out":
		n.stmt()
		n.args++
	case "skip":
		n.stmt()
	case "if":
		n.stmt()
		n.edges += 2
	case "goto":
		n.edges++
	}
}

// unexpected reports the character at src[i], decoded as UTF-8: a byte
// that starts no valid encoding is quoted as itself.
func unexpected(src string, i, line, lineStart int) error {
	_, size := utf8.DecodeRuneInString(src[i:])
	return fmt.Errorf("%d:%d: unexpected character %s", line, i-lineStart+1, strconv.Quote(src[i:i+size]))
}

// maxKeywordLen is the length of the longest keyword, "continue".
const maxKeywordLen = 8

// isKeyword reports whether the ASCII identifier s is, in any letter case,
// a keyword of the .fg syntax or the typed dialect: such words may not name
// blocks or variables. It lowers s into a stack buffer instead of
// allocating.
func isKeyword(s string) bool {
	if len(s) < 2 || len(s) > maxKeywordLen {
		return false
	}
	var lower [maxKeywordLen]byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	switch string(lower[:len(s)]) {
	case "graph", "entry", "exit", "block", "out", "skip", "goto",
		"if", "then", "else", "prog", "while", "do", "break", "continue",
		// typed dialect
		"fn", "let", "return", "true", "false", "int", "bool":
		return true
	}
	return false
}

// IsGraphName reports whether the parser accepts name after "graph": one
// identifier token (an ASCII letter or '_', then ASCII letters, digits and
// '_') that is not a keyword. The printer writes a graph's name verbatim,
// so only such names print back into a program that parses.
func IsGraphName(name string) bool {
	if name == "" || byteClass[name[0]]&classIdentStart == 0 {
		return false
	}
	for i := 1; i < len(name); i++ {
		if byteClass[name[i]]&classIdentCont == 0 {
			return false
		}
	}
	return !isKeyword(name)
}
