package parse

import (
	"strconv"
	"strings"

	"assignmentmotion/internal/ir"
)

// ParseNested parses a graph whose right-hand sides and condition sides
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
func ParseNested(src string) (*ir.Graph, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	p.nested = &nestedState{prefix: freshPrefix(src, p.toks)}
	return p.parseGraph()
}

// MustParseNested is ParseNested that panics on error, with the source
// position and offending line in the message.
func MustParseNested(src string) *ir.Graph {
	g, err := ParseNested(src)
	if err != nil {
		panic(mustMessage("parse.MustParseNested", src, err))
	}
	return g
}

// nestedState carries the decomposition-temporary allocator. Temporaries
// are memoized by sub-term — the "special naming discipline" of
// Briggs/Cooper that §6 mentions: syntactically identical sub-terms
// always decompose through the same temporary, so the later phases see
// them as one assignment pattern (each occurrence still carries its own
// initialization; sharing is the optimizer's job).
type nestedState struct {
	prefix string
	next   int
	byTerm map[ir.Term]ir.Var // decomposed terms
	byRel  map[relKey]ir.Var  // the typed dialect's 0/1 booleans
	// names holds every temporary's name; each is a substring of it.
	// Bytes once written never change (growing copies them to a new
	// buffer), so earlier names stay valid.
	names strings.Builder
}

// relKey is what a materialized boolean stands for: "l rel r". It keys a
// map of its own because it is larger than the 128 bytes a map stores in
// place, so each entry costs an allocation: booleans are few, decomposed
// terms (80 bytes, stored in place) are not.
type relKey struct {
	rel  ir.Op
	l, r ir.Term
}

// tempFor returns the temporary that decomposes t.
func (ns *nestedState) tempFor(t ir.Term) ir.Var {
	if v, ok := ns.byTerm[t]; ok {
		return v
	}
	if ns.byTerm == nil {
		ns.byTerm = map[ir.Term]ir.Var{}
	}
	v := ns.fresh()
	ns.byTerm[t] = v
	return v
}

// relTempFor returns the 0/1 variable that materializes "l rel r".
func (ns *nestedState) relTempFor(rel ir.Op, l, r ir.Term) ir.Var {
	k := relKey{rel, l, r}
	if v, ok := ns.byRel[k]; ok {
		return v
	}
	if ns.byRel == nil {
		ns.byRel = map[relKey]ir.Var{}
	}
	v := ns.fresh()
	ns.byRel[k] = v
	return v
}

// fresh returns the next temporary name: the prefix and a counter.
func (ns *nestedState) fresh() ir.Var {
	ns.next++
	lo := ns.names.Len()
	ns.names.WriteString(ns.prefix)
	var digits [20]byte
	ns.names.Write(strconv.AppendInt(digits[:0], int64(ns.next), 10))
	return ir.Var(ns.names.String()[lo:])
}

// tempPrefixes are the decomposition prefixes in order of preference.
var tempPrefixes = [...]string{"t", "u", "w", "tmp", "dtmp"}

// prefixClashes returns the set of tempPrefixes (bit i for prefix i) that
// identifier id spells with a digit suffix.
func prefixClashes(id string) (set uint8) {
	for i, prefix := range tempPrefixes {
		if strings.HasPrefix(id, prefix) && allDigits(id[len(prefix):]) && len(id) > len(prefix) {
			set |= 1 << i
		}
	}
	return set
}

// pickPrefix returns the first prefix not in the clash set.
func pickPrefix(clashes uint8) string {
	for i, prefix := range tempPrefixes {
		if clashes&(1<<i) == 0 {
			return prefix
		}
	}
	return "dtmp_"
}

// freshPrefix picks a temp prefix not colliding with program identifiers:
// the first of t, u, w, tmp whose digit-suffixed forms are unused.
func freshPrefix(src string, toks []token) string {
	var clashes uint8
	for _, t := range toks {
		if t.kind == tokIdent {
			clashes |= prefixClashes(src[t.off:t.end])
		}
	}
	return pickPrefix(clashes)
}

func allDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// expr is a parse-time expression node in p.exprs: a leaf operand (op
// empty) or op applied to the nodes at indices l and r, depth operators
// deep.
type expr struct {
	leaf  ir.Operand
	op    ir.Op
	l, r  int32
	depth int32
}

// node appends x to p.exprs and returns its index.
func (p *parser) node(x expr) int32 {
	p.exprs = append(p.exprs, x)
	return int32(len(p.exprs) - 1)
}

// binary appends "l op r" at t, refusing an expression more than
// maxNesting operators deep.
func (p *parser) binary(t token, op ir.Op, l, r int32) (int32, error) {
	d := max(p.exprs[l].depth, p.exprs[r].depth) + 1
	if d > maxNesting {
		return 0, p.tooDeep(t)
	}
	return p.node(expr{op: op, l: l, r: r, depth: d}), nil
}

// parseExpr parses a full-precedence expression (nested mode only) into
// p.exprs, which it first empties: an expression is lowered before the
// next one is parsed.
func (p *parser) parseExpr() (int32, error) {
	p.exprs = p.exprs[:0]
	return p.parseSum()
}

func (p *parser) parseSum() (int32, error) {
	e, err := p.parseMul()
	if err != nil {
		return 0, err
	}
	for {
		t := p.cur()
		if op := ir.Op(p.text(t)); t.kind == tokOp && (op == ir.OpAdd || op == ir.OpSub) {
			// A "-" directly followed by an integer could be either a
			// binary minus or the start of something else; in expression
			// position it is always binary here because unary minus is
			// folded into integer literals by parseAtom.
			p.advance()
			r, err := p.parseMul()
			if err != nil {
				return 0, err
			}
			if e, err = p.binary(t, op, e, r); err != nil {
				return 0, err
			}
			continue
		}
		return e, nil
	}
}

func (p *parser) parseMul() (int32, error) {
	e, err := p.parseAtom()
	if err != nil {
		return 0, err
	}
	for {
		t := p.cur()
		if op := ir.Op(p.text(t)); t.kind == tokOp && (op == ir.OpMul || op == ir.OpDiv || op == ir.OpRem) {
			p.advance()
			r, err := p.parseAtom()
			if err != nil {
				return 0, err
			}
			if e, err = p.binary(t, op, e, r); err != nil {
				return 0, err
			}
			continue
		}
		return e, nil
	}
}

func (p *parser) parseAtom() (int32, error) {
	if t := p.cur(); t.kind == tokLParen {
		if err := p.nest(t); err != nil {
			return 0, err
		}
		p.advance()
		e, err := p.parseSum()
		if err != nil {
			return 0, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return 0, err
		}
		p.depth--
		return e, nil
	}
	o, err := p.parseOperand()
	if err != nil {
		return 0, err
	}
	return p.node(expr{leaf: o}), nil
}

// lowerToTerm reduces node e to a 3-address term (at most one operator),
// appending decomposition assignments to p.instrs.
func (p *parser) lowerToTerm(e int32) ir.Term {
	x := p.exprs[e]
	if x.op == "" {
		return ir.OperandTerm(x.leaf)
	}
	lo := p.lowerToOperand(x.l)
	ro := p.lowerToOperand(x.r)
	return ir.BinTerm(x.op, lo, ro)
}

// lowerToOperand reduces node e to a single operand, introducing a fresh
// decomposition temporary when e is compound.
func (p *parser) lowerToOperand(e int32) ir.Operand {
	if x := p.exprs[e]; x.op == "" {
		return x.leaf
	}
	t := p.lowerToTerm(e)
	v := p.nested.tempFor(t)
	p.instrs = append(p.instrs, ir.NewAssign(v, t))
	return ir.VarOp(v)
}
