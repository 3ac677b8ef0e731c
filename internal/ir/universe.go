package ir

// PatternSet is a dense-indexed universe of assignment patterns. All
// bit-vector analyses over assignment patterns (Tables 1 and 2) index their
// vectors by the pattern IDs of one PatternSet. AssignPattern is a
// comparable value type, so the index maps the pattern itself — pattern
// lookup (the single hottest map operation in the analyses) never
// materializes a key string. The zero value is an empty set ready to use.
type PatternSet struct {
	pats  []AssignPattern
	index map[AssignPattern]int
}

// AssignUniverse collects every assignment pattern occurring in g, in
// deterministic program order (block order, then instruction order). This is
// the paper's AP restricted to occurring patterns; the "enrichment" by
// h_ε := ε and v := h_ε patterns is realized operationally by the
// initialization phase, which materializes those occurrences before any
// analysis runs.
func AssignUniverse(g *Graph) *PatternSet {
	u := &PatternSet{}
	for _, b := range g.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Kind == KindAssign {
				u.Intern(b.Instrs[i].Pattern())
			}
		}
	}
	return u
}

// Intern adds p to the universe if absent and returns its dense ID. IDs
// are stable: interning never renumbers existing patterns.
func (u *PatternSet) Intern(p AssignPattern) int {
	if id, ok := u.index[p]; ok {
		return id
	}
	if u.index == nil {
		u.index = map[AssignPattern]int{}
	}
	id := len(u.pats)
	u.pats = append(u.pats, p)
	u.index[p] = id
	return id
}

// ID returns the dense ID of p and whether it is in the universe.
func (u *PatternSet) ID(p AssignPattern) (int, bool) {
	id, ok := u.index[p]
	return id, ok
}

// Pattern returns the pattern with dense ID id.
func (u *PatternSet) Pattern(id int) AssignPattern { return u.pats[id] }

// PatternAt returns a pointer to the pattern with dense ID id, for the
// hot analysis loops (the pattern must not be mutated).
func (u *PatternSet) PatternAt(id int) *AssignPattern { return &u.pats[id] }

// Len returns the number of patterns in the universe.
func (u *PatternSet) Len() int { return len(u.pats) }

// Patterns returns the patterns in ID order. The slice is shared; callers
// must not mutate it.
func (u *PatternSet) Patterns() []AssignPattern { return u.pats }

// ExprSet is a dense-indexed universe of expression patterns (non-trivial
// terms), the paper's EP.
type ExprSet struct {
	exprs []Term
	index map[Term]int
}

// ExprUniverse collects every expression pattern occurring in g: the
// non-trivial right-hand sides of assignments and the non-trivial sides of
// branch conditions, in deterministic program order.
func ExprUniverse(g *Graph) *ExprSet {
	u := &ExprSet{index: map[Term]int{}}
	var terms []Term
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			terms = in.Terms(terms[:0])
			for _, t := range terms {
				if !t.Trivial() {
					u.Intern(t)
				}
			}
		}
	}
	return u
}

// Intern adds ε to the universe if absent and returns its dense ID.
// It panics on trivial terms (caller bug).
func (u *ExprSet) Intern(e Term) int {
	if e.Trivial() {
		panic("ir: trivial term is not an expression pattern")
	}
	if id, ok := u.index[e]; ok {
		return id
	}
	id := len(u.exprs)
	u.exprs = append(u.exprs, e)
	u.index[e] = id
	return id
}

// ID returns the dense ID of ε and whether it is in the universe.
func (u *ExprSet) ID(e Term) (int, bool) {
	id, ok := u.index[e]
	return id, ok
}

// Expr returns the expression with dense ID id.
func (u *ExprSet) Expr(id int) Term { return u.exprs[id] }

// Len returns the number of expressions in the universe.
func (u *ExprSet) Len() int { return len(u.exprs) }

// Exprs returns the expressions in ID order. The slice is shared; callers
// must not mutate it.
func (u *ExprSet) Exprs() []Term { return u.exprs }
