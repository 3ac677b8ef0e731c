// Package gvn implements global value numbering in the partition-refinement
// style of Saleena & Paleri, "A Simple Algorithm for Global Value Numbering"
// (arXiv:1303.1880): a forward data flow analysis whose facts are partitions
// of program terms into value-equivalence classes. At every program point
// the analysis knows which variables, constants, and expressions are
// guaranteed to hold the same value on every path from the entry, and the
// transformation replaces a recomputation of an already-available value by
// a copy from a variable (or constant) of the same class — or by skip when
// the target itself already holds the value.
//
// The IR makes the classical algorithm pleasantly small: terms carry at
// most one operator (§2 of the source paper), so value expressions never
// nest and the per-point partition ranges over the finite set of variables,
// literals, and single-operator expressions of the program. The join of two
// partitions at a control-flow merge is computed by Kildall's product
// construction: a value is known in the merged state exactly when it is
// known on both sides, and two terms are equivalent after the merge exactly
// when they are equivalent on both sides.
//
// Relationship to assignment motion (the repository's central study): GVN
// converts equivalent-expression recomputations into trivial copies BEFORE
// the initialization phase decomposes the program, which shrinks the
// expression-pattern universe the AM/EM bit-vector analyses range over —
// the second-order interaction measured by the gvn-emcp composite and the
// BENCH_dataflow.json "gvnUniverse" rows.
package gvn

import (
	"sort"
	"strconv"
	"strings"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

func init() {
	pass.Register(pass.Pass{
		Name:        "gvn",
		Description: "global value numbering: replace recomputations of available values by copies (partition refinement)",
		Ref:         "Saleena & Paleri, arXiv:1303.1880; cf. arXiv:1504.03239",
		RunWith: func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			replaced, sweeps, err := Run(g, s)
			return pass.Stats{Changes: replaced, Iterations: sweeps}, err
		},
	})
}

// exprKey is a value expression: an operator applied to two value numbers.
// Two syntactic terms map to the same exprKey in a state exactly when their
// operands are pairwise value-equivalent there.
type exprKey struct {
	op   ir.Op
	l, r int
}

// state is the data flow fact at one program point: a partition of terms
// into value classes, represented by value numbers. vars and consts bind
// leaves to their class; exprs records that applying op to the classes
// (l, r) is known to yield the class it maps to — knowledge established by
// an executed assignment upstream, which is exactly what makes a later
// syntactic recomputation redundant. Value numbers are meaningful only
// within one state; joins build a fresh numbering.
type state struct {
	vars   map[ir.Var]int
	consts map[int64]int
	exprs  map[exprKey]int
	next   int
}

// newState returns a state with every program literal pre-bound to its own
// class (a literal's value is itself, everywhere), in sorted order so value
// numbers are deterministic.
func newState(literals []int64) *state {
	s := &state{
		vars:   map[ir.Var]int{},
		consts: make(map[int64]int, len(literals)),
		exprs:  map[exprKey]int{},
	}
	for _, c := range literals {
		s.consts[c] = s.next
		s.next++
	}
	return s
}

func (s *state) clone() *state {
	c := &state{
		vars:   make(map[ir.Var]int, len(s.vars)),
		consts: make(map[int64]int, len(s.consts)),
		exprs:  make(map[exprKey]int, len(s.exprs)),
		next:   s.next,
	}
	for k, v := range s.vars {
		c.vars[k] = v
	}
	for k, v := range s.consts {
		c.consts[k] = v
	}
	for k, v := range s.exprs {
		c.exprs[k] = v
	}
	return c
}

// fresh allocates a new singleton class.
func (s *state) fresh() int {
	n := s.next
	s.next++
	return n
}

// vnVar returns v's class, binding it to a fresh singleton on first sight
// (an unknown value is distinct from everything until proven otherwise).
func (s *state) vnVar(v ir.Var) int {
	if n, ok := s.vars[v]; ok {
		return n
	}
	n := s.fresh()
	s.vars[v] = n
	return n
}

// vnConst returns c's class. Literals are pre-seeded; the fallback covers
// literals a transformation introduced after the seeding scan.
func (s *state) vnConst(c int64) int {
	if n, ok := s.consts[c]; ok {
		return n
	}
	n := s.fresh()
	s.consts[c] = n
	return n
}

func (s *state) vnOperand(o ir.Operand) int {
	if o.IsConst {
		return s.vnConst(o.Const)
	}
	return s.vnVar(o.Var)
}

// vnTerm returns the class of t, creating a fresh class (and recording the
// value expression) for a first-seen compound term.
func (s *state) vnTerm(t ir.Term) int {
	if t.Trivial() {
		return s.vnOperand(t.Args[0])
	}
	k := exprKey{op: t.Op, l: s.vnOperand(t.Args[0]), r: s.vnOperand(t.Args[1])}
	if n, ok := s.exprs[k]; ok {
		return n
	}
	n := s.fresh()
	s.exprs[k] = n
	return n
}

// transfer applies one instruction to the state. Only assignments change
// value knowledge: the target leaves its old class and joins the class of
// the right-hand side (computed before the rebinding, so x := x+1 reads the
// old x). out and branch instructions read values without changing them.
func (s *state) transfer(in ir.Instr) {
	if in.Kind != ir.KindAssign {
		return
	}
	n := s.vnTerm(in.RHS)
	s.vars[in.LHS] = n
}

// join is Kildall's product construction: the partition containing exactly
// the equivalences common to a and b. A pair of classes (one from each
// side) becomes one merged class; value expressions survive when both their
// operand classes and (transitively) the expressions establishing them
// survive on both sides, so the closure iterates until no new merged
// expression appears.
func join(a, b *state) *state {
	out := &state{vars: map[ir.Var]int{}, consts: map[int64]int{}, exprs: map[exprKey]int{}}
	type vnPair struct{ x, y int }
	pairs := map[vnPair]int{}
	merged := func(x, y int) int {
		if n, ok := pairs[vnPair{x, y}]; ok {
			return n
		}
		n := out.fresh()
		pairs[vnPair{x, y}] = n
		return n
	}
	for v, x := range a.vars {
		if y, ok := b.vars[v]; ok {
			out.vars[v] = merged(x, y)
		}
	}
	for c, x := range a.consts {
		if y, ok := b.consts[c]; ok {
			out.consts[c] = merged(x, y)
		}
	}
	// Index b's expressions by operator to keep the closure loop tight.
	byOp := map[ir.Op][]exprKey{}
	for k := range b.exprs {
		byOp[k.op] = append(byOp[k.op], k)
	}
	for {
		added := false
		for ka, na := range a.exprs {
			for _, kb := range byOp[ka.op] {
				pl, okL := pairs[vnPair{ka.l, kb.l}]
				if !okL {
					continue
				}
				pr, okR := pairs[vnPair{ka.r, kb.r}]
				if !okR {
					continue
				}
				nk := exprKey{op: ka.op, l: pl, r: pr}
				if _, seen := out.exprs[nk]; seen {
					continue
				}
				out.exprs[nk] = merged(na, b.exprs[kb])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// canon renders the information content of the state — the induced
// equivalences, not the arbitrary value numbers — as a string, for fixpoint
// detection. Classes are renumbered in a deterministic traversal (sorted
// variables, then sorted literals, then expressions in canonical-key order,
// closed transitively); expressions whose operand classes are not anchored
// in any leaf are unreachable garbage and are dropped, so two states
// carrying the same knowledge canonicalize identically.
func (s *state) canon() string {
	canonOf := map[int]int{}
	next := 0
	number := func(vn int) int {
		if id, ok := canonOf[vn]; ok {
			return id
		}
		canonOf[vn] = next
		next++
		return canonOf[vn]
	}

	var sb strings.Builder
	vars := make([]string, 0, len(s.vars))
	for v := range s.vars {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	for _, v := range vars {
		sb.WriteString(v)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(number(s.vars[ir.Var(v)])))
		sb.WriteByte(';')
	}
	consts := make([]int64, 0, len(s.consts))
	for c := range s.consts {
		consts = append(consts, c)
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i] < consts[j] })
	for _, c := range consts {
		sb.WriteString(strconv.FormatInt(c, 10))
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(number(s.consts[c])))
		sb.WriteByte(';')
	}

	type canonExpr struct {
		op   ir.Op
		l, r int
		key  exprKey
	}
	done := map[exprKey]bool{}
	for {
		var ready []canonExpr
		for k := range s.exprs {
			if done[k] {
				continue
			}
			cl, okL := canonOf[k.l]
			if !okL {
				continue
			}
			cr, okR := canonOf[k.r]
			if !okR {
				continue
			}
			ready = append(ready, canonExpr{op: k.op, l: cl, r: cr, key: k})
		}
		if len(ready) == 0 {
			return sb.String()
		}
		sort.Slice(ready, func(i, j int) bool {
			if ready[i].op != ready[j].op {
				return ready[i].op < ready[j].op
			}
			if ready[i].l != ready[j].l {
				return ready[i].l < ready[j].l
			}
			return ready[i].r < ready[j].r
		})
		for _, e := range ready {
			sb.WriteString(string(e.op))
			sb.WriteByte('(')
			sb.WriteString(strconv.Itoa(e.l))
			sb.WriteByte(',')
			sb.WriteString(strconv.Itoa(e.r))
			sb.WriteString(")=")
			sb.WriteString(strconv.Itoa(number(s.exprs[e.key])))
			sb.WriteByte(';')
			done[e.key] = true
		}
	}
}

// literalsOf collects every integer literal occurring in g, sorted.
func literalsOf(g *ir.Graph) []int64 {
	seen := map[int64]bool{}
	addTerm := func(t ir.Term) {
		for _, o := range t.Operands() {
			if o.IsConst {
				seen[o.Const] = true
			}
		}
	}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			switch in.Kind {
			case ir.KindAssign:
				addTerm(in.RHS)
			case ir.KindOut:
				for _, o := range in.Args {
					if o.IsConst {
						seen[o.Const] = true
					}
				}
			case ir.KindCond:
				addTerm(in.CondL)
				addTerm(in.CondR)
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Run applies global value numbering to g in place and returns the number
// of rewritten instructions and of fixpoint sweeps over the block order.
// The analysis work is tallied into session s's solver counters for
// per-pass reporting. Each analysis sweep honours the session's budget and
// cancellation context, and a fixpoint overrun surfaces as
// fault.ErrNoFixpoint instead of spinning. On error the graph is unchanged
// (the rewrite happens only after the analysis converges).
func Run(g *ir.Graph, s *analysis.Session) (replaced, sweeps int, err error) {
	ins, sweeps, visits, err := analyze(g, s)
	st := s.DataflowStats()
	st.Solves++
	st.Visits += visits
	st.Sweeps += sweeps
	if err != nil {
		return 0, sweeps, err
	}
	return rewrite(g, ins), sweeps, nil
}

// analyze solves the value-partition data flow problem at block
// granularity and returns the entry state of every block (nil for blocks
// unreachable from the entry). visits counts block transfer evaluations,
// the same unit the bit-vector solver reports.
func analyze(g *ir.Graph, s *analysis.Session) (ins []*state, sweeps, visits int, err error) {
	n := len(g.Blocks)
	view := analysis.NewBlockView(g)
	literals := literalsOf(g)

	ins = make([]*state, n)
	outs := make([]*state, n)
	inCanon := make([]string, n)
	entry := int(g.Entry)

	// The partition at a point can only coarsen sweep over sweep (joins
	// remove equivalences, transfer is monotone), and its height is bounded
	// by the number of distinct terms, so convergence is fast; the backstop
	// flags termination bugs, not slow inputs.
	maxSweeps := 4*n + 2*g.InstrCount() + 16
	for {
		sweeps++
		if sweeps > maxSweeps {
			return nil, sweeps, visits, &fault.NoFixpointError{Proc: "gvn", Iterations: sweeps, Limit: maxSweeps}
		}
		if err := s.CheckBudget(0); err != nil {
			return nil, sweeps, visits, err
		}
		changed := false
		for _, i := range view.FwdOrder {
			var m *state
			if i == entry {
				m = newState(literals)
			} else {
				for _, p := range view.Preds(i) {
					if outs[p] == nil {
						continue
					}
					if m == nil {
						m = outs[p].clone()
					} else {
						m = join(m, outs[p])
					}
				}
			}
			if m == nil {
				continue // unreachable so far
			}
			c := m.canon()
			if ins[i] != nil && c == inCanon[i] {
				continue
			}
			ins[i] = m
			inCanon[i] = c
			visits++
			out := m.clone()
			for _, in := range g.Blocks[i].Instrs {
				out.transfer(in)
			}
			outs[i] = out
			changed = true
		}
		if !changed {
			return ins, sweeps, visits, nil
		}
	}
}

// rewrite walks every reachable block under its entry state and replaces
// assignments whose value is already available:
//
//   - v := t where v's current class is already t's class becomes skip (the
//     assignment cannot change anything — the classical "second computation
//     into the same variable" case);
//   - v := t with a compound t whose value expression is known becomes a
//     copy v := c from the literal of the class, or v := w from the
//     alphabetically first variable of the class — turning a recomputation
//     into a trivial copy for copy propagation and assignment motion to
//     finish off.
//
// States are tracked through the ORIGINAL instructions: a rewritten copy
// carries strictly less syntactic knowledge (no value expression), but the
// original's knowledge remains true value-wise, so later decisions in the
// same block stay maximal and sound.
func rewrite(g *ir.Graph, ins []*state) int {
	replaced := 0
	for i, b := range g.Blocks {
		st := ins[i]
		if st == nil {
			continue
		}
		st = st.clone()
		for k := range b.Instrs {
			orig := b.Instrs[k]
			if orig.Kind == ir.KindAssign {
				if nt := replacement(st, orig); nt != nil {
					b.Instrs[k] = ir.NewAssign(orig.LHS, *nt)
					replaced++
				}
			}
			st.transfer(orig)
		}
	}
	if replaced > 0 {
		g.Normalize()
	}
	return replaced
}

// replacement returns the cheaper right-hand side for an assignment whose
// value is already available in st, or nil. The choice is deterministic:
// the target itself (yielding skip via the x := x identification), else the
// class's literal (a class holds at most one — distinct literals are never
// joined), else the alphabetically first variable of the class.
func replacement(st *state, in ir.Instr) *ir.Term {
	var n int
	if in.RHS.Trivial() {
		n = st.vnOperand(in.RHS.Args[0])
	} else {
		k := exprKey{op: in.RHS.Op, l: st.vnOperand(in.RHS.Args[0]), r: st.vnOperand(in.RHS.Args[1])}
		got, ok := st.exprs[k]
		if !ok {
			return nil // first computation of this value
		}
		n = got
	}
	if cur, ok := st.vars[in.LHS]; ok && cur == n {
		t := ir.VarTerm(in.LHS) // NewAssign identifies v := v with skip
		return &t
	}
	if in.RHS.Trivial() {
		return nil // already a minimal copy
	}
	for c, vn := range st.consts {
		if vn == n {
			t := ir.ConstTerm(c)
			return &t
		}
	}
	best := ir.Var("")
	for v, vn := range st.vars {
		if vn == n && v != in.LHS && (best == "" || v < best) {
			best = v
		}
	}
	if best == "" {
		return nil // value known equal but no longer held anywhere
	}
	t := ir.VarTerm(best)
	return &t
}
