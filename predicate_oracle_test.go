package assignmentmotion

// The local-predicate oracle. The analyses build the local predicates of
// Tables 1–3 from per-variable indexes (analysis.PatternIndex,
// analysis.TempIndex), the session's per-instruction occurrence table and
// the pattern-ID encoding the aht/rae fixpoint runs on (analysis.Code);
// the pairwise definitions in internal/analysis/predicates.go stay the
// reference. This test checks every (instruction, pattern) and
// (instruction, temporary) pair, the encoding of every instruction, every
// block's encoded LOC-HOISTABLE, LOC-BLOCKED and gen/kill, and every
// hoisting and sinking candidate position, on the fg and fun corpora, a
// hand-built graph of the corner cases, and a cfggen sweep — on each graph
// as given, after the assignment motion phase (the graphs flush runs on),
// after emcp and gvn-emcp, whose temporaries occur inside other
// temporaries' expressions, and after each of the first three rounds of
// the encoded fixpoint, whose states include blocks emptied mid-fixpoint.
// Each of those rounds is also checked against one hoisting and one
// elimination step written with the reference predicates.

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/rae"
)

func TestDifferentialLocalPredicates(t *testing.T) {
	type input struct {
		name string
		g    *ir.Graph
	}
	inputs := []input{{"cases", predicateCases()}}
	for _, n := range corpus.Names() {
		inputs = append(inputs, input{"fg/" + n, corpus.Load(n)})
	}
	for _, n := range corpus.FunNames() {
		inputs = append(inputs, input{"fun/" + n, corpus.LoadFun(n)})
	}
	sizes := []int{6, 12, 20, 40, 80, 200}
	if testing.Short() {
		sizes = []int{6, 20}
	}
	for _, size := range sizes {
		seeds := 3
		if size >= 80 {
			seeds = 1
		}
		for seed := int64(0); seed < int64(seeds); seed++ {
			inputs = append(inputs,
				input{fmt.Sprintf("structured%d/seed%d", size, seed), cfggen.Structured(seed, cfggen.Config{Size: size})},
				input{fmt.Sprintf("unstructured%d/seed%d", size, seed), cfggen.Unstructured(seed, cfggen.Config{Size: size})})
		}
	}
	stages := []struct {
		name   string
		passes []string
	}{
		{"given", nil},
		{"am", []string{"init", "am"}},
		{"emcp", []string{"emcp"}},
		{"gvn-emcp", []string{"gvn-emcp"}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			// The round stage goes first: it stops at the first wrong
			// round, where a broken step may never reach a fixpoint.
			checkRounds(t, in.g)
			for _, st := range stages {
				g := in.g.Clone()
				if st.passes != nil {
					pl, err := pass.FromNames(st.passes...)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := pl.Run(g); err != nil {
						t.Fatalf("after %s: %v", st.name, err)
					}
				}
				checkLocalPredicates(t, "after "+st.name, g)
			}
		})
	}
}

// checkRounds runs the encoded aht/rae fixpoint for one, two and three
// rounds (am.Run capped by fault.Budget.MaxAMIterations writes each state
// back), from g with its critical
// edges split and from g after initialization, checks the local
// predicates of every state, and checks that each round equals one
// reference hoisting step followed by one reference elimination step on
// the state before it. Initialized programs hold no self-referential
// pattern, so the uninitialized start is what exercises Table 2's side
// condition in the elimination step.
func checkRounds(t *testing.T, g *ir.Graph) {
	t.Helper()
	split := g.Clone()
	split.SplitCriticalEdges()
	initialized := g.Clone()
	pl, err := pass.FromNames("init")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(initialized); err != nil {
		t.Fatal(err)
	}
	for _, start := range []struct {
		name string
		g    *ir.Graph
	}{{"given", split}, {"init", initialized}} {
		prev := start.g
		for k := 1; k <= 3; k++ {
			state := start.g.Clone()
			s := analysis.NewSession()
			s.SetBudget(fault.Budget{MaxAMIterations: k})
			if _, err := am.Run(state, s); err != nil && !errors.Is(err, fault.ErrBudgetExceeded) {
				t.Fatal(err)
			}
			s.Close()
			label := fmt.Sprintf("after round %d from %s", k, start.name)
			hoisted := referenceHoist(prev)
			if got := referenceEliminate(hoisted).Encode(); got != state.Encode() {
				t.Fatalf("%s: encoded fixpoint differs from the reference steps\n--- before\n%s--- reference hoist\n%s--- reference\n%s--- encoded\n%s",
					label, prev.Encode(), hoisted.Encode(), got, state.Encode())
			}
			checkLocalPredicates(t, label, state)
			prev = state
		}
	}
}

// referenceHoist is one hoisting step written against the reference
// predicates: in every block it drops each pattern's hoisting candidate
// (CandidateIndex) and inserts instances at aht's N-INSERT and X-INSERT
// points — a branch node's X-INSERTs at the entry of its successors,
// before their own N-INSERTs — each point's patterns in order of first
// occurrence in g.
func referenceHoist(g *ir.Graph) *ir.Graph {
	s := analysis.NewSession()
	defer s.Close()
	info := aht.Analyze(g, s)
	rank := map[ir.AssignPattern]int{}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind != ir.KindAssign {
				continue
			}
			if _, seen := rank[in.Pattern()]; !seen {
				rank[in.Pattern()] = len(rank)
			}
		}
	}
	instances := func(v bitvec.Vec) []ir.Instr {
		var ps []ir.AssignPattern
		for id := 0; id < v.Len(); id++ {
			if v.Get(id) {
				ps = append(ps, info.U.Pattern(id))
			}
		}
		sort.Slice(ps, func(i, j int) bool { return rank[ps[i]] < rank[ps[j]] })
		var out []ir.Instr
		for _, p := range ps {
			out = append(out, ir.NewAssign(p.LHS, p.RHS))
		}
		return out
	}
	out := g.Clone()
	for i, b := range g.Blocks {
		var next []ir.Instr
		if len(b.Preds) == 1 {
			if _, branch := g.Block(b.Preds[0]).Cond(); branch {
				next = append(next, instances(info.XInsert[int(b.Preds[0])])...)
			}
		}
		next = append(next, instances(info.NInsert[i])...)
		drop := map[int]bool{}
		for id := 0; id < info.U.Len(); id++ {
			if k, ok := analysis.CandidateIndex(b, info.U.PatternAt(id)); ok {
				drop[k] = true
			}
		}
		for k, in := range b.Instrs {
			if !drop[k] {
				next = append(next, in)
			}
		}
		if _, branch := b.Cond(); !branch {
			next = append(next, instances(info.XInsert[i])...)
		}
		out.Blocks[i].Instrs = next
	}
	return out.Normalize()
}

// referenceEliminate is one block-level elimination step written against
// the reference predicates: from the availability at each block's entry
// (N-REDUNDANT of its first instruction, as the instruction-level
// analysis solves it) a walk drops every occurrence whose pattern is
// available, keeping availability by Executed, AssTransp and the
// self-reference side condition of Table 2.
func referenceEliminate(g *ir.Graph) *ir.Graph {
	s := analysis.NewSession()
	defer s.Close()
	info := rae.Analyze(g, s)
	u := info.U
	out := g.Clone()
	for i, b := range g.Blocks {
		avail := info.NRedundant[info.Prog.Index(analysis.Point{Block: b.ID})].Copy()
		var kept []ir.Instr
		for k := range b.Instrs {
			in := &b.Instrs[k]
			occ := -1
			for id := 0; id < u.Len(); id++ {
				if analysis.Executed(in, u.PatternAt(id)) {
					occ = id
				}
			}
			if occ >= 0 && avail.Get(occ) {
				continue
			}
			for id := 0; id < u.Len(); id++ {
				if !analysis.AssTransp(in, u.PatternAt(id)) {
					avail.Clear(id)
				}
			}
			if occ >= 0 && !u.PatternAt(occ).SelfReferential() {
				avail.Set(occ)
			}
			kept = append(kept, *in)
		}
		out.Blocks[i].Instrs = kept
	}
	return out.Normalize()
}

// predicateCases is a graph built directly in post-initialization form
// (the parser rejects temporary names) that holds the corner cases of the
// indexed predicates: a self-referential x := x + 1, an expression a + a
// reading one variable twice, a temporary whose expression reads another
// temporary, an assignment to a temporary that is not an instance,
// out(h), and temporaries and pattern left-hand sides read on both sides
// of branch conditions.
func predicateCases() *ir.Graph {
	x, a, b := ir.VarOp("x"), ir.VarOp("a"), ir.VarOp("b")
	aa := ir.BinTerm(ir.OpAdd, a, a)
	x1 := ir.BinTerm(ir.OpAdd, x, ir.ConstOp(1))
	h0b := ir.BinTerm(ir.OpMul, ir.VarOp("h0"), b)
	g := ir.NewGraph("cases")
	g.RegisterTemp("h0", aa)
	g.RegisterTemp("h1", x1)
	g.RegisterTemp("h2", h0b)
	blocks := map[string]*ir.Block{}
	block := func(name string, instrs ...ir.Instr) {
		blocks[name] = g.AddBlock(name)
		blocks[name].Instrs = instrs
	}
	block("start", ir.NewAssign("x", ir.ConstTerm(0)))
	block("s",
		ir.NewAssign("h0", aa),
		ir.NewAssign("y", ir.VarTerm("h0")),
		ir.NewAssign("x", x1),
		ir.NewAssign("x", x1),
		ir.NewAssign("h1", x1),
		ir.NewCond(ir.OpLT, ir.VarTerm("h0"), ir.VarTerm("x")))
	block("l",
		ir.NewAssign("h2", h0b),
		ir.NewOut(ir.VarOp("h2"), x),
		ir.NewAssign("a", ir.VarTerm("h1")),
		ir.NewAssign("h0", aa),
		ir.NewAssign("h0", ir.ConstTerm(7)))
	block("r",
		ir.NewAssign("h0", aa),
		ir.NewAssign("h0", aa),
		ir.NewOut(ir.VarOp("h0")),
		ir.NewAssign("b", x1))
	block("j",
		ir.NewAssign("y", aa),
		ir.NewCond(ir.OpGE, h0b, ir.VarTerm("y")))
	block("back", ir.NewAssign("x", ir.VarTerm("y")))
	block("e", ir.NewOut(x, ir.VarOp("y"), ir.VarOp("h1")))
	for _, e := range [][2]string{{"start", "s"}, {"s", "l"}, {"s", "r"}, {"l", "j"}, {"r", "j"},
		{"j", "back"}, {"j", "e"}, {"back", "s"}} {
		g.AddEdge(blocks[e[0]].ID, blocks[e[1]].ID)
	}
	g.Entry, g.Exit = blocks["start"].ID, blocks["e"].ID
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// checkLocalPredicates compares every indexed local predicate of g with
// its pairwise reference definition.
func checkLocalPredicates(t *testing.T, label string, g *ir.Graph) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{label}, args...)...)
	}
	s := analysis.NewSession()
	defer s.Close()
	u, px, occ := analysis.NewUniverse(g)
	if ref := ir.AssignUniverse(g); ref.Len() != u.Len() {
		fail("universe has %d patterns, the graph %d", u.Len(), ref.Len())
	}
	bits := u.Len()
	code := analysis.NewCode(g, s)
	prog := analysis.NewProg(g)

	for i, b := range g.Blocks {
		ids := occ.Block(i)
		if len(ids) != len(b.Instrs) {
			fail("block %s: %d occurrence entries for %d instructions", b.Name, len(ids), len(b.Instrs))
		}
		for k := range b.Instrs {
			in := &b.Instrs[k]
			if all := occ.All()[prog.Index(analysis.Point{Block: b.ID, Index: k})]; all != ids[k] {
				fail("%v: Prog-order occurrence %d, block-order %d", *in, all, ids[k])
			}
			blocked := bitvec.New(bits)
			px.OrBlocked(in, blocked)
			kill := px.KillVec(in)
			for id := 0; id < bits; id++ {
				p := u.PatternAt(id)
				if analysis.Executed(in, p) != (ids[k] == id) {
					fail("%v: occurrence ID %d, pattern %d (%v)", *in, ids[k], id, *p)
				}
				if kill.Get(id) == analysis.AssTransp(in, p) { // Table 2
					fail("%v: kill bit of %v is %v", *in, *p, kill.Get(id))
				}
				if blocked.Get(id) != analysis.BlocksPattern(in, p) {
					fail("%v: blocked bit of %v is %v", *in, *p, blocked.Get(id))
				}
			}
		}

		// The encoding: one entry per instruction but skips, the pattern
		// ID of each assignment and a side entry for out and branches.
		enc := code.Block(i)
		var pos []int // encoded position -> instruction index
		for k := range b.Instrs {
			if b.Instrs[k].Kind != ir.KindSkip {
				pos = append(pos, k)
			}
		}
		if len(enc) != len(pos) {
			fail("block %s: %d encoded entries for %d instructions but skips", b.Name, len(enc), len(pos))
		}
		for j, e := range enc {
			in := &b.Instrs[pos[j]]
			if (e >= 0) != (in.Kind == ir.KindAssign) || (e >= 0 && u.Pattern(e) != in.Pattern()) {
				fail("%v: encoded as %d", *in, e)
			}
		}
		if _, branch := b.Cond(); code.Branch(i) != branch {
			fail("block %s: encoded branch %v", b.Name, code.Branch(i))
		}

		// Table 1, as aht solves it on the encoding, and the hoisting
		// candidates at the first occurrence.
		locH, locB := code.Locals(i)
		cands := bitvec.New(len(b.Instrs))
		encCands := analysis.Candidates(enc, locH, false, nil)
		for j := range enc {
			if encCands.Get(j) {
				cands.Set(pos[j])
			}
		}
		locS, locBR := px.BlockLocalsReverse(b, ids, nil)
		sinks := analysis.Candidates(ids, locS, true, nil)
		if !locBR.Equal(locB) {
			fail("block %s: forward and reverse LOC-BLOCKED differ", b.Name)
		}
		gen, kill := code.Transfer(i)
		for id := 0; id < bits; id++ {
			p := u.PatternAt(id)
			if locB.Get(id) != analysis.LocBlocked(b, p) {
				fail("block %s: LOC-BLOCKED of %v is %v", b.Name, *p, locB.Get(id))
			}
			k, ok := analysis.CandidateIndex(b, p)
			if locH.Get(id) != ok || (ok && !cands.Get(k)) {
				fail("block %s: hoisting candidate of %v: want %d/%v", b.Name, *p, k, ok)
			}
			k, ok = sinkCandidate(b, p)
			if locS.Get(id) != ok || (ok && !sinks.Get(k)) {
				fail("block %s: sinking candidate of %v: want %d/%v", b.Name, *p, k, ok)
			}
			rg, rk := blockTransfer(b, p)
			if gen.Get(id) != rg || kill.Get(id) != rk {
				fail("block %s: gen/kill of %v are %v/%v, want %v/%v", b.Name, *p, gen.Get(id), kill.Get(id), rg, rk)
			}
		}
		if cands.PopCount() != locH.PopCount() || sinks.PopCount() != locS.PopCount() {
			fail("block %s: candidate count differs from LOC-HOISTABLE/LOC-SINKABLE", b.Name)
		}
	}

	// Encoding and writing back is the identity on a normalized graph.
	round := g.Clone()
	rs := analysis.NewSession()
	analysis.NewCode(round, rs).WriteBack()
	rs.Close()
	if got, want := round.Encode(), g.Encode(); got != want {
		fail("encode and write-back changed the graph\n--- want\n%s--- got\n%s", want, got)
	}

	// Table 3, as flush computes it.
	info := flush.Analyze(g, s)
	for i := range prog.Ins {
		in := &prog.Ins[i]
		for t, h := range info.Temps {
			e := info.Exprs[t]
			if info.IsInst[i].Get(t) != analysis.IsInst(in, h, e) {
				fail("%v: IS-INST of %s is %v", *in, h, info.IsInst[i].Get(t))
			}
			if info.Used[i].Get(t) != analysis.UsesTemp(in, h) {
				fail("%v: USED of %s is %v", *in, h, info.Used[i].Get(t))
			}
			if info.Blocked[i].Get(t) != analysis.BlocksInit(in, h, e) {
				fail("%v: BLOCKED of %s := %v is %v", *in, h, e, info.Blocked[i].Get(t))
			}
		}
	}
}

// sinkCandidate is the reference sinking candidate: the last occurrence of
// p in b not followed by a blocker.
func sinkCandidate(b *ir.Block, p *ir.AssignPattern) (int, bool) {
	for k := len(b.Instrs) - 1; k >= 0; k-- {
		if analysis.Executed(&b.Instrs[k], p) {
			return k, true
		}
		if analysis.BlocksPattern(&b.Instrs[k], p) {
			return 0, false
		}
	}
	return 0, false
}

// blockTransfer is the reference block-level composition of Table 2:
// whether p's association holds at b's exit whenever b generated it
// (gen), and whether b destroys an association holding at its entry
// (kill). A self-referential occurrence never generates (Table 2's side
// condition).
func blockTransfer(b *ir.Block, p *ir.AssignPattern) (gen, kill bool) {
	for k := range b.Instrs {
		in := &b.Instrs[k]
		occ := analysis.Executed(in, p) && !p.SelfReferential()
		transp := analysis.AssTransp(in, p)
		gen = occ || (gen && transp)
		kill = !occ && (kill || !transp)
	}
	return gen, kill
}
