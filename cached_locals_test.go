package assignmentmotion

// The oracle for the encoding's cached local predicates. analysis.Code
// keeps every block's LOC-HOISTABLE, LOC-BLOCKED and block gen/kill for
// the whole motion phase and recomputes a block only after a step rewrote
// it through SetBlock, which marks it. This file drives every loop of the
// phase step by step — am's fixpoint from the given and from the
// initialized program, em's fixpoint over the initialization patterns,
// and am-restricted with its trial copies — and after every aht and rae
// step compares each block's cached vectors with ones computed from its
// current entries. Each driven loop must end where the pass itself ends,
// so the drivers cannot drift from the loops they mirror; the pass runs
// second, since with a wrong cache it may never reach a fixpoint, while
// the driven loop stops at the first wrong step.

import (
	"fmt"
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/am"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/figures"
	"assignmentmotion/internal/flush"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/lcm"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/rae"
)

func TestDifferentialCachedLocals(t *testing.T) {
	type input struct {
		name string
		g    *ir.Graph
	}
	var inputs []input
	for _, n := range corpus.Names() {
		inputs = append(inputs, input{"fg/" + n, corpus.Load(n)})
	}
	for _, n := range corpus.FunNames() {
		inputs = append(inputs, input{"fun/" + n, corpus.LoadFun(n)})
	}
	for _, n := range figures.Names() {
		inputs = append(inputs, input{"figure/" + n, figures.Load(n)})
	}
	sizes, seeds := []int{6, 12, 40, 200}, int64(10)
	if testing.Short() {
		sizes, seeds = []int{6, 12, 40}, 3
	}
	for _, size := range sizes {
		for seed := range seeds {
			inputs = append(inputs,
				input{fmt.Sprintf("structured%d/seed%d", size, seed), cfggen.Structured(seed, cfggen.Config{Size: size})},
				input{fmt.Sprintf("unstructured%d/seed%d", size, seed), cfggen.Unstructured(seed, cfggen.Config{Size: size})})
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			initialized := in.g.Clone()
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
			}{{"given", in.g}, {"init", initialized}} {
				checkAMSteps(t, "am from "+start.name, start.g)
				checkRestrictedSteps(t, "am-restricted from "+start.name, start.g)
			}
			checkEMSteps(t, in.g)
		})
	}
}

// checkAMSteps drives am.Run's fixpoint on a copy of g.
func checkAMSteps(t *testing.T, label string, g *ir.Graph) {
	t.Helper()
	got := g.Clone()
	s := analysis.NewSession()
	defer s.Close()
	got.SplitCriticalEdges()
	c, done := analysis.Encode(got, s)
	fixpointSteps(t, label, c, s, bitvec.Vec{})
	done()
	want := g.Clone()
	if _, err := am.Run(want, s); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameOutput(t, label, got, want)
}

// checkEMSteps drives lcm.Run's fixpoint over the initialization patterns
// on a copy of g.
func checkEMSteps(t *testing.T, g *ir.Graph) {
	t.Helper()
	got := g.Clone()
	s := analysis.NewSession()
	defer s.Close()
	got.SplitCriticalEdges()
	core.Initialize(got)
	c, done := analysis.Encode(got, s)
	isInit := bitvec.New(c.U.Len())
	for id, p := range c.U.Patterns() {
		if e, ok := got.TempExpr(p.LHS); ok && e.Equal(p.RHS) {
			isInit.Set(id)
		}
	}
	fixpointSteps(t, "em", c, s, isInit)
	done()
	flush.Run(got, s)
	want := g.Clone()
	if _, err := lcm.Run(want, s); err != nil {
		t.Fatalf("em: %v", err)
	}
	sameOutput(t, "em", got, want)
}

// checkRestrictedSteps drives am.RunRestricted's loop on a copy of g.
func checkRestrictedSteps(t *testing.T, label string, g *ir.Graph) {
	t.Helper()
	got := g.Clone()
	s := analysis.NewSession()
	defer s.Close()
	got.SplitCriticalEdges()
	c, done := analysis.Encode(got, s)
	restrictedSteps(t, label, c, s)
	done()
	want := g.Clone()
	if _, err := am.RunRestricted(want, s); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameOutput(t, label, got, want)
}

// fixpointSteps is am.Fixpoint, checking the cached local predicates
// after every step.
func fixpointSteps(t *testing.T, label string, c *analysis.Code, s *analysis.Session, keep bitvec.Vec) {
	t.Helper()
	limit := analysis.RoundLimit(c.G)
	for round := 1; round <= limit; round++ {
		hoisted := aht.Step(c, s, keep)
		checkCachedLocals(t, c, "%s, round %d, after aht", label, round)
		removed := rae.Step(c, s, keep)
		checkCachedLocals(t, c, "%s, round %d, after rae", label, round)
		if !hoisted && removed == 0 {
			return
		}
	}
	t.Fatalf("%s: no fixpoint after %d rounds", label, limit)
}

// restrictedSteps is am.RunRestricted's loop, checking the cached local
// predicates after every step, its trial copies' included.
func restrictedSteps(t *testing.T, label string, c *analysis.Code, s *analysis.Session) {
	t.Helper()
	prof, only := bitvec.New(c.U.Len()), bitvec.New(c.U.Len())
	limit := analysis.RoundLimit(c.G)
	for round := 1; round <= limit; round++ {
		removed := rae.Step(c, s, bitvec.Vec{})
		checkCachedLocals(t, c, "%s, round %d, after rae", label, round)
		changed := removed > 0
		profitableSteps(t, label, round, c, s, prof)
		for id := prof.Next(0); id >= 0; id = prof.Next(id + 1) {
			only.Set(id)
			hoisted := aht.Step(c, s, only)
			only.Clear(id)
			checkCachedLocals(t, c, "%s, round %d, after aht of pattern %d", label, round, id)
			r := rae.Step(c, s, bitvec.Vec{})
			checkCachedLocals(t, c, "%s, round %d, after rae behind pattern %d", label, round, id)
			if hoisted || r > 0 {
				changed = true
				profitableSteps(t, label, round, c, s, prof)
			}
		}
		if !changed {
			return
		}
	}
	t.Fatalf("%s: no fixpoint after %d rounds", label, limit)
}

// profitableSteps is am-restricted's batched admission trial on a copy of
// c in s's arena, checking the copy after each of its steps and c after
// the trial.
func profitableSteps(t *testing.T, label string, round int, c *analysis.Code, s *analysis.Session, prof bitvec.Vec) {
	t.Helper()
	ar := s.Arena()
	defer ar.Release(ar.Mark())
	before := patternCounts(c)
	trial := c.Copy(ar)
	aht.Step(trial, s, bitvec.Vec{})
	checkCachedLocals(t, trial, "%s, round %d, trial copy after aht", label, round)
	rae.Step(trial, s, bitvec.Vec{})
	checkCachedLocals(t, trial, "%s, round %d, trial copy after rae", label, round)
	checkCachedLocals(t, c, "%s, round %d, after the trial", label, round)
	after := patternCounts(trial)
	prof.ClearAll()
	for id, n := range before {
		if n > 0 && after[id] < n {
			prof.Set(id)
		}
	}
}

func patternCounts(c *analysis.Code) []int {
	counts := make([]int, c.U.Len())
	for i := range c.G.Blocks {
		for _, id := range c.Block(i) {
			if id >= 0 {
				counts[id]++
			}
		}
	}
	return counts
}

// checkCachedLocals fails unless every block's local predicates, as c
// would return them, equal the ones computed from its current entries.
// It reads them from a copy of c, which carries c's cached vectors and
// marks, so c keeps the marked blocks the loop left: the next steps, and
// the restricted loop's trial copies, start from them as they would
// unchecked. The copy's program is written back into a clone of c's
// graph, and each block's instructions are walked with a pattern index of
// c's universe, so the reference depends on neither the cache nor its
// marks.
func checkCachedLocals(t *testing.T, c *analysis.Code, format string, args ...any) {
	t.Helper()
	cur := c.Copy(nil)
	cur.G = c.G.Clone()
	cur.WriteBack()
	px := analysis.NewPatternIndex(c.U)
	bits := c.U.Len()
	for i, b := range cur.G.Blocks {
		wantH, wantB := bitvec.New(bits), bitvec.New(bits)
		wantGen, wantKill := bitvec.New(bits), bitvec.New(bits)
		for k := range b.Instrs {
			in := &b.Instrs[k]
			id, occ := px.OccID(in)
			if occ && !wantB.Get(id) {
				wantH.Set(id)
			}
			px.OrBlocked(in, wantB)
			wantGen.AndNot(px.KillVec(in))
			wantKill.Or(px.KillVec(in))
			if occ && !px.SelfRef().Get(id) {
				wantGen.Set(id)
				wantKill.Clear(id)
			}
		}
		locH, locB := cur.Locals(i)
		gen, kill := cur.Transfer(i)
		for _, v := range []struct {
			name      string
			got, want bitvec.Vec
		}{{"LOC-HOISTABLE", locH, wantH}, {"LOC-BLOCKED", locB, wantB}, {"gen", gen, wantGen}, {"kill", kill, wantKill}} {
			if !v.got.Equal(v.want) {
				t.Fatalf("%s: block %s (entries %v): cached %s %v, its entries give %v",
					fmt.Sprintf(format, args...), b.Name, c.Block(i), v.name, v.got.Bits(), v.want.Bits())
			}
		}
	}
}

func sameOutput(t *testing.T, label string, got, want *ir.Graph) {
	t.Helper()
	if g, w := got.Encode(), want.Encode(); g != w {
		t.Fatalf("%s: the driven loop ends elsewhere than the pass\n--- pass\n%s--- driven\n%s", label, w, g)
	}
}
