package ir

import (
	"errors"
	"fmt"
)

// Validate checks the structural well-formedness conditions of §2:
//
//   - the graph has at least entry and exit blocks with valid IDs;
//   - the entry node has no predecessors, the exit node no successors;
//   - every node lies on a path from s to e;
//   - adjacency lists are mutually consistent;
//   - a node has two successors iff it ends in a branch condition, and
//     conditions appear only in that position;
//   - no node has more than two successors;
//   - every block carries at least one instruction (Normalize invariant);
//   - temporaries occurring in the program are registered in the graph.
//
// It returns an error describing the first violation found, or nil.
func (g *Graph) Validate() error {
	if len(g.Blocks) == 0 {
		return errors.New("graph has no blocks")
	}
	if int(g.Entry) < 0 || int(g.Entry) >= len(g.Blocks) {
		return fmt.Errorf("entry id %d out of range", g.Entry)
	}
	if int(g.Exit) < 0 || int(g.Exit) >= len(g.Blocks) {
		return fmt.Errorf("exit id %d out of range", g.Exit)
	}
	if len(g.EntryBlock().Preds) != 0 {
		return fmt.Errorf("entry node %s has predecessors", g.EntryBlock().Name)
	}
	if len(g.ExitBlock().Succs) != 0 {
		return fmt.Errorf("exit node %s has successors", g.ExitBlock().Name)
	}

	names := make(map[string]bool, len(g.Blocks))
	for i, b := range g.Blocks {
		if int(b.ID) != i {
			return fmt.Errorf("block %s: id %d does not match slice index %d", b.Name, b.ID, i)
		}
		if names[b.Name] {
			return fmt.Errorf("duplicate block name %q", b.Name)
		}
		names[b.Name] = true
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty (run Normalize)", b.Name)
		}
		if len(b.Succs) > 2 {
			return fmt.Errorf("block %s has %d successors", b.Name, len(b.Succs))
		}
		_, hasCond := b.Cond()
		if hasCond != (len(b.Succs) == 2) {
			return fmt.Errorf("block %s: branch condition and successor count disagree", b.Name)
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if in.Kind == KindCond && j != len(b.Instrs)-1 {
				return fmt.Errorf("block %s: condition not in final position", b.Name)
			}
			if err := g.validateInstr(b, in); err != nil {
				return err
			}
		}
		for _, s := range b.Succs {
			if int(s) < 0 || int(s) >= len(g.Blocks) {
				return fmt.Errorf("block %s: successor id %d out of range", b.Name, s)
			}
			if !contains(g.Block(s).Preds, b.ID) {
				return fmt.Errorf("edge %s->%s missing from pred list", b.Name, g.Block(s).Name)
			}
		}
		for _, p := range b.Preds {
			if int(p) < 0 || int(p) >= len(g.Blocks) {
				return fmt.Errorf("block %s: predecessor id %d out of range", b.Name, p)
			}
			if !contains(g.Block(p).Succs, b.ID) {
				return fmt.Errorf("edge %s->%s missing from succ list", g.Block(p).Name, b.Name)
			}
		}
	}

	// One mark per block: bit fromEntry when s reaches it, bit toExit when
	// it reaches e. Each walk pushes a block at most once, so one stack of
	// len(g.Blocks) serves both.
	const fromEntry, toExit = 1, 2
	mark := make([]uint8, len(g.Blocks))
	stack := make([]NodeID, 0, len(g.Blocks))
	g.markReach(mark, stack, g.Entry, fromEntry, func(b *Block) []NodeID { return b.Succs })
	g.markReach(mark, stack, g.Exit, toExit, func(b *Block) []NodeID { return b.Preds })
	for _, b := range g.Blocks {
		if mark[b.ID]&fromEntry == 0 {
			return fmt.Errorf("block %s unreachable from entry", b.Name)
		}
		if mark[b.ID]&toExit == 0 {
			return fmt.Errorf("block %s cannot reach exit", b.Name)
		}
	}
	return nil
}

// markReach sets bit in mark for start and every block reachable from it
// along next, using stack's storage as the work list.
func (g *Graph) markReach(mark []uint8, stack []NodeID, start NodeID, bit uint8, next func(*Block) []NodeID) {
	mark[start] |= bit
	stack = append(stack[:0], start)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range next(g.Blocks[n]) {
			if mark[m]&bit == 0 {
				mark[m] |= bit
				stack = append(stack, m)
			}
		}
	}
}

func (g *Graph) validateInstr(b *Block, in *Instr) error {
	checkTerm := func(t *Term) error {
		if !t.Trivial() && !t.Op.IsArith() {
			return fmt.Errorf("block %s: term %s has non-arithmetic operator", b.Name, t)
		}
		args := t.Args[:]
		if t.Trivial() {
			args = args[:1]
		}
		for _, o := range args {
			if !o.IsConst && IsTempName(o.Var) && !g.IsTemp(o.Var) {
				return fmt.Errorf("block %s: unregistered temporary %s", b.Name, o.Var)
			}
		}
		return nil
	}
	switch in.Kind {
	case KindAssign:
		if in.LHS == "" {
			return fmt.Errorf("block %s: assignment without LHS", b.Name)
		}
		if IsTempName(in.LHS) && !g.IsTemp(in.LHS) {
			return fmt.Errorf("block %s: unregistered temporary %s", b.Name, in.LHS)
		}
		return checkTerm(&in.RHS)
	case KindCond:
		if !in.CondOp.IsRel() {
			return fmt.Errorf("block %s: condition with non-relational operator %q", b.Name, in.CondOp)
		}
		if err := checkTerm(&in.CondL); err != nil {
			return err
		}
		return checkTerm(&in.CondR)
	case KindOut:
		for _, o := range in.Args {
			if !o.IsConst && IsTempName(o.Var) && !g.IsTemp(o.Var) {
				return fmt.Errorf("block %s: unregistered temporary %s", b.Name, o.Var)
			}
		}
	}
	return nil
}

// MustValidate panics if Validate fails. Tests and generators use it to
// assert invariants after every transformation.
func (g *Graph) MustValidate() {
	if err := g.Validate(); err != nil {
		panic("ir: invalid graph: " + err.Error() + "\n" + g.Encode())
	}
}

func contains(ids []NodeID, id NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
