package dataflow_test

// Equivalence property tests for the solver's two transfer forms: the
// dense gen/kill kernel form must be indistinguishable from the closure
// Transfer form — on every graph shape, for every direction/meet
// combination, including the hybrid that mixes both.

import (
	"math/rand"
	"testing"

	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/dataflow"
)

// randomGenKill builds deterministic per-node gen/kill vectors with the
// same density the analyses produce.
func randomGenKill(n int, seed int64) (gen, kill []bitvec.Vec) {
	rng := rand.New(rand.NewSource(seed))
	gen = make([]bitvec.Vec, n)
	kill = make([]bitvec.Vec, n)
	for i := 0; i < n; i++ {
		gen[i] = bitvec.New(propBits)
		kill[i] = bitvec.New(propBits)
		for b := 0; b < propBits; b++ {
			switch rng.Intn(6) {
			case 0:
				gen[i].Set(b)
			case 1, 2:
				kill[i].Set(b)
			}
		}
	}
	return gen, kill
}

// problemPair returns the same random analysis twice: once as a closure
// Transfer, once in the dense Gen/Kill form.
func problemPair(a adjacency, seed int64, dir dataflow.Direction, meet dataflow.Meet) (closure, dense dataflow.Problem) {
	n := len(a.preds)
	gen, kill := randomGenKill(n, seed)
	boundary := a.entry
	if dir == dataflow.Backward {
		boundary = a.exit
	}
	base := dataflow.Problem{
		N: n, Bits: propBits, Dir: dir, Meet: meet,
		Preds: func(i int) []int { return a.preds[i] },
		Succs: func(i int) []int { return a.succs[i] },
		Boundary: func(i int, in bitvec.Vec) {
			if i == boundary {
				in.ClearAll()
			}
		},
	}
	closure = base
	closure.Transfer = func(i int, in, out bitvec.Vec) {
		out.CopyFrom(in)
		out.AndNot(kill[i])
		out.Or(gen[i])
	}
	dense = base
	dense.Gen = gen
	dense.Kill = kill
	return closure, dense
}

// TestGenKillKernelMatchesClosure: the fused kernel path must compute the
// identical fixpoint — and, since both paths share the visit schedule and
// the change signal, the identical work counters — as the closure path.
func TestGenKillKernelMatchesClosure(t *testing.T) {
	for gi, g := range propGraphs() {
		a := adjOf(g)
		for _, c := range propCases {
			closure, dense := problemPair(a, int64(gi)*41+int64(c.dir)*7+int64(c.meet), c.dir, c.meet)
			want := dataflow.Solve(closure)
			got := dataflow.Solve(dense)
			sameResult(t, g.Name+"/"+c.name, closure.N, want, got)
			if want.Visits != got.Visits || want.Sweeps != got.Sweeps {
				t.Fatalf("%s/%s: work counters diverge: closure %d/%d, dense %d/%d",
					g.Name, c.name, want.Visits, want.Sweeps, got.Visits, got.Sweeps)
			}
		}
	}
}

// TestIrregularHybridDispatch: nodes marked Irregular must be evaluated
// through the Transfer closure, not their dense entries. The dense
// entries of irregular nodes are deliberately poisoned (all-kill), so any
// dispatch leak changes the fixpoint and fails the equivalence.
func TestIrregularHybridDispatch(t *testing.T) {
	for gi, g := range propGraphs()[:80] {
		a := adjOf(g)
		for _, c := range propCases {
			closure, dense := problemPair(a, int64(gi)*53+int64(c.dir)*11+int64(c.meet), c.dir, c.meet)
			want := dataflow.Solve(closure)

			rng := rand.New(rand.NewSource(int64(gi)))
			irregular := bitvec.New(dense.N)
			poison := bitvec.NewFull(propBits)
			// Copy the Gen/Kill slices before poisoning: the closure
			// oracle captured the originals.
			pg := append([]bitvec.Vec(nil), dense.Gen...)
			pk := append([]bitvec.Vec(nil), dense.Kill...)
			for i := 0; i < dense.N; i++ {
				if rng.Intn(3) == 0 {
					irregular.Set(i)
					pg[i] = bitvec.New(propBits) // poisoned: would
					pk[i] = poison               // clear every bit
				}
			}
			dense.Gen, dense.Kill = pg, pk
			dense.Irregular = irregular
			dense.Transfer = closure.Transfer // irregular nodes' real transfer
			got := dataflow.Solve(dense)
			sameResult(t, g.Name+"/"+c.name+"/hybrid", dense.N, want, got)
		}
	}
}
