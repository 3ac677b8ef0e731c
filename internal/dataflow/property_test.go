package dataflow_test

// Order- and storage-equivalence property tests for the solver: the
// RPO sweep, an independent round-robin reference solver, and the
// arena-backed runs must all compute the identical fixpoint — the
// transfer functions are monotone over a finite lattice, so the greatest
// (All) and least (Any) fixpoints are unique regardless of visit order or
// backing store.

import (
	"math/rand"
	"sync"
	"testing"

	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/bitvec"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/dataflow"
	"assignmentmotion/internal/ir"
)

const propBits = 43 // odd width, crosses a word boundary

// adjacency precomputes int predecessor/successor lists for a graph.
type adjacency struct {
	preds, succs [][]int
	entry, exit  int
}

func adjOf(g *ir.Graph) adjacency {
	a := adjacency{
		preds: make([][]int, len(g.Blocks)),
		succs: make([][]int, len(g.Blocks)),
		entry: int(g.Entry),
		exit:  int(g.Exit),
	}
	for i, b := range g.Blocks {
		for _, p := range b.Preds {
			a.preds[i] = append(a.preds[i], int(p))
		}
		for _, s := range b.Succs {
			a.succs[i] = append(a.succs[i], int(s))
		}
	}
	return a
}

// randomProblem builds a gen/kill transfer over the graph with
// deterministic per-node vectors — the shape every analysis in this repo
// instantiates.
func randomProblem(a adjacency, seed int64, dir dataflow.Direction, meet dataflow.Meet) dataflow.Problem {
	rng := rand.New(rand.NewSource(seed))
	n := len(a.preds)
	gen := make([]bitvec.Vec, n)
	kill := make([]bitvec.Vec, n)
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
	boundary := a.entry
	if dir == dataflow.Backward {
		boundary = a.exit
	}
	return dataflow.Problem{
		N: n, Bits: propBits, Dir: dir, Meet: meet,
		Preds: func(i int) []int { return a.preds[i] },
		Succs: func(i int) []int { return a.succs[i] },
		Transfer: func(i int, in, out bitvec.Vec) {
			out.CopyFrom(in)
			out.AndNot(kill[i])
			out.Or(gen[i])
		},
		Boundary: func(i int, in bitvec.Vec) {
			if i == boundary {
				in.ClearAll()
			}
		},
	}
}

// propGraphs returns the generator corpus: 200+ graphs mixing structured
// programs, unstructured (goto-style) flow, and the adversarial redundant
// chains of the complexity experiments.
func propGraphs() []*ir.Graph {
	var gs []*ir.Graph
	for seed := int64(0); seed < 80; seed++ {
		gs = append(gs, cfggen.Structured(seed, cfggen.Config{Size: 8}))
		gs = append(gs, cfggen.Unstructured(seed, cfggen.Config{Size: 8}))
	}
	for k := 1; k <= 48; k++ {
		gs = append(gs, cfggen.RedundantChain(k))
	}
	return gs
}

func sameResult(t *testing.T, tag string, n int, want, got dataflow.Result) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !want.In[i].Equal(got.In[i]) || !want.Out[i].Equal(got.Out[i]) {
			t.Fatalf("%s: fixpoint differs at node %d:\n in  %s vs %s\n out %s vs %s",
				tag, i, want.In[i], got.In[i], want.Out[i], got.Out[i])
		}
	}
}

var propCases = []struct {
	name string
	dir  dataflow.Direction
	meet dataflow.Meet
}{
	{"fwd-all", dataflow.Forward, dataflow.All},
	{"fwd-any", dataflow.Forward, dataflow.Any},
	{"bwd-all", dataflow.Backward, dataflow.All},
	{"bwd-any", dataflow.Backward, dataflow.Any},
}

// referenceSolve is the order oracle: a round-robin solver that visits
// every node in index order, recomputing its incoming fact from scratch,
// until a whole round changes no outgoing fact. It shares no scheduling
// code with dataflow.Solve — no visit order, no dirty set, no meet helper
// — and evaluates the problem only through its Transfer closure.
func referenceSolve(p dataflow.Problem) (in, out []bitvec.Vec) {
	upstream := p.Preds
	if p.Dir == dataflow.Backward {
		upstream = p.Succs
	}
	in = make([]bitvec.Vec, p.N)
	out = make([]bitvec.Vec, p.N)
	for i := 0; i < p.N; i++ {
		in[i], out[i] = bitvec.New(p.Bits), bitvec.New(p.Bits)
		if p.Meet == dataflow.All {
			out[i].SetAll()
		}
	}
	next := bitvec.New(p.Bits)
	for changed := true; changed; {
		changed = false
		for i := 0; i < p.N; i++ {
			ups := upstream(i)
			if p.Meet == dataflow.All {
				in[i].SetAll()
			} else {
				in[i].ClearAll()
			}
			for _, u := range ups {
				if p.Meet == dataflow.All {
					in[i].And(out[u])
				} else {
					in[i].Or(out[u])
				}
			}
			if len(ups) == 0 && p.Boundary != nil {
				p.Boundary(i, in[i])
			}
			next.ClearAll()
			p.Transfer(i, in[i], next)
			if !next.Equal(out[i]) {
				out[i].CopyFrom(next)
				changed = true
			}
		}
	}
	return in, out
}

// TestRPOSolverMatchesReference: the RPO sweep must reach the reference
// solver's fixpoint on every graph shape, for every direction/meet
// combination.
func TestRPOSolverMatchesReference(t *testing.T) {
	graphs := propGraphs()
	if len(graphs) < 200 {
		t.Fatalf("corpus too small: %d graphs", len(graphs))
	}
	for gi, g := range graphs {
		a := adjOf(g)
		for _, c := range propCases {
			p := randomProblem(a, int64(gi)*17+int64(c.dir)*3+int64(c.meet), c.dir, c.meet)
			in, out := referenceSolve(p)
			rpo := dataflow.Solve(p)
			sameResult(t, g.Name+"/"+c.name, p.N, dataflow.Result{In: in, Out: out}, rpo)
			if rpo.Sweeps > rpo.Visits {
				t.Fatalf("%s/%s: sweep accounting broken: %d sweeps > %d visits",
					g.Name, c.name, rpo.Sweeps, rpo.Visits)
			}
		}
	}
}

// TestArenaSolveMatchesFresh: carving the solver state out of a pooled
// arena must be invisible in the results, including when one arena is
// reused (Mark/Release) across many solves.
func TestArenaSolveMatchesFresh(t *testing.T) {
	ar := arena.Get()
	defer arena.Put(ar)
	for gi, g := range propGraphs() {
		a := adjOf(g)
		for _, c := range propCases {
			p := randomProblem(a, int64(gi)*29+int64(c.dir)*5+int64(c.meet), c.dir, c.meet)
			fresh := dataflow.Solve(p)
			m := ar.Mark()
			p.Arena = ar
			pooled := dataflow.Solve(p)
			sameResult(t, g.Name+"/"+c.name, p.N, fresh, pooled)
			ar.Release(m)
		}
	}
}

// TestPooledArenasAreRaceFree: concurrent solvers, each on its own pooled
// arena, must neither race (run with -race) nor perturb each other's
// results.
func TestPooledArenasAreRaceFree(t *testing.T) {
	graphs := propGraphs()[:40]
	type job struct {
		a    adjacency
		p    dataflow.Problem
		want dataflow.Result
	}
	jobs := make([]job, len(graphs))
	for gi, g := range graphs {
		a := adjOf(g)
		p := randomProblem(a, int64(gi)+1000, dataflow.Forward, dataflow.All)
		jobs[gi] = job{a: a, p: p, want: dataflow.Solve(p)}
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(jobs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ar := arena.Get()
			defer arena.Put(ar)
			for ji := w; ji < len(jobs); ji += 8 {
				j := jobs[ji]
				m := ar.Mark()
				p := j.p
				p.Arena = ar
				got := dataflow.Solve(p)
				for i := 0; i < p.N; i++ {
					if !j.want.In[i].Equal(got.In[i]) || !j.want.Out[i].Equal(got.Out[i]) {
						errs <- "pooled solve diverged on job " + graphs[ji].Name
						break
					}
				}
				ar.Release(m)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFlowOrderIsPermutation: FlowOrder must return a permutation of
// [0,n) even on graphs with unreachable nodes, and must order acyclic
// graphs topologically (every chain solves in one sweep).
func TestFlowOrderIsPermutation(t *testing.T) {
	for _, g := range propGraphs()[:60] {
		a := adjOf(g)
		n := len(a.succs)
		order := dataflow.FlowOrder(n, []int{a.entry}, func(i int) []int { return a.succs[i] })
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("%s: FlowOrder not a permutation: %v", g.Name, order)
			}
			seen[i] = true
		}
		if len(order) != n {
			t.Fatalf("%s: FlowOrder dropped nodes: %d of %d", g.Name, len(order), n)
		}
	}
}

// TestChainSolvesInOneSweep pins the point of the priority order: a
// redundant chain (acyclic, the adversarial case for a FIFO worklist)
// reaches its fixpoint in a single monotone pass.
func TestChainSolvesInOneSweep(t *testing.T) {
	g := cfggen.RedundantChain(40)
	a := adjOf(g)
	p := randomProblem(a, 7, dataflow.Forward, dataflow.All)
	res := dataflow.Solve(p)
	if res.Sweeps != 1 {
		t.Fatalf("acyclic chain took %d sweeps in RPO order, want 1", res.Sweeps)
	}
}
