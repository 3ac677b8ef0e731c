// Package dataflow implements a generic worklist solver for uni-directional
// bit-vector data flow problems over an abstract node graph. All of the
// paper's analyses — redundancy (Table 2), hoistability (Table 1),
// delayability and usability (Table 3), plus the lazy-code-motion analyses
// of the EM baseline — instantiate this solver, either at the instruction
// level (via analysis.Prog) or the basic-block level.
//
// The solver visits nodes in reverse postorder of the flow direction
// (classic RPO for forward problems, RPO of the reversed graph for
// backward ones), sweeping the order and revisiting only nodes whose
// input changed: facts propagate along long acyclic stretches in a single
// pass and only back edges force another sweep. Any fair visit order
// reaches the identical fixpoint because the transfer functions are
// monotone over a finite lattice; the property tests check the sweep
// against an independent round-robin solver.
package dataflow

import (
	"assignmentmotion/internal/arena"
	"assignmentmotion/internal/bitvec"
)

// Direction selects information flow.
type Direction int

const (
	// Forward propagates from predecessors to successors.
	Forward Direction = iota
	// Backward propagates from successors to predecessors.
	Backward
)

// Meet selects the confluence operator.
type Meet int

const (
	// All intersects incoming facts (universally quantified paths,
	// greatest fixpoint; vectors start full).
	All Meet = iota
	// Any unions incoming facts (existentially quantified paths, least
	// fixpoint; vectors start empty).
	Any
)

// Problem describes one analysis instance.
type Problem struct {
	// N is the number of nodes (instructions or blocks).
	N int
	// Bits is the vector width (size of the pattern universe).
	Bits int
	Dir  Direction
	Meet Meet
	// Preds and Succs give the adjacency in *control flow* terms;
	// the solver reorients them according to Dir.
	Preds func(i int) []int
	Succs func(i int) []int
	// Transfer computes the node's outgoing fact from its incoming fact
	// (in flow direction). It must be monotone; out is pre-zeroed and the
	// function must fully define it from in and node-local data. When Gen
	// is supplied, Transfer is consulted only for nodes marked Irregular
	// (and may be nil if there are none).
	Transfer func(i int, in, out bitvec.Vec)
	// Gen and Kill, when non-nil (always together, each of length N),
	// declare the transfer of node i to be the dense gen/kill form
	//
	//	out = Gen[i] ∨ (in ∧ ¬Kill[i])
	//
	// which the solver evaluates with the fused word-parallel kernel
	// bitvec.GenKillUpdate — 64 patterns per machine word, change
	// detection folded into the same pass, no closure dispatch and no
	// scratch vector. Every uni-directional bit-vector analysis of the
	// paper (Tables 1–3) has this shape. Vectors may alias shared
	// storage (the solver only reads them).
	Gen, Kill []bitvec.Vec
	// Irregular, when of length N, marks nodes whose transfer is NOT pure
	// gen/kill; the solver falls back to the Transfer closure for exactly
	// those nodes. This is for analyses that are gen/kill almost
	// everywhere but conditional at a few nodes — strong liveness (dce),
	// where an assignment's generated uses depend on the incoming fact,
	// is the resident example. Zero-length means no irregular nodes.
	Irregular bitvec.Vec
	// Boundary, if non-nil, overrides the incoming fact of flow-entry
	// nodes (nodes with no upstream neighbours). When nil, such nodes get
	// the meet identity (full for All, empty for Any) — which for All is
	// almost never what an analysis wants, so most callers set it.
	Boundary func(i int, in bitvec.Vec)

	// Order optionally supplies the visit priority: a permutation of
	// [0,N) listing nodes in the order they should be processed (reverse
	// postorder of the flow direction converges fastest). When nil, Solve
	// computes it from the adjacency itself. Callers that solve many
	// problems over one unchanged graph should compute the order once
	// (see FlowOrder) and share it.
	Order []int
	// Arena optionally supplies reusable backing storage for the In/Out
	// vectors and the solver's internal work arrays. The Result then
	// points into the arena: it is valid until the arena is released or
	// reset. A nil arena means plain heap allocation.
	Arena *arena.Arena
	// Stats, if non-nil, accumulates this solve's work counters into the
	// given tally. Analyses running under an analysis.Session point this at
	// the session's tally so the pass pipeline can report per-pass solver
	// work (see Session.DataflowStats).
	Stats *SolveStats
}

// SolveStats tallies solver work across many Solve calls: the number of
// solves, node transfer evaluations, and order sweeps. It is the unit the
// pass pipeline's per-pass instrumentation is reported in. A SolveStats
// must not be shared between goroutines.
type SolveStats struct {
	Solves int
	Visits int
	Sweeps int
}

// Delta returns s - prev, the work done since the prev snapshot.
func (s SolveStats) Delta(prev SolveStats) SolveStats {
	return SolveStats{
		Solves: s.Solves - prev.Solves,
		Visits: s.Visits - prev.Visits,
		Sweeps: s.Sweeps - prev.Sweeps,
	}
}

// record adds one finished solve to the tally (nil-safe).
func (s *SolveStats) record(visits, sweeps int) {
	if s == nil {
		return
	}
	s.Solves++
	s.Visits += visits
	s.Sweeps += sweeps
}

// Result carries the fixpoint solution. For a Forward problem In[i] is the
// fact at the node's entry and Out[i] at its exit; for Backward problems
// In[i] is the fact at the node's *exit* (facts flow in from successors)
// and Out[i] at its *entry*. When the problem supplied an arena the
// vectors live in it and are invalidated by its release.
type Result struct {
	In  []bitvec.Vec
	Out []bitvec.Vec
	// Visits counts node transfer evaluations until the fixpoint.
	Visits int
	// Sweeps counts monotone passes over the visit order: 1 for an acyclic
	// graph in topological order, +1 for every extra pass a back edge
	// forces. Exposed for the complexity experiments.
	Sweeps int
}

// FlowOrder returns the visit priority for a problem of n nodes flowing
// along next (Succs for forward problems, Preds for backward ones):
// reverse postorder of the graph spanned by next, rooted at roots. Nodes
// unreachable from the roots are appended via depth-first walks started
// from each in index order, so the result is always a permutation of
// [0,n).
func FlowOrder(n int, roots []int, next func(int) []int) []int {
	order := make([]int, 0, n)
	state := make([]byte, n) // 0 unseen, 1 on stack, 2 done
	type frame struct {
		node int
		edge int
		ns   []int // cached next(node): a frame is resumed once per child
	}
	stack := make([]frame, 0, 16)
	visit := func(root int) {
		if state[root] != 0 {
			return
		}
		state[root] = 1
		stack = append(stack, frame{node: root, ns: next(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.edge < len(f.ns) {
				m := f.ns[f.edge]
				f.edge++
				if state[m] == 0 {
					state[m] = 1
					stack = append(stack, frame{node: m, ns: next(m)})
					advanced = true
					break
				}
			}
			if !advanced && f.edge >= len(f.ns) {
				state[f.node] = 2
				order = append(order, f.node)
				stack = stack[:len(stack)-1]
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for i := 0; i < n; i++ {
		visit(i)
	}
	// Reverse the postorder in place.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// meet computes node i's incoming fact from its upstream neighbours'
// outgoing facts: copy the first, then intersect/union the rest — one
// pass fewer than resetting to the identity first. Flow-entry nodes get
// the meet identity, overridable by Boundary.
func (p *Problem) meet(i int, in, out []bitvec.Vec, upstream func(int) []int) {
	ups := upstream(i)
	if len(ups) == 0 {
		if p.Meet == All {
			in[i].SetAll()
		} else {
			in[i].ClearAll()
		}
		if p.Boundary != nil {
			p.Boundary(i, in[i])
		}
		return
	}
	if len(ups) == 1 {
		in[i].CopyFrom(out[ups[0]])
		return
	}
	// Two or more incoming facts: fuse the first two into one pass, then
	// fold in the rest.
	if p.Meet == All {
		in[i].CopyAnd(out[ups[0]], out[ups[1]])
		for _, u := range ups[2:] {
			in[i].And(out[u])
		}
	} else {
		in[i].CopyOr(out[ups[0]], out[ups[1]])
		for _, u := range ups[2:] {
			in[i].Or(out[u])
		}
	}
}

// genKillAt reports whether node i's transfer is evaluated on the dense
// gen/kill path.
func (p *Problem) genKillAt(i int) bool {
	return p.Gen != nil && (p.Irregular.Len() == 0 || !p.Irregular.Get(i))
}

// applyNode meets node i's inputs, runs the transfer, and reports
// whether the outgoing fact changed. On the dense path the whole visit —
// meet, in-fact store, gen/kill transfer, change detection — is one
// fused word-parallel sweep (bitvec.MeetGenKillUpdate); flow-entry nodes
// and irregular/closure nodes take the separate meet + transfer route
// with the caller's scratch vector.
func (p *Problem) applyNode(i int, in, out []bitvec.Vec, upstream func(int) []int, scratch bitvec.Vec) bool {
	if p.genKillAt(i) {
		if ups := upstream(i); len(ups) > 0 {
			return bitvec.MeetGenKillUpdate(out[i], p.Gen[i], p.Kill[i], in[i], out, ups, p.Meet == All)
		}
		p.meet(i, in, out, upstream) // meet identity + Boundary
		return out[i].GenKillUpdate(p.Gen[i], in[i], p.Kill[i])
	}
	p.meet(i, in, out, upstream)
	scratch.ClearAll()
	p.Transfer(i, in[i], scratch)
	if scratch.Equal(out[i]) {
		return false
	}
	out[i].CopyFrom(scratch)
	return true
}

// validate panics on malformed problem wiring — which in this code base
// always indicates a programming error, never bad input.
func (p *Problem) validate() {
	if (p.Gen == nil) != (p.Kill == nil) {
		panic("dataflow: Gen and Kill must be supplied together")
	}
	if p.Gen != nil && (len(p.Gen) != p.N || len(p.Kill) != p.N) {
		panic("dataflow: Gen/Kill length differs from N")
	}
	if p.Gen == nil && p.Transfer == nil {
		panic("dataflow: neither Gen/Kill nor Transfer supplied")
	}
}

// Solve runs the worklist algorithm to the fixpoint.
func Solve(p Problem) Result {
	p.validate()
	upstream, downstream := p.Preds, p.Succs
	if p.Dir == Backward {
		upstream, downstream = p.Succs, p.Preds
	}

	ar := p.Arena
	in := ar.Vecs(p.N)
	out := ar.Vecs(p.N)
	if ar == nil {
		// No arena: carve every vector out of one flat allocation instead
		// of 2N tiny ones — without this the solver's fixed cost is
		// dominated by the makes, not the sweeps.
		words := bitvec.WordsFor(p.Bits)
		backing := make([]uint64, 2*p.N*words)
		for i := 0; i < p.N; i++ {
			in[i] = bitvec.Wrap(p.Bits, backing[:words:words])
			backing = backing[words:]
			out[i] = bitvec.Wrap(p.Bits, backing[:words:words])
			backing = backing[words:]
		}
	} else {
		for i := 0; i < p.N; i++ {
			in[i] = ar.Vec(p.Bits)
			out[i] = ar.Vec(p.Bits)
		}
	}
	if p.Meet == All {
		// Greatest fixpoint: start optimistic and shrink, so facts around
		// cycles are not lost.
		for i := 0; i < p.N; i++ {
			in[i].SetAll()
			out[i].SetAll()
		}
	}

	order := p.Order
	if order == nil {
		var roots []int
		for i := 0; i < p.N; i++ {
			if len(upstream(i)) == 0 {
				roots = append(roots, i)
			}
		}
		order = FlowOrder(p.N, roots, downstream)
	}

	var scratch bitvec.Vec
	if p.Gen == nil || p.Irregular.Len() != 0 {
		scratch = ar.Vec(p.Bits)
	}

	// Monotone sweeps over the visit order, revisiting only nodes whose
	// input changed. A downstream node later in the current sweep is
	// picked up in place; one earlier (a back edge) waits for the next
	// sweep. An acyclic graph in topological order converges in a single
	// sweep.
	// The dirty set is a flat byte array, not a bit vector: the sweep loop
	// tests membership once per node per sweep and the plain load/store
	// beats bit arithmetic on that path.
	dirty := make([]bool, p.N)
	for i := range dirty {
		dirty[i] = true
	}
	pending := p.N
	visits, sweeps := 0, 0
	for pending > 0 {
		sweeps++
		for _, i := range order {
			if !dirty[i] {
				continue
			}
			dirty[i] = false
			pending--
			visits++
			if p.applyNode(i, in, out, upstream, scratch) {
				for _, d := range downstream(i) {
					if !dirty[d] {
						dirty[d] = true
						pending++
					}
				}
			}
		}
	}
	p.Stats.record(visits, sweeps)
	return Result{In: in, Out: out, Visits: visits, Sweeps: sweeps}
}
