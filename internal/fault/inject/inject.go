// Package inject is a deterministic, seedable fault-injection harness
// for the pass pipeline. It exists to TEST the fault-tolerance layer —
// the chaos tests drive the real pipeline and the real batch engine with
// injected pass panics, graph corruption, forced budget exhaustion, and
// forced fixpoint overruns, and assert the recovery contracts: a
// poisoned pass never corrupts the returned graph (rollback restores a
// byte-identical checkpoint), the engine cache never stores a degraded
// result under the clean content key, and batch throughput degrades
// gracefully.
//
// An Injector plugs into the test-only Pipeline.Wrap seam (or
// engine.Options.Inject): it intercepts each pass just before execution
// and, at deterministically seed-selected (graph, step) positions,
// substitutes a faulting body. Decisions are a pure hash of
// (seed, graph name, pipeline index, pass name) — independent of
// scheduling, so a concurrent batch run injects the same faults as a
// serial one and a re-run with the same seed reproduces them exactly.
package inject

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// Panic replaces the pass body with one that panics, exercising the
	// pipeline's per-pass recover.
	Panic Kind = iota
	// Corrupt runs the real pass, then mutates the graph into a
	// Validate-breaking state (an emptied block), exercising post-pass
	// validation and rollback.
	Corrupt
	// Budget makes the pass report fault.ErrBudgetExceeded without
	// touching the graph.
	Budget
	// NoFixpoint makes the pass report fault.ErrNoFixpoint without
	// touching the graph, simulating an iteration-limit overrun.
	NoFixpoint

	numKinds
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Corrupt:
		return "corrupt"
	case Budget:
		return "budget"
	case NoFixpoint:
		return "no-fixpoint"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Config tunes an Injector.
type Config struct {
	// Seed selects the fault sites; the same seed reproduces the same
	// faults.
	Seed int64
	// Rate is the probability in [0, 1] that any given (graph, step)
	// execution faults. 0 never fires; 1 always fires.
	Rate float64
	// Kinds restricts the injected fault classes; empty means all.
	Kinds []Kind
}

// Injection records one fired fault.
type Injection struct {
	Graph string
	Pass  string
	Index int
	Kind  Kind
}

// Injector deterministically injects faults at pass boundaries. Safe for
// concurrent use by many pipeline workers.
type Injector struct {
	cfg   Config
	kinds []Kind

	mu    sync.Mutex
	fired []Injection
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{Panic, Corrupt, Budget, NoFixpoint}
	}
	return &Injector{cfg: cfg, kinds: kinds}
}

// Wrap is the Pipeline.Wrap / engine.Options.Inject seam: it returns p
// with a body that consults the injector on every execution and, when the
// (seed, graph, index, pass) hash selects a fault, raises it.
func (in *Injector) Wrap(index int, p pass.Pass) pass.Pass {
	orig := p.RunWith
	name := p.Name
	p.RunWith = func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
		kind, fire := in.decide(g.Name, index, name)
		if !fire {
			return orig(g, s)
		}
		in.record(Injection{Graph: g.Name, Pass: name, Index: index, Kind: kind})
		switch kind {
		case Panic:
			panic(fmt.Sprintf("inject: seeded panic at pass %q (step %d) of %q", name, index, g.Name))
		case Corrupt:
			st, err := orig(g, s)
			if err != nil {
				return st, err
			}
			corrupt(g)
			return st, nil
		case Budget:
			return pass.Stats{}, &fault.BudgetError{Resource: "injected", Used: 1, Limit: 0}
		default: // NoFixpoint
			return pass.Stats{}, &fault.NoFixpointError{Proc: name, Iterations: 1 << 20, Limit: 1 << 20}
		}
	}
	return p
}

// Fired returns the faults fired so far, ordered by (graph, index) for
// stable assertions.
func (in *Injector) Fired() []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := append([]Injection(nil), in.fired...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Reset clears the fired record (the decision function is stateless, so
// resetting does not change what fires).
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fired = nil
}

func (in *Injector) record(i Injection) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fired = append(in.fired, i)
}

// decide hashes the site identity into a fire/no-fire decision and a
// kind. Pure function of the injector's seed and the site.
func (in *Injector) decide(graph string, index int, passName string) (Kind, bool) {
	if in.cfg.Rate <= 0 {
		return 0, false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%s", in.cfg.Seed, graph, index, passName)
	v := h.Sum64()
	// Low bits pick the fire decision, high bits the kind, so the two are
	// independent.
	const den = 1 << 20
	threshold := uint64(in.cfg.Rate * den)
	if threshold > den {
		threshold = den
	}
	if v%den >= threshold {
		return 0, false
	}
	return in.kinds[(v>>40)%uint64(len(in.kinds))], true
}

// corrupt mutates g into a state ir.Graph.Validate rejects — it empties
// the entry block's instruction list, violating the no-empty-blocks
// invariant — without risking a panic of its own.
func corrupt(g *ir.Graph) {
	g.EntryBlock().Instrs = nil
}
