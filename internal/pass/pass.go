// Package pass is the composition layer of the optimizer: a uniform,
// self-describing abstraction over every transformation in this module and
// a registry + pipeline engine to run them.
//
// The paper's power comes from *composing* transformations — the
// initialization phase, the exhaustive aht/rae fixpoint, the final flush,
// the §6 EM/CP interleaving — and from comparing such compositions against
// each other (Figure 6, Figure 8, the Experiment O table). A Pass packages
// one transformation with its name, description, and paper anchor; every
// transformation package registers itself here at init time, so the
// registry is complete exactly when the facade (or a command) has imported
// the passes it wants to run. A Pipeline executes a pass sequence over ONE
// shared analysis.Session — its arena is reused end-to-end, not rebuilt
// per pass — and instruments every step:
// wall time, instruction/block deltas, dataflow solver work
// (Visits/Sweeps), and arena high-water growth, delivered to an optional
// event hook and aggregated in the run Report.
//
// In Debug mode the pipeline additionally checks inter-pass invariants
// via internal/verify: after every pass the graph must validate and a
// randomized trace-equivalence spot check against the pre-pass program
// must hold, and a violation is reported as an *InvariantError naming the
// offending pass.
package pass

import (
	"fmt"
	"sort"
	"sync"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/ir"
)

// Stats is the uniform result shape of every pass: how much changed, in
// the pass's own unit (decomposed sites, eliminated or replaced
// occurrences, split edges, bypassed blocks, ...), and how many fixpoint
// rounds it took (1 for single-sweep passes). Changes == 0 always means
// the pass left the program textually unchanged.
type Stats struct {
	Changes    int `json:"changes"`
	Iterations int `json:"iterations"`
}

// Pass is one registered transformation.
type Pass struct {
	// Name is the registry key, as accepted by Apply / amopt -passes.
	Name string
	// Description is a one-line human summary for -passes list.
	Description string
	// Ref anchors the pass in the paper (section, figure, or table), or
	// names the external source for baselines that predate it.
	Ref string
	// RunWith applies the pass to g in place under session s, which is
	// never nil, and reports the uniform stats.
	//
	// A non-nil error must be one of the internal/fault taxonomy errors
	// (fixpoint overrun, exhausted budget, cancellation, ...); the
	// pipeline decorates it with the pass's name and index and applies
	// its recovery policy. A pass that returns an error may leave g in
	// the state of its last completed sub-step, but never structurally
	// invalid — full rollback to the pre-pass checkpoint is the
	// pipeline's job, not the pass's.
	RunWith func(g *ir.Graph, s *analysis.Session) (Stats, error)
}

// Info is the descriptive projection of a registered pass, used by
// listings and documentation generators.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Ref         string `json:"ref"`
}

var (
	regMu    sync.RWMutex
	registry = map[string]Pass{}
)

// Register adds p to the registry. It panics on an empty name, a nil
// RunWith, or a duplicate registration — all programming errors in a pass
// package's init, better loud than shadowed.
func Register(p Pass) {
	if p.Name == "" {
		panic("pass: Register with empty name")
	}
	if p.RunWith == nil {
		panic("pass: Register " + p.Name + " with nil RunWith")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name]; dup {
		panic("pass: duplicate registration of " + p.Name)
	}
	registry[p.Name] = p
}

// Lookup returns the registered pass of that name.
func Lookup(name string) (Pass, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Names returns all registered pass names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Infos returns the name/description/reference table of the registry,
// sorted by name.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	infos := make([]Info, 0, len(registry))
	for _, p := range registry {
		infos = append(infos, Info{Name: p.Name, Description: p.Description, Ref: p.Ref})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Resolve maps names to their registered passes, in order. An unknown name
// fails with a did-you-mean suggestion when a registered name is close.
func Resolve(names ...string) ([]Pass, error) {
	passes := make([]Pass, 0, len(names))
	for _, name := range names {
		p, ok := Lookup(name)
		if !ok {
			if sug := Suggest(name); sug != "" {
				return nil, fmt.Errorf("unknown pass %q (did you mean %q?)", name, sug)
			}
			return nil, fmt.Errorf("unknown pass %q", name)
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// Suggest returns the registered name closest to name in edit distance,
// or "" when nothing is plausibly close (distance > 1/3 of the name's
// length, minimum 2 — "a" should not suggest "am", but "coppyprop" should
// suggest "copyprop").
func Suggest(name string) string {
	best, bestDist := "", len(name)+1
	for _, cand := range Names() {
		if d := editDistance(name, cand); d < bestDist || (d == bestDist && cand < best) {
			best, bestDist = cand, d
		}
	}
	limit := len(name) / 3
	if limit < 2 {
		limit = 2
	}
	if best == "" || bestDist > limit {
		return ""
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// The two graph-level passes live directly in the IR — bypassing internal
// packages cannot register themselves here without an import cycle, so the
// composition layer registers them.
func init() {
	Register(Pass{
		Name:        "split",
		Description: "split critical edges by inserting synthetic blocks (done implicitly by all motion passes)",
		Ref:         "§3 (edge splitting); Figure 10",
		RunWith: func(g *ir.Graph, s *analysis.Session) (Stats, error) {
			return Stats{Changes: g.SplitCriticalEdges(), Iterations: 1}, nil
		},
	})
	Register(Pass{
		Name:        "tidy",
		Description: "bypass empty synthetic blocks and merge straight-line chains for presentation (run last)",
		Ref:         "presentation only; inverse of edge splitting",
		RunWith: func(g *ir.Graph, s *analysis.Session) (Stats, error) {
			return Stats{Changes: g.Tidy(), Iterations: 1}, nil
		},
	})
}
