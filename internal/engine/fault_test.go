package engine

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/fault/inject"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/verify"
)

// corpusGraphs loads the embedded golden-corpus programs.
func corpusGraphs(t *testing.T) []*ir.Graph {
	t.Helper()
	var graphs []*ir.Graph
	for _, name := range corpus.Names() {
		graphs = append(graphs, corpus.Load(name))
	}
	if len(graphs) == 0 {
		t.Fatal("empty corpus")
	}
	return graphs
}

// prefixEncodes runs the clean global pipeline on a clone of g and returns
// the graph encoding after each pass: prefix[0] is the input, prefix[k] the
// state after pass k-1 — exactly the checkpoint Rollback must restore when
// pass k-1 is poisoned... shifted so prefix[k] is the last-good state for a
// fault at pipeline index k.
func prefixEncodes(t *testing.T, g *ir.Graph) []string {
	t.Helper()
	clone := g.Clone()
	prefix := []string{clone.Encode()}
	s := analysis.NewSession()
	defer s.Close()
	pl := pass.New(core.Phases(nil)...)
	pl.Hook = func(ev pass.Event) { prefix = append(prefix, clone.Encode()) }
	if _, err := pl.RunWith(context.Background(), clone, s); err != nil {
		t.Fatalf("clean run of %s: %v", g.Name, err)
	}
	return prefix
}

// TestChaosRollbackByteIdentity poisons every pipeline position of the
// global algorithm in turn, over the whole golden corpus, and asserts the
// central recovery contract: under Rollback the returned graph is
// byte-identical (ir.Graph.Encode) to the last-good checkpoint, and the
// input is never mutated.
func TestChaosRollbackByteIdentity(t *testing.T) {
	for _, g := range corpusGraphs(t) {
		prefix := prefixEncodes(t, g)
		npasses := len(prefix) - 1
		inputBefore := g.Encode()
		for k := 0; k < npasses; k++ {
			k := k
			e := New(Options{
				Parallelism: 1,
				Recovery:    pass.Rollback,
				Inject: func(index int, p pass.Pass) pass.Pass {
					if index != k {
						return p
					}
					p.RunWith = func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
						panic("chaos: poisoned pass")
					}
					return p
				},
			})
			r := e.Optimize(context.Background(), g)
			if r.Err != nil {
				t.Fatalf("%s/poison@%d: rollback must absorb the failure, got %v", g.Name, k, r.Err)
			}
			if r.Outcome != OutcomeDegraded || len(r.Failures) != 1 {
				t.Fatalf("%s/poison@%d: outcome %s, failures %v; want degraded with one failure", g.Name, k, r.Outcome, r.Failures)
			}
			if !errors.Is(r.Failures[0], fault.ErrPassPanic) {
				t.Errorf("%s/poison@%d: failure is not ErrPassPanic: %v", g.Name, k, r.Failures[0])
			}
			if got := r.Graph.Encode(); got != prefix[k] {
				t.Errorf("%s/poison@%d: result not byte-identical to last-good checkpoint\n--- got\n%s--- want\n%s",
					g.Name, k, got, prefix[k])
			}
			if err := r.Graph.Validate(); err != nil {
				t.Errorf("%s/poison@%d: degraded result invalid: %v", g.Name, k, err)
			}
			if g.Encode() != inputBefore {
				t.Fatalf("%s/poison@%d: input graph was mutated", g.Name, k)
			}
		}
	}
}

// TestChaosCacheNeverStoresDegraded proves the cache-cleanliness contract:
// a degraded (rolled-back) result must never be stored under the clean
// content key. Batch 1 runs with injection live and degrades some graphs;
// batch 2 on the SAME engine runs with injection gated off and must produce
// the full, clean optimization for every graph — if a degraded result had
// been cached, batch 2 would serve the leftovers.
func TestChaosCacheNeverStoresDegraded(t *testing.T) {
	graphs := corpusGraphs(t)
	var gate atomic.Bool
	gate.Store(true)
	inj := inject.New(inject.Config{Seed: 7, Rate: 0.5, Kinds: []inject.Kind{inject.Panic, inject.Corrupt}})
	e := New(Options{
		Parallelism: 4,
		Recovery:    pass.Rollback,
		Inject: func(index int, p pass.Pass) pass.Pass {
			if !gate.Load() {
				return p
			}
			return inj.Wrap(index, p)
		},
	})

	rep1 := e.OptimizeBatch(context.Background(), graphs)
	if rep1.Degraded == 0 {
		t.Fatalf("seed 7 at rate 0.5 fired no faults over the corpus (fired=%d) — chaos batch tested nothing", len(inj.Fired()))
	}

	gate.Store(false)
	rep2 := e.OptimizeBatch(context.Background(), graphs)
	for i, r := range rep2.Results {
		if r.Err != nil || r.Outcome != OutcomeOptimized {
			t.Fatalf("clean batch graph %d (%s): outcome %s, err %v", i, r.Name, r.Outcome, r.Err)
		}
		want := graphs[i].Clone()
		optimize(want)
		if r.Graph.Encode() != want.Encode() {
			t.Errorf("graph %d (%s): clean batch served a stale degraded result\n--- got\n%s--- want\n%s",
				i, r.Name, r.Graph.Encode(), want.Encode())
		}
	}
}

// TestChaosGracefulBatchDegradation runs a mixed batch under injection and
// checks that poisoned graphs fail or degrade ALONE: every other graph's
// result equals the clean serial optimization, the report's counters are
// consistent, and no degraded or failed result is structurally invalid.
func TestChaosGracefulBatchDegradation(t *testing.T) {
	graphs := corpusGraphs(t)
	for seed := int64(0); seed < 4; seed++ {
		graphs = append(graphs, cfggen.Structured(seed, cfggen.Config{Size: 8}))
	}
	before := make([]string, len(graphs))
	for i, g := range graphs {
		before[i] = g.Encode()
	}

	inj := inject.New(inject.Config{Seed: 21, Rate: 0.35})
	rep := OptimizeBatch(context.Background(), graphs, Options{
		Parallelism: 4,
		CacheSize:   -1,
		Recovery:    pass.SkipAndContinue,
		Inject:      inj.Wrap,
	})

	if rep.Degraded == 0 && rep.Failed == 0 {
		t.Fatalf("seed 21 at rate 0.35 degraded nothing (fired=%d)", len(inj.Fired()))
	}
	if rep.Succeeded+rep.Failed != rep.Graphs {
		t.Fatalf("inconsistent counters: %+v", rep)
	}
	degraded := 0
	for i, r := range rep.Results {
		if graphs[i].Encode() != before[i] {
			t.Fatalf("graph %d (%s): input mutated", i, r.Name)
		}
		switch r.Outcome {
		case OutcomeOptimized:
			want := graphs[i].Clone()
			optimize(want)
			if r.Graph.Encode() != want.Encode() {
				t.Errorf("graph %d (%s): clean graph did not get the clean result", i, r.Name)
			}
		case OutcomeDegraded:
			degraded++
			if len(r.Failures) == 0 {
				t.Errorf("graph %d (%s): degraded without recorded failures", i, r.Name)
			}
			if err := r.Graph.Validate(); err != nil {
				t.Errorf("graph %d (%s): degraded result invalid: %v", i, r.Name, err)
			}
			// Degraded results are still semantics preserving: skipping or
			// rolling back whole passes composes valid transformations.
			if v := verify.Equivalent(graphs[i], r.Graph, 4, 1); !v.Equivalent {
				t.Errorf("graph %d (%s): degraded result diverges: %s", i, r.Name, v.Detail)
			}
		case OutcomeFailed:
			if r.Err == nil {
				t.Errorf("graph %d (%s): failed without error", i, r.Name)
			}
		}
	}
	if degraded != rep.Degraded {
		t.Errorf("report says %d degraded, results say %d", rep.Degraded, degraded)
	}
}

// TestChaosSeededInjectionSweep is the time-boxed chaos sweep: seeds are
// drawn until the budget expires (default ~2s locally; CI sets
// CHAOS_SWEEP_SECONDS=30), each driving the full corpus through the engine
// under both recovery policies with all fault kinds live. The properties
// checked are the blanket ones: no panic escapes the engine, every
// returned graph validates, every outcome is internally consistent, and
// under Rollback each degraded result is byte-identical to one of the
// clean run's checkpoint states.
func TestChaosSeededInjectionSweep(t *testing.T) {
	budget := 2 * time.Second
	if v := os.Getenv("CHAOS_SWEEP_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CHAOS_SWEEP_SECONDS=%q: %v", v, err)
		}
		budget = time.Duration(secs) * time.Second
	} else if testing.Short() {
		budget = 500 * time.Millisecond
	}

	graphs := corpusGraphs(t)
	prefixes := make(map[string]map[string]bool, len(graphs)) // name -> set of checkpoint encodes
	for _, g := range graphs {
		set := map[string]bool{}
		for _, enc := range prefixEncodes(t, g) {
			set[enc] = true
		}
		prefixes[g.Name] = set
	}
	before := make([]string, len(graphs))
	for i, g := range graphs {
		before[i] = g.Encode()
	}

	start := time.Now()
	seeds, fired := 0, 0
	for seed := int64(1); time.Since(start) < budget; seed++ {
		seeds++
		for _, policy := range []pass.RecoveryPolicy{pass.Rollback, pass.SkipAndContinue} {
			inj := inject.New(inject.Config{Seed: seed, Rate: 0.4})
			rep := OptimizeBatch(context.Background(), graphs, Options{
				Parallelism: 4,
				CacheSize:   -1,
				Recovery:    policy,
				Inject:      inj.Wrap,
			})
			fired += len(inj.Fired())
			for i, r := range rep.Results {
				if graphs[i].Encode() != before[i] {
					t.Fatalf("seed %d/%s: graph %d (%s) input mutated", seed, policy, i, r.Name)
				}
				switch r.Outcome {
				case OutcomeOptimized, OutcomeDegraded:
					if r.Err != nil || r.Graph == nil {
						t.Fatalf("seed %d/%s: graph %s outcome %s with err=%v graph=%v", seed, policy, r.Name, r.Outcome, r.Err, r.Graph)
					}
					if err := r.Graph.Validate(); err != nil {
						t.Fatalf("seed %d/%s: graph %s returned invalid: %v", seed, policy, r.Name, err)
					}
					if policy == pass.Rollback && r.Outcome == OutcomeDegraded {
						if !prefixes[r.Name][r.Graph.Encode()] {
							t.Fatalf("seed %d: rollback result of %s matches no clean checkpoint state\n%s",
								seed, r.Name, r.Graph.Encode())
						}
					}
				case OutcomeFailed:
					if r.Err == nil {
						t.Fatalf("seed %d/%s: graph %s failed without error", seed, policy, r.Name)
					}
				default:
					t.Fatalf("seed %d/%s: graph %s has unknown outcome %q", seed, policy, r.Name, r.Outcome)
				}
			}
		}
	}
	if fired == 0 {
		t.Fatalf("sweep of %d seeds fired no faults — injection harness is dead", seeds)
	}
	t.Logf("chaos sweep: %d seeds, %d faults fired in %v", seeds, fired, time.Since(start))
}

// TestFaultCancellationNoGoroutineLeak cancels a batch mid-flight and
// checks that the engine winds down completely: canceled jobs report the
// cancellation, inputs are untouched, and the worker/computation goroutines
// drain (no leak).
func TestFaultCancellationNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var graphs []*ir.Graph
	for seed := int64(0); seed < 24; seed++ {
		graphs = append(graphs, cfggen.Structured(seed, cfggen.Config{Size: 10}))
	}
	before := make([]string, len(graphs))
	for i, g := range graphs {
		before[i] = g.Encode()
	}

	ctx, cancel := context.WithCancel(context.Background())
	var once atomic.Bool
	rep := OptimizeBatch(ctx, graphs, Options{
		Parallelism: 4,
		CacheSize:   -1,
		Hook: func(graph string, ev pass.Event) {
			// Cancel as soon as the first pass of the batch completes, so
			// cancellation lands mid-pipeline for the in-flight jobs.
			if once.CompareAndSwap(false, true) {
				cancel()
			}
		},
	})
	cancel()

	sawCancel := false
	for i, r := range rep.Results {
		if graphs[i].Encode() != before[i] {
			t.Fatalf("graph %d: input mutated after cancellation", i)
		}
		if r.Err != nil {
			if !fault.IsCancellation(r.Err) && !errors.Is(r.Err, context.Canceled) {
				t.Errorf("graph %d (%s): non-cancellation error after cancel: %v", i, r.Name, r.Err)
			}
			if r.Outcome != OutcomeFailed {
				t.Errorf("graph %d (%s): canceled job has outcome %s", i, r.Name, r.Outcome)
			}
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Skip("batch completed before cancellation landed; nothing to assert")
	}

	// Abandoned computation goroutines finish their (terminating) passes in
	// the background; give them a bounded window to drain.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestFaultInjectorDeterminism pins the injector's core contract: the same
// seed fires the same faults regardless of scheduling or batch order.
func TestFaultInjectorDeterminism(t *testing.T) {
	graphs := corpusGraphs(t)
	run := func(parallelism int) []inject.Injection {
		inj := inject.New(inject.Config{Seed: 99, Rate: 0.5})
		OptimizeBatch(context.Background(), graphs, Options{
			Parallelism: parallelism,
			CacheSize:   -1,
			Recovery:    pass.SkipAndContinue,
			Inject:      inj.Wrap,
		})
		return inj.Fired()
	}
	serial, parallel := run(1), run(8)
	if len(serial) == 0 {
		t.Fatal("seed 99 fired nothing")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial fired %d, parallel fired %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("injection %d differs: serial %+v, parallel %+v", i, serial[i], parallel[i])
		}
	}
}
