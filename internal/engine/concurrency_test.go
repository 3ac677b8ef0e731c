package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
)

// poisonedGraph builds a malformed graph whose optimization panics (a
// successor edge points outside the block slice). Clone preserves the
// corruption, so the panic fires inside the engine's protected section.
func poisonedGraph() *ir.Graph {
	g := ir.NewGraph("poisoned")
	b := g.AddBlock("only")
	b.Instrs = []ir.Instr{ir.NewAssign("x", ir.BinTerm(ir.OpAdd, ir.VarOp("a"), ir.VarOp("b")))}
	b.Succs = append(b.Succs, ir.NodeID(99)) // dangling edge
	g.Entry, g.Exit = b.ID, b.ID
	return g
}

// TestSharedCacheStress hammers one engine's cache from many concurrent
// batches over overlapping graphs. Run under -race (the CI does); the
// assertions double as a determinism check.
func TestSharedCacheStress(t *testing.T) {
	shared := structuredBatch(16, 5)
	reference := make([]string, len(shared))
	for i, g := range shared {
		c := g.Clone()
		if r := New(Options{Parallelism: 1}).Optimize(context.Background(), c); r.Err != nil {
			t.Fatal(r.Err)
		} else {
			reference[i] = r.Graph.Encode()
		}
	}

	e := New(Options{Parallelism: 4})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		offset := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each client rotates the shared slice so different clients
			// race on different fingerprints at any instant.
			batch := make([]*ir.Graph, len(shared))
			for i := range shared {
				batch[i] = shared[(i+offset)%len(shared)]
			}
			rep := e.OptimizeBatch(context.Background(), batch)
			for i, r := range rep.Results {
				if r.Err != nil {
					errs <- r.Err
					return
				}
				if want := reference[(i+offset)%len(shared)]; r.Graph.Encode() != want {
					errs <- errors.New("concurrent result diverged from serial reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Entries != len(shared) {
		t.Errorf("cache entries = %d, want %d", st.Entries, len(shared))
	}
	if st.Hits+st.Misses != int64(clients*len(shared)) {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, clients*len(shared))
	}
	if st.Hits == 0 {
		t.Error("no cache hits across overlapping concurrent batches")
	}
}

// TestPanicIsolation checks that one pathological graph yields an error
// result while its neighbours succeed, and the engine stays usable.
func TestPanicIsolation(t *testing.T) {
	graphs := []*ir.Graph{
		cfggen.Structured(1, cfggen.Config{Size: 5}),
		poisonedGraph(),
		cfggen.Structured(2, cfggen.Config{Size: 5}),
	}
	e := New(Options{Parallelism: 3})
	rep := e.OptimizeBatch(context.Background(), graphs)
	if rep.Succeeded != 2 || rep.Failed != 1 {
		t.Fatalf("counts: %+v", rep)
	}
	var pe *PanicError
	if !errors.As(rep.Results[1].Err, &pe) {
		t.Fatalf("poisoned graph: err = %v, want *PanicError", rep.Results[1].Err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	for _, i := range []int{0, 2} {
		if rep.Results[i].Err != nil {
			t.Errorf("healthy graph %d failed: %v", i, rep.Results[i].Err)
		}
	}
	// The engine survives: the same poisoned graph fails again (errors
	// are not cached) and healthy traffic still flows.
	if r := e.Optimize(context.Background(), poisonedGraph()); r.Err == nil {
		t.Error("poisoned graph succeeded on retry")
	}
	if r := e.Optimize(context.Background(), graphs[0]); r.Err != nil || !r.CacheHit {
		t.Errorf("engine unhealthy after panic: err=%v hit=%v", r.Err, r.CacheHit)
	}
}

// TestTimeoutIsolation checks the per-graph deadline: a slow adversarial
// graph times out, fast neighbours in the same batch succeed.
func TestTimeoutIsolation(t *testing.T) {
	graphs := []*ir.Graph{
		cfggen.RedundantChain(256), // ≈ 200 ms of AM fixpoint, several times the timeout
		cfggen.Structured(3, cfggen.Config{Size: 4}),
	}
	e := New(Options{Parallelism: 2, Timeout: 30 * time.Millisecond})
	rep := e.OptimizeBatch(context.Background(), graphs)
	if !errors.Is(rep.Results[0].Err, context.DeadlineExceeded) {
		t.Errorf("slow graph: err = %v, want deadline exceeded", rep.Results[0].Err)
	}
	if rep.Results[1].Err != nil {
		t.Errorf("fast graph failed: %v", rep.Results[1].Err)
	}
	waitForGoroutines(t, 5*time.Second)
}

// TestCancellationNoLeaks cancels a batch mid-flight and asserts that all
// worker goroutines wind down and the remaining jobs report ctx.Err().
func TestCancellationNoLeaks(t *testing.T) {
	graphs := make([]*ir.Graph, 0, 400)
	for i := 0; i < 400; i++ {
		graphs = append(graphs, cfggen.Structured(int64(i), cfggen.Config{Size: 8}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	rep := New(Options{Parallelism: 4, CacheSize: -1}).OptimizeBatch(ctx, graphs)
	if rep.Failed == 0 {
		t.Fatal("batch completed before cancellation; enlarge the workload")
	}
	sawCancel := false
	for _, r := range rep.Results {
		if errors.Is(r.Err, context.Canceled) {
			sawCancel = true
		} else if r.Err != nil {
			t.Fatalf("unexpected error kind: %v", r.Err)
		}
	}
	if !sawCancel {
		t.Error("no result reports context.Canceled")
	}
	waitForGoroutines(t, 5*time.Second)
}

// waitForGoroutines polls until the goroutine count returns to the test
// runtime's baseline, failing after the budget. Abandoned compute
// goroutines (timeout/cancel) must drain on their own.
func waitForGoroutines(t *testing.T, budget time.Duration) {
	t.Helper()
	// Baseline: the count before any engine work in this test binary is
	// not recoverable here, so use a small absolute bound: the testing
	// runtime itself needs only a handful of goroutines.
	deadline := time.Now().Add(budget)
	for {
		n := runtime.NumGoroutine()
		if n <= 8 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still alive after %v:\n%s", n, budget, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
