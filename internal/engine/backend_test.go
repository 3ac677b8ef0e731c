package engine

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cachestore"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
)

// memBackend is an in-memory Backend for tests that don't need a disk.
type memBackend struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemBackend() *memBackend { return &memBackend{m: map[string][]byte{}} }

func (b *memBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.m[key]
	return data, ok
}

func (b *memBackend) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), data...)
	return nil
}

func (b *memBackend) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// TestBackendWarmStart: a second engine sharing the first one's backend
// (same configuration) serves the graph from the persistent tier without
// computing — the daemon-restart scenario.
func TestBackendWarmStart(t *testing.T) {
	store, err := cachestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := cfggen.Structured(7, cfggen.Config{Size: 8})

	e1 := New(Options{Backend: store})
	r1 := e1.Optimize(context.Background(), g)
	if r1.Err != nil || r1.CacheHit {
		t.Fatalf("first run: err=%v cacheHit=%v", r1.Err, r1.CacheHit)
	}
	if store.Len() != 1 {
		t.Fatalf("backend entries = %d; want 1 write-through", store.Len())
	}

	// "Restart": a fresh engine, cold memory cache, same backend.
	e2 := New(Options{Backend: store})
	r2 := e2.Optimize(context.Background(), g)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.CacheHit || r2.CacheTier != "disk" {
		t.Fatalf("restarted engine: cacheHit=%v tier=%q; want a disk hit", r2.CacheHit, r2.CacheTier)
	}
	if r2.Graph.Encode() != r1.Graph.Encode() {
		t.Fatalf("disk-served result differs from the computed one:\n--- disk\n%s--- computed\n%s",
			r2.Graph.Encode(), r1.Graph.Encode())
	}
	if len(r2.Passes) != len(r1.Passes) {
		t.Fatalf("persisted events: got %d, want %d", len(r2.Passes), len(r1.Passes))
	}

	// The disk hit populated the memory tier: a third request is a
	// memory hit.
	r3 := e2.Optimize(context.Background(), g)
	if !r3.CacheHit || r3.CacheTier != "memory" {
		t.Fatalf("after disk hit: cacheHit=%v tier=%q; want a memory hit", r3.CacheHit, r3.CacheTier)
	}
}

// TestCacheKeySeparatesRecoveryPolicy: two engines sharing one backend,
// same passes, different recovery policies must never share a cache
// entry.
func TestCacheKeySeparatesRecoveryPolicy(t *testing.T) {
	backend := newMemBackend()
	g := cfggen.Structured(11, cfggen.Config{Size: 8})
	passes := []string{"init", "am", "flush"}

	e1 := New(Options{Backend: backend, Pipeline: Pipeline{Passes: passes, Recovery: pass.Fail}})
	if r := e1.Optimize(context.Background(), g); r.Err != nil || r.CacheHit {
		t.Fatalf("seed run: err=%v cacheHit=%v", r.Err, r.CacheHit)
	}

	e2 := New(Options{Backend: backend, Pipeline: Pipeline{Passes: passes, Recovery: pass.SkipAndContinue}})
	r := e2.Optimize(context.Background(), g)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.CacheHit {
		t.Fatalf("engine with Recovery=skip got a cache hit (tier %q) from the Recovery=fail entry", r.CacheTier)
	}
	if backend.len() != 2 {
		t.Fatalf("backend entries = %d; want 2 distinct keys for 2 recovery policies", backend.len())
	}
}

// TestCacheKeySeparatesBudget: same passes, different budgets must never
// share a cache entry — a result computed under no budget must not be
// served to a request whose tight budget would have rejected the
// computation.
func TestCacheKeySeparatesBudget(t *testing.T) {
	backend := newMemBackend()
	g := cfggen.Structured(13, cfggen.Config{Size: 8})
	passes := []string{"init", "am", "flush"}

	e1 := New(Options{Backend: backend, Pipeline: Pipeline{Passes: passes}})
	if r := e1.Optimize(context.Background(), g); r.Err != nil || r.CacheHit {
		t.Fatalf("seed run: err=%v cacheHit=%v", r.Err, r.CacheHit)
	}

	// A budget too tight for any AM fixpoint: with a shared key this
	// request would be served the unbudgeted result as a cache hit; with
	// the fixed key it computes for itself and fails honestly.
	tight := fault.Budget{MaxAMIterations: 1}
	e2 := New(Options{Backend: backend, Pipeline: Pipeline{Passes: passes, Budget: tight}})
	r := e2.Optimize(context.Background(), g)
	if r.CacheHit {
		t.Fatalf("engine with a tight budget got a cache hit (tier %q) from the unbudgeted entry", r.CacheTier)
	}

	// And the key separation is symmetric within one configuration: the
	// same tight-budget engine re-asked gives a consistent (cached or
	// recomputed) answer, never the other configuration's entry.
	r2 := e2.Optimize(context.Background(), g)
	if (r2.Err == nil) != (r.Err == nil) {
		t.Fatalf("tight-budget engine is inconsistent across calls: first err=%v, second err=%v", r.Err, r2.Err)
	}
}

// TestBackendDegradedNeverPersisted: a degraded result (recovery policy
// absorbed an injected failure) must not be written to the persistent
// tier any more than to the memory tier.
func TestBackendDegradedNeverPersisted(t *testing.T) {
	backend := newMemBackend()
	g := cfggen.Structured(17, cfggen.Config{Size: 8})

	boom := func(index int, p pass.Pass) pass.Pass {
		if p.Name == "am" {
			p.RunWith = func(_ *ir.Graph, _ *analysis.Session) (pass.Stats, error) {
				panic("injected")
			}
		}
		return p
	}
	e := New(Options{Backend: backend, Pipeline: Pipeline{Recovery: pass.SkipAndContinue}, Inject: boom})
	r := e.Optimize(context.Background(), g)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Outcome != OutcomeDegraded {
		t.Fatalf("outcome = %s; want degraded", r.Outcome)
	}
	if backend.len() != 0 {
		t.Fatalf("degraded result was persisted: %d backend entries", backend.len())
	}
}

// TestBackendCorruptEntryRecomputed: a backend serving garbage is treated
// as a miss; the engine recomputes and the answer matches a clean run.
func TestBackendCorruptEntryRecomputed(t *testing.T) {
	backend := newMemBackend()
	g := cfggen.Structured(19, cfggen.Config{Size: 8})

	e1 := New(Options{Backend: backend})
	r1 := e1.Optimize(context.Background(), g)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}

	// Corrupt every stored payload in place.
	backend.mu.Lock()
	for k := range backend.m {
		backend.m[k] = []byte("not a persisted entry")
	}
	backend.mu.Unlock()

	e2 := New(Options{Backend: backend})
	r2 := e2.Optimize(context.Background(), g)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r2.CacheHit {
		t.Fatal("corrupt backend entry was served as a cache hit")
	}
	if r2.Graph.Encode() != r1.Graph.Encode() {
		t.Fatal("recompute after corruption diverged from the original result")
	}
}

// faultyBackend misses every Get and errors every Put — a persistent
// tier that is present but completely broken.
type faultyBackend struct {
	puts atomic.Int64
}

func (b *faultyBackend) Get(string) ([]byte, bool) { return nil, false }

func (b *faultyBackend) Put(string, []byte) error {
	b.puts.Add(1)
	return errFaultyBackend
}

var errFaultyBackend = errors.New("backend write refused")

// TestBackendPutFailureNeverFailsRequests: a backend whose every write
// errors costs persistence and nothing else — requests still answer
// optimized, and the memory tier still serves repeats.
func TestBackendPutFailureNeverFailsRequests(t *testing.T) {
	fb := &faultyBackend{}
	g := cfggen.Structured(29, cfggen.Config{Size: 8})
	e := New(Options{Backend: fb})

	r1 := e.Optimize(context.Background(), g)
	if r1.Err != nil || r1.Outcome != OutcomeOptimized {
		t.Fatalf("first run with broken backend: err=%v outcome=%s", r1.Err, r1.Outcome)
	}
	if fb.puts.Load() == 0 {
		t.Fatal("write-through was never attempted")
	}

	r2 := e.Optimize(context.Background(), g)
	if !r2.CacheHit || r2.CacheTier != "memory" {
		t.Fatalf("repeat: cacheHit=%v tier=%q; want a memory hit despite the failed Put", r2.CacheHit, r2.CacheTier)
	}
	if r2.Graph.Encode() != r1.Graph.Encode() {
		t.Fatal("memory-served result diverged after a Put failure")
	}
}

// TestBackendCorruptEntryVariants: every corruption shape a backend can
// serve — broken JSON, an empty payload, a future entry version, a
// well-formed entry wrapping an unparseable program — degrades to a
// local compute with the correct answer, and never poisons the memory
// tier.
func TestBackendCorruptEntryVariants(t *testing.T) {
	g := cfggen.Structured(31, cfggen.Config{Size: 8})

	// Learn the real cache key (and the reference answer) from a clean
	// run against a scratch backend.
	seed := newMemBackend()
	ref := New(Options{Backend: seed}).Optimize(context.Background(), g)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	if seed.len() != 1 {
		t.Fatalf("seed backend has %d entries, want 1", seed.len())
	}
	var key string
	seed.mu.Lock()
	for k := range seed.m {
		key = k
	}
	seed.mu.Unlock()

	wrongVersion, err := json.Marshal(persistedEntry{
		Version: persistVersion + 1,
		Program: printer.String(ref.Graph),
	})
	if err != nil {
		t.Fatal(err)
	}
	unparseable, err := json.Marshal(persistedEntry{
		Version: persistVersion,
		Program: "graph ??? {",
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		payload []byte
	}{
		{"invalid JSON", []byte("{not json")},
		{"empty payload", nil},
		{"wrong version", wrongVersion},
		{"unparseable program", unparseable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			backend := newMemBackend()
			backend.Put(key, c.payload)
			e := New(Options{Backend: backend})

			r := e.Optimize(context.Background(), g)
			if r.Err != nil {
				t.Fatalf("request failed on corrupt backend data: %v", r.Err)
			}
			if r.CacheHit {
				t.Fatalf("corrupt entry served as a %q-tier hit", r.CacheTier)
			}
			if r.Graph.Encode() != ref.Graph.Encode() {
				t.Fatal("local recompute diverged from the reference answer")
			}

			r2 := e.Optimize(context.Background(), g)
			if !r2.CacheHit || r2.CacheTier != "memory" {
				t.Fatalf("repeat: cacheHit=%v tier=%q; want a memory hit", r2.CacheHit, r2.CacheTier)
			}
			if r2.Graph.Encode() != ref.Graph.Encode() {
				t.Fatal("memory tier was poisoned by the corrupt backend entry")
			}
		})
	}
}
