package engine

import (
	"context"
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
)

func structuredBatch(n int, size int) []*ir.Graph {
	graphs := make([]*ir.Graph, n)
	for i := range graphs {
		graphs[i] = cfggen.Structured(int64(i), cfggen.Config{Size: size})
	}
	return graphs
}

func TestBatchBasic(t *testing.T) {
	graphs := structuredBatch(10, 6)
	graphs = append(graphs, graphs[0].Clone()) // a duplicate, cacheable
	before := make([]string, len(graphs))
	for i, g := range graphs {
		before[i] = g.Encode()
	}

	rep := OptimizeBatch(context.Background(), graphs, Options{Parallelism: 4})
	if rep.Graphs != len(graphs) || rep.Succeeded != len(graphs) || rep.Failed != 0 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.CacheHits < 1 {
		t.Errorf("duplicate graph missed the cache: hits=%d misses=%d", rep.CacheHits, rep.CacheMisses)
	}
	if rep.AMIterations <= 0 || rep.MaxAMIterations <= 0 {
		t.Errorf("missing AM iteration stats: %+v", rep)
	}
	for i, r := range rep.Results {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("graph %d (%s): %v", i, r.Name, r.Err)
		}
		if r.Name != graphs[i].Name || r.Graph.Name != graphs[i].Name {
			t.Errorf("graph %d: name %q / %q, want %q", i, r.Name, r.Graph.Name, graphs[i].Name)
		}
		if r.Fingerprint == "" {
			t.Errorf("graph %d: missing fingerprint", i)
		}
		if err := r.Graph.Validate(); err != nil {
			t.Errorf("graph %d: invalid result: %v", i, err)
		}
		if graphs[i].Encode() != before[i] {
			t.Errorf("graph %d: input was mutated", i)
		}
		want := graphs[i].Clone()
		optimize(want)
		if r.Graph.Encode() != want.Encode() {
			t.Errorf("graph %d: engine result differs from serial core.Optimize\n--- engine\n%s--- serial\n%s",
				i, r.Graph.Encode(), want.Encode())
		}
	}
	// The duplicate's result must be byte-identical to the original's.
	if rep.Results[0].Graph.Encode() != rep.Results[len(graphs)-1].Graph.Encode() {
		t.Error("cache hit returned a structurally different graph")
	}
}

func TestEngineWarmReuse(t *testing.T) {
	graphs := structuredBatch(8, 5)
	e := New(Options{Parallelism: 2})
	cold := e.OptimizeBatch(context.Background(), graphs)
	if cold.Failed != 0 || cold.CacheMisses != len(graphs) {
		t.Fatalf("cold run: %+v", cold)
	}
	warm := e.OptimizeBatch(context.Background(), graphs)
	if warm.Failed != 0 || warm.CacheHits != len(graphs) || warm.CacheMisses != 0 {
		t.Fatalf("warm run not fully cached: hits=%d misses=%d", warm.CacheHits, warm.CacheMisses)
	}
	st := e.CacheStats()
	if st.Entries != len(graphs) || st.Hits < int64(len(graphs)) {
		t.Errorf("cache stats: %+v", st)
	}
	for i := range graphs {
		if cold.Results[i].Graph.Encode() != warm.Results[i].Graph.Encode() {
			t.Errorf("graph %d: warm result differs from cold", i)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	e := New(Options{Parallelism: 1, CacheSize: 2})
	ctx := context.Background()
	graphs := structuredBatch(3, 4)
	for _, g := range graphs {
		if r := e.Optimize(ctx, g); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := e.CacheStats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// graphs[0] is the LRU victim: re-optimizing is a miss, not a hit.
	r := e.Optimize(ctx, graphs[0])
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.CacheHit {
		t.Error("evicted entry served as a cache hit")
	}
	// graphs[2] is still resident.
	if r := e.Optimize(ctx, graphs[2]); !r.CacheHit {
		t.Error("resident entry missed the cache")
	}
}

func TestCacheDisabled(t *testing.T) {
	e := New(Options{Parallelism: 1, CacheSize: -1})
	g := cfggen.Structured(1, cfggen.Config{Size: 4})
	ctx := context.Background()
	a := e.Optimize(ctx, g)
	b := e.Optimize(ctx, g)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.CacheHit || b.CacheHit {
		t.Error("cache hit with caching disabled")
	}
	if st := e.CacheStats(); st != (CacheStats{}) {
		t.Errorf("cache stats with caching disabled: %+v", st)
	}
	if a.Graph.Encode() != b.Graph.Encode() {
		t.Error("repeated optimization is not deterministic")
	}
}

func TestNilGraph(t *testing.T) {
	graphs := structuredBatch(2, 4)
	graphs = append(graphs, nil)
	rep := OptimizeBatch(context.Background(), graphs, Options{Parallelism: 2})
	if rep.Succeeded != 2 || rep.Failed != 1 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.Results[2].Err == nil {
		t.Error("nil graph did not error")
	}
}

func TestEmptyBatch(t *testing.T) {
	rep := OptimizeBatch(context.Background(), nil, Options{})
	if rep.Graphs != 0 || rep.Succeeded != 0 || rep.Failed != 0 {
		t.Fatalf("empty batch: %+v", rep)
	}
}

func TestPerGraphTimings(t *testing.T) {
	g := cfggen.Structured(7, cfggen.Config{Size: 20})
	r := New(Options{Parallelism: 1}).Optimize(context.Background(), g)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	tm := r.Timings
	if tm.Init <= 0 || tm.AM <= 0 || tm.Flush <= 0 {
		t.Errorf("phase timings not populated: %+v", tm)
	}
	if tm.Total < tm.Init+tm.AM+tm.Flush {
		t.Errorf("total %v < sum of phases %v", tm.Total, tm.Init+tm.AM+tm.Flush)
	}
}
