package assignmentmotion

// Registry agreement and concurrency tests for the pass manager. The
// -race CI step runs TestConcurrentPipelinesSharedEngine to check that
// concurrent pipelines — each with its own session — and one shared batch
// engine are race-free.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"assignmentmotion/internal/pass"
)

// TestRegistryOrderingPinned pins the exact contents and sorted order of
// the pass registry — the order `amopt -passes list` and amoptd's
// GET /v1/passes present to users. Adding or renaming a pass is a conscious
// API change and must update this list.
func TestRegistryOrderingPinned(t *testing.T) {
	want := []string{
		"aht", "am", "am-restricted", "copyprop", "dce", "em", "emcp",
		"flush", "globalg", "gvn", "gvn-emcp", "init", "mr", "pde",
		"rae", "split", "tidy",
	}
	var got []string
	for _, in := range PassInfos() {
		got = append(got, in.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry order changed:\n got %v\nwant %v", got, want)
	}
}

// TestFaultCanceledSessionStopsFixpointPasses: every registered pass that
// iterates to a fixpoint polls its session once per round, so a session
// whose context is canceled stops it with ErrCanceled instead of letting
// it compute on after an engine deadline, and the graph stays valid. The
// pass bodies run directly, as the pipeline runs them after its own
// between-pass check.
func TestFaultCanceledSessionStopsFixpointPasses(t *testing.T) {
	base := RandomStructured(2, GenConfig{Size: 40})
	if err := Apply(base, PassInit); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"am", "am-restricted", "em", "emcp", "gvn-emcp", "gvn", "pde", "dce", "copyprop"} {
		t.Run(name, func(t *testing.T) {
			p, ok := pass.Lookup(name)
			if !ok {
				t.Fatalf("pass %s not registered", name)
			}
			g := base.Clone()
			s := NewSession()
			defer s.Close()
			s.SetContext(ctx)
			if _, err := p.RunWith(g, s); !errors.Is(err, ErrCanceled) {
				t.Errorf("err = %v, want %v", err, ErrCanceled)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("graph left invalid: %v", err)
			}
		})
	}
}

// TestPassesMatchRegistry pins the facade's hand-curated Passes() list to
// the self-registered pass registry: every registered pass is listed and
// every listed pass is registered, with a description and paper reference.
// CI asserts this via `go test -run TestPassesMatchRegistry`.
func TestPassesMatchRegistry(t *testing.T) {
	listed := map[string]bool{}
	for _, p := range Passes() {
		if listed[string(p)] {
			t.Errorf("Passes() lists %q twice", p)
		}
		listed[string(p)] = true
	}
	registered := map[string]bool{}
	for _, info := range PassInfos() {
		registered[info.Name] = true
		if !listed[info.Name] {
			t.Errorf("registered pass %q missing from Passes()", info.Name)
		}
		if info.Description == "" {
			t.Errorf("pass %q has no description", info.Name)
		}
		if info.Ref == "" {
			t.Errorf("pass %q has no paper reference", info.Name)
		}
	}
	for name := range listed {
		if !registered[name] {
			t.Errorf("Passes() lists %q, which is not registered", name)
		}
	}
}

// TestConcurrentPipelinesSharedEngine drives one batch engine from many
// goroutines while independent pipelines run concurrently on the side —
// the sharing pattern a long-lived service would use. Run with -race.
func TestConcurrentPipelinesSharedEngine(t *testing.T) {
	const workers = 8
	e := NewBatchEngine(BatchOptions{CacheSize: 32})

	// A small graph pool with deliberate duplicates so the cache and its
	// single-flight path are exercised under contention.
	graphs := make([]*Graph, 12)
	for i := range graphs {
		graphs[i] = RandomStructured(int64(i%4), GenConfig{Size: 8})
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range graphs {
				r := e.Optimize(context.Background(), graphs[(i+w)%len(graphs)])
				if r.Err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, r.Err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := graphs[w%len(graphs)].Clone()
			if _, err := ApplyPipeline(g, PassInit, PassAM, PassFlush, PassTidy); err != nil {
				errs <- fmt.Errorf("pipeline %d: %w", w, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
