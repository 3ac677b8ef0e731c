package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
)

// panickyBackend panics on its first Get and misses on every later one.
type panickyBackend struct{ gets atomic.Int32 }

func (b *panickyBackend) Get(string) ([]byte, bool) {
	if b.gets.Add(1) == 1 {
		panic("backend: first Get fails")
	}
	return nil, false
}

func (b *panickyBackend) Put(string, []byte) error { return nil }

// TestSingleFlightLeaderPanicReleasesKey: a leader that panics before it
// computes (here in Backend.Get) still frees its key, so the next request
// for the same graph computes instead of waiting forever on the dead
// leader, and its clean result is then served from memory.
func TestSingleFlightLeaderPanicReleasesKey(t *testing.T) {
	e := New(Options{Backend: &panickyBackend{}})
	g := cfggen.Structured(31, cfggen.Config{Size: 8})
	var pe *PanicError
	if r := e.Optimize(context.Background(), g); !errors.As(r.Err, &pe) {
		t.Fatalf("first run: err = %v, want the backend's panic", r.Err)
	}
	second := make(chan GraphResult, 1)
	go func() { second <- e.Optimize(context.Background(), g) }()
	select {
	case r := <-second:
		if r.Err != nil || r.CacheHit {
			t.Fatalf("second run: err=%v hit=%v; want a clean computation", r.Err, r.CacheHit)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second run still blocked after 5s: the panicked leader never released its key")
	}
	if r := e.Optimize(context.Background(), g); !r.CacheHit || r.CacheTier != "memory" {
		t.Fatalf("third run: hit=%v tier=%q; want a memory hit", r.CacheHit, r.CacheTier)
	}
}

// doneProbe is a context that signals asked the first time a caller asks
// for its Done channel. A request for a key that another request is
// computing asks for it just before it blocks on that computation.
type doneProbe struct {
	context.Context
	once  sync.Once
	asked chan<- struct{}
}

func (c *doneProbe) Done() <-chan struct{} {
	c.once.Do(func() { c.asked <- struct{}{} })
	return c.Context.Done()
}

// TestSingleFlightComputesOnce: concurrent requests for one key share one
// computation, and waiters on a leader that fails compute for themselves
// without inheriting its error or storing a result.
func TestSingleFlightComputesOnce(t *testing.T) {
	t.Run("one computation", func(t *testing.T) {
		var mu sync.Mutex
		var seen []GraphResult
		e := New(Options{OutcomeHook: func(r GraphResult) {
			mu.Lock()
			seen = append(seen, r)
			mu.Unlock()
		}})
		g := cfggen.Structured(37, cfggen.Config{Size: 12})
		const clients = 16
		start := make(chan struct{})
		printed := make([]string, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				r := e.Optimize(context.Background(), g)
				if r.Err != nil {
					t.Errorf("client %d: %v", i, r.Err)
					return
				}
				printed[i] = printer.String(r.Graph)
			}(i)
		}
		close(start)
		wg.Wait()
		computed := 0
		for _, r := range seen {
			switch {
			case !r.CacheHit:
				computed++
			case r.CacheTier != "memory":
				t.Errorf("hit served by tier %q, want memory", r.CacheTier)
			}
		}
		if len(seen) != clients || computed != 1 {
			t.Errorf("%d outcomes, %d computed; want %d outcomes, 1 computed", len(seen), computed, clients)
		}
		for i, p := range printed {
			if p != printed[0] {
				t.Errorf("client %d printed\n%s\nclient 0 printed\n%s", i, p, printed[0])
			}
		}
		if st := e.CacheStats(); st.Misses != 1 || st.Hits != clients-1 {
			t.Errorf("cache stats %+v; want 1 miss and %d hits", st, clients-1)
		}
	})

	t.Run("failed leader", func(t *testing.T) {
		// The first pass the leader runs blocks until every follower waits
		// on it, then panics; every later pass runs as is.
		entered, proceed := make(chan struct{}), make(chan struct{})
		var wraps atomic.Int32
		e := New(Options{Inject: func(_ int, p pass.Pass) pass.Pass {
			if wraps.Add(1) == 1 {
				close(entered)
				<-proceed
				panic("inject: the leader fails")
			}
			return p
		}})
		g := cfggen.Structured(41, cfggen.Config{Size: 12})
		lead := make(chan GraphResult, 1)
		go func() { lead <- e.Optimize(context.Background(), g) }()
		<-entered

		const followers = 15
		waiting := make(chan struct{}, followers)
		results := make(chan GraphResult, followers)
		for i := 0; i < followers; i++ {
			ctx := &doneProbe{Context: context.Background(), asked: waiting}
			go func() { results <- e.Optimize(ctx, g) }()
		}
		for i := 0; i < followers; i++ {
			<-waiting
		}
		close(proceed)

		var pe *PanicError
		if r := <-lead; !errors.As(r.Err, &pe) {
			t.Fatalf("leader: err = %v, want the injected panic", r.Err)
		}
		for i := 0; i < followers; i++ {
			if r := <-results; r.Err != nil || r.CacheHit {
				t.Errorf("follower: err=%v hit=%v; want its own clean computation", r.Err, r.CacheHit)
			}
		}
		if r := e.Optimize(context.Background(), g); r.Err != nil || r.CacheHit {
			t.Fatalf("later run: err=%v hit=%v; want a computation, since failures are never stored", r.Err, r.CacheHit)
		}
		if r := e.Optimize(context.Background(), g); !r.CacheHit || r.CacheTier != "memory" {
			t.Fatalf("last run: hit=%v tier=%q; want a memory hit", r.CacheHit, r.CacheTier)
		}
		if st := e.CacheStats(); st.Misses != followers+2 || st.Hits != 1 {
			t.Errorf("cache stats %+v; want %d misses and 1 hit", st, followers+2)
		}
	})
}
