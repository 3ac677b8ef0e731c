package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
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
// computation. When the leader fails, its waiters re-enter the cache once:
// one of them computes in its place and the others wait on it, and only
// when that computation fails too do they compute for themselves.
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

	// herd runs a leader and followers requests for one key. The first
	// pass the leader runs blocks until every follower waits on it, then
	// panics; every later pass panics too when failAll is set, and runs as
	// is otherwise. It returns the engine and graph for later requests,
	// and the results of the leader and of the followers.
	const followers = 15
	herd := func(t *testing.T, failAll bool) (*Engine, *ir.Graph, GraphResult, []GraphResult) {
		t.Helper()
		entered, proceed := make(chan struct{}), make(chan struct{})
		var wraps atomic.Int32
		e := New(Options{Inject: func(_ int, p pass.Pass) pass.Pass {
			if wraps.Add(1) == 1 {
				close(entered)
				<-proceed
				panic("inject: the leader fails")
			}
			if failAll {
				panic("inject: every computation fails")
			}
			return p
		}})
		g := cfggen.Structured(41, cfggen.Config{Size: 12})
		lead := make(chan GraphResult, 1)
		go func() { lead <- e.Optimize(context.Background(), g) }()
		<-entered

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

		leader := <-lead
		var got []GraphResult
		for i := 0; i < followers; i++ {
			select {
			case r := <-results:
				got = append(got, r)
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d followers still blocked after 10s", followers-i, followers)
			}
		}
		return e, g, leader, got
	}

	t.Run("failed leader", func(t *testing.T) {
		e, g, leader, results := herd(t, false)
		var pe *PanicError
		if !errors.As(leader.Err, &pe) {
			t.Fatalf("leader: err = %v, want the injected panic", leader.Err)
		}
		computed := 0
		for _, r := range results {
			switch {
			case r.Err != nil:
				t.Errorf("follower: err = %v; want a clean result", r.Err)
			case !r.CacheHit:
				computed++
			case r.CacheTier != "memory":
				t.Errorf("follower served by tier %q, want memory", r.CacheTier)
			}
		}
		if computed != 1 {
			t.Errorf("%d followers computed; want 1, in the failed leader's place", computed)
		}
		if r := e.Optimize(context.Background(), g); !r.CacheHit || r.CacheTier != "memory" {
			t.Fatalf("later run: hit=%v tier=%q; want a memory hit", r.CacheHit, r.CacheTier)
		}
		if st := e.CacheStats(); st.Misses != 2 || st.Hits != followers {
			t.Errorf("cache stats %+v; want 2 misses and %d hits", st, followers)
		}
	})

	t.Run("every computation fails", func(t *testing.T) {
		e, _, leader, results := herd(t, true)
		var pe *PanicError
		if !errors.As(leader.Err, &pe) {
			t.Fatalf("leader: err = %v, want the injected panic", leader.Err)
		}
		for _, r := range results {
			if !errors.As(r.Err, &pe) || r.CacheHit {
				t.Errorf("follower: err=%v hit=%v; want its own computation's panic", r.Err, r.CacheHit)
			}
		}
		// The leader, the follower in its place, and every other follower
		// on its own: one computation per request, none stored.
		if st := e.CacheStats(); st.Misses != followers+1 || st.Hits != 0 || st.Entries != 0 {
			t.Errorf("cache stats %+v; want %d misses, no hit and no entry", st, followers+1)
		}
	})
}
