package engine

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"assignmentmotion/internal/core"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

// CacheStats reports the cumulative behaviour of one engine's cache,
// across every pipeline it serves.
type CacheStats struct {
	Hits    int64 // lookups answered from a stored result
	Misses  int64 // lookups that had to optimize
	Entries int   // results currently stored
}

// cacheKey addresses one cached outcome: the graph's content fingerprint
// plus the complete pipeline configuration that produced it — the pass
// spec, the recovery policy, and the resource budget. One engine serves
// every configuration from one memory tier and one backend, and the key
// is all that keeps them apart: it never serves an "init,am,flush" result
// to an "em,copyprop" request, nor a result computed under a permissive
// budget to a request whose tighter budget would have rejected the
// computation. The persistent backend, which outlives engines and
// daemons, relies on the same separation.
type cacheKey struct {
	fp       ir.Fingerprint
	pipeline string // comma-joined pass names; "" = the global algorithm
	recovery pass.RecoveryPolicy
	budget   fault.Budget
}

// String is the persistent-backend form of the key: every field that
// distinguishes two cacheKey values appears in the string, so the on-disk
// store separates entries exactly as the in-memory map does.
func (k cacheKey) String() string {
	return fmt.Sprintf("%s|passes=%s|recovery=%s|budget=%d,%d,%d",
		k.fp, k.pipeline, k.recovery,
		int64(k.budget.MaxPassWall), k.budget.MaxSolverVisits, k.budget.MaxAMIterations)
}

// entry is one key's record in the cache. Until done closes it is the
// single-flight promise of the leader computing the key; then it holds
// the stored outcome (ok) or has left the cache (release), and its
// waiters re-enter get once (optimizeJob): errors are never cached, so a
// transient timeout cannot poison a key. complete writes the outcome
// before done closes, so a reader that saw done closed reads it without
// the lock. The stored graph is private to the cache; readers receive
// clones.
type entry struct {
	key  cacheKey
	done chan struct{}
	el   *list.Element // LRU position once completed

	ok     bool
	graph  *ir.Graph
	result core.Result
	events []pass.Event
}

// wait blocks until e is no longer pending, or ctx is done. A completed
// entry answers at once, whatever the state of ctx.
func (e *entry) wait(ctx context.Context) error {
	select {
	case <-e.done:
		return nil
	default:
	}
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cache is a content-addressed LRU of optimization results with
// single-flight deduplication: one map holds every key's entry, pending
// or completed. maxEntries <= 0 disables the bound on completed entries.
type cache struct {
	mu         sync.Mutex
	entries    map[cacheKey]*entry
	ll         list.List // completed entries, front = most recently used
	maxEntries int

	hits   atomic.Int64
	misses atomic.Int64
}

func newCache(maxEntries int) *cache {
	return &cache{entries: map[cacheKey]*entry{}, maxEntries: maxEntries}
}

// get returns key's entry, marking a completed one most recently used.
// When there is none it creates a pending one and reports leader: the
// caller must then defer release(e), and complete e if it computes a
// result worth storing.
func (c *cache) get(key cacheKey) (e *entry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.el != nil {
			c.ll.MoveToFront(e.el)
		}
		return e, false
	}
	e = &entry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// complete stores a leader's successful outcome in its pending entry (the
// cache takes ownership of g, so the caller must pass a private clone),
// releases the waiters, and trims the LRU.
func (c *cache) complete(e *entry, g *ir.Graph, res core.Result, events []pass.Event) {
	c.mu.Lock()
	e.graph, e.result, e.events, e.ok = g, res, events, true
	e.el = c.ll.PushFront(e)
	for c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		delete(c.entries, c.ll.Remove(c.ll.Back()).(*entry).key)
	}
	c.mu.Unlock()
	close(e.done)
}

// release ends a leader's claim on e unless complete stored a result: the
// entry leaves the cache, and the first of its waiters to re-enter get
// leads the next computation. Leaders defer it right after get, so every
// exit — an error, a degraded result, a panic in the backend, in decoding
// or in Clone — frees the key.
func (c *cache) release(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !e.ok {
		delete(c.entries, e.key)
		close(e.done)
	}
}

func (c *cache) stats() CacheStats {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
