package engine

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"assignmentmotion/internal/core"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

// CacheStats reports the cumulative behaviour of one engine's cache.
type CacheStats struct {
	Hits    int64 // lookups answered from a stored result
	Misses  int64 // lookups that had to optimize
	Entries int   // results currently stored
}

// cacheKey addresses one cached outcome: the graph's content fingerprint
// plus the complete pipeline configuration that produced it — the pass
// spec, the recovery policy, and the resource budget. Mixing the whole
// configuration in keeps a shared cache (two engines over one persistent
// backend, or a future networked tier) from serving an "init,am,flush"
// result to an "em,copyprop" request, and from serving a result computed
// under a permissive budget to a request whose tighter budget would have
// rejected the computation. (Within one engine the configuration is
// constant, but the persistent backend outlives engines and daemons.)
type cacheKey struct {
	fp       ir.Fingerprint
	pipeline string
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

// entry is one cached optimization outcome. The stored graph is private to
// the cache; readers receive clones.
type entry struct {
	key    cacheKey
	graph  *ir.Graph
	result core.Result
	events []pass.Event
}

// cached is what a lookup hands out: a private clone of the stored graph
// plus the stored statistics (the events slice is shared read-only).
type cached struct {
	graph  *ir.Graph
	result core.Result
	events []pass.Event
}

// flight coordinates duplicate in-flight work on one key: the first
// worker to claim a key becomes the leader and computes; followers block
// on done and read the outcome. A failed leader (panic, timeout,
// cancellation) publishes ok=false and followers compute for themselves —
// errors are never cached, so a transient timeout cannot poison a key
// forever.
type flight struct {
	done   chan struct{}
	graph  *ir.Graph
	result core.Result
	events []pass.Event
	ok     bool
}

// cache is a content-addressed LRU of optimization results with
// single-flight deduplication. maxEntries <= 0 disables the bound.
type cache struct {
	mu         sync.Mutex
	entries    map[cacheKey]*list.Element
	ll         list.List // front = most recently used
	inflight   map[cacheKey]*flight
	maxEntries int

	hits   atomic.Int64
	misses atomic.Int64
}

func newCache(maxEntries int) *cache {
	return &cache{
		entries:    map[cacheKey]*list.Element{},
		inflight:   map[cacheKey]*flight{},
		maxEntries: maxEntries,
	}
}

// lookup returns the cached outcome for key, cloning the stored graph.
func (c *cache) lookup(key cacheKey) (cached, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return cached{}, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	out := cached{graph: e.graph, result: e.result, events: e.events}
	c.mu.Unlock()
	c.hits.Add(1)
	out.graph = out.graph.Clone()
	return out, true
}

// claim registers the caller as leader for key, or returns the existing
// in-flight computation to wait on.
func (c *cache) claim(key cacheKey) (leader bool, fl *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.inflight[key]; ok {
		return false, fl
	}
	fl = &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	return true, fl
}

// complete publishes a leader's successful outcome: the result is stored
// (the cache takes ownership of g, so the caller must pass a private
// clone), followers are released, and the LRU is trimmed.
func (c *cache) complete(key cacheKey, fl *flight, g *ir.Graph, res core.Result, events []pass.Event) {
	c.mu.Lock()
	fl.graph, fl.result, fl.events, fl.ok = g, res, events, true
	delete(c.inflight, key)
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		e.graph, e.result, e.events = g, res, events
	} else {
		c.entries[key] = c.ll.PushFront(&entry{key: key, graph: g, result: res, events: events})
		if c.maxEntries > 0 {
			for len(c.entries) > c.maxEntries {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.entries, oldest.Value.(*entry).key)
			}
		}
	}
	c.mu.Unlock()
	close(fl.done)
}

// abandon releases followers after a failed leader without caching.
func (c *cache) abandon(key cacheKey, fl *flight) {
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
}

func (c *cache) stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
