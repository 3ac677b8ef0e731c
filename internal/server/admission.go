package server

// Admission control: a semaphore-bounded worker budget with a queue-depth
// limit. The daemon never queues unboundedly — once the wait queue is
// full, single-program requests are shed immediately with 429 +
// Retry-After, which keeps latency bounded for the requests that ARE
// admitted and tells well-behaved clients exactly what to do. Batch
// requests pass one up-front depth check and then share the same worker
// semaphore per graph, queueing one job at a time behind their batch's
// ticket, so a batch can never starve singles of more than the slots it
// is actively using plus one place in the queue.

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync/atomic"
)

// errOverloaded is the shed signal: the wait queue is full.
var errOverloaded = errors.New("server overloaded: worker queue full")

// admission is the worker-budget semaphore plus queue accounting.
type admission struct {
	sem        chan struct{} // capacity = worker budget
	queueLimit int64         // max goroutines blocked waiting for a slot
	waiting    atomic.Int64
}

// newAdmission takes Config.fill's values: workers and queueDepth are
// both at least 1.
func newAdmission(workers, queueDepth int) *admission {
	return &admission{sem: make(chan struct{}, workers), queueLimit: int64(queueDepth)}
}

// tryAcquire takes a worker slot, waiting in the bounded queue if all
// slots are busy. It returns errOverloaded without waiting when the
// queue is already full, and ctx.Err() if the caller's context expires
// while queued.
func (a *admission) tryAcquire(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	if w := a.waiting.Add(1); w > a.queueLimit {
		a.waiting.Add(-1)
		return errOverloaded
	}
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire takes a worker slot, waiting as long as ctx allows. Used by the
// per-graph jobs of an already-admitted batch, which must not be shed
// mid-stream, through acquireInBatch.
func (a *admission) acquire(ctx context.Context) error {
	a.waiting.Add(1)
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquireInBatch is acquire for one job of a batch. The job joins the
// queue only while it holds its batch's ticket (a channel of capacity
// one), which it hands on once it has a slot: a draining batch counts one
// waiter, not one per job, so single requests are not shed for its sake.
func (a *admission) acquireInBatch(ctx context.Context, ticket chan struct{}) error {
	select {
	case ticket <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-ticket }()
	return a.acquire(ctx)
}

// release returns a worker slot.
func (a *admission) release() { <-a.sem }

// overloaded reports whether the wait queue is full right now — the
// up-front shed check for batch requests, taken before the response
// stream starts (a 429 cannot be sent once bytes are on the wire).
func (a *admission) overloaded() bool { return a.waiting.Load() >= a.queueLimit }

// queued reports the current wait-queue depth (for the metrics gauge).
func (a *admission) queued() int64 { return a.waiting.Load() }

// defaultMeanServiceSeconds seeds the Retry-After estimate before any
// request has completed (optimizations typically land well under this).
const defaultMeanServiceSeconds = 0.05

// retryAfterSeconds estimates how long a shed client should wait: the
// work ahead of it (the queue plus its own job) divided by the service
// rate (workers per mean service time), clamped to [1, 60] seconds. A
// lightly loaded server says "1"; a server with a deep queue of slow
// jobs tells clients to stay away proportionally longer instead of
// inviting an immediate synchronized retry storm.
func retryAfterSeconds(queued int64, workers int, meanServiceSeconds float64) int {
	if meanServiceSeconds <= 0 {
		meanServiceSeconds = defaultMeanServiceSeconds
	}
	if workers < 1 {
		workers = 1
	}
	secs := int(math.Ceil(meanServiceSeconds * float64(queued+1) / float64(workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// retryAfter renders the Retry-After header value from the server's
// current queue depth and observed mean service time.
func (s *Server) retryAfter() string {
	return strconv.Itoa(retryAfterSeconds(s.adm.queued(), s.cfg.Workers, s.met.meanServiceSeconds()))
}
