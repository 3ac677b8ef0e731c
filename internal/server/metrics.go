package server

// Live observability: a dependency-free Prometheus text-format exporter.
// Everything the daemon knows about itself — request counts and latency
// histograms by outcome, cache behaviour by tier, admission control
// (in-flight gauge, shed counter), per-pass wall-time aggregates sourced
// from pass.Event, and the persistent store's counters — is scraped from
// GET /metrics.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"assignmentmotion/internal/cachestore"
	"assignmentmotion/internal/pass"
)

// latencyBuckets are the histogram upper bounds in seconds. Optimizations
// of realistic programs land in the 100µs–100ms range; the tail buckets
// catch budget blowouts and queueing.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	mu     sync.Mutex
	counts []int64
	sum    float64
	total  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets))}
}

func (h *histogram) observe(seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.total++
}

// passStats aggregates one pass's executions across all computed jobs.
type passStats struct {
	runs    int64
	changes int64
	wall    time.Duration
}

// metrics is the daemon's metric registry.
type metrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[string]int64      // "endpoint|outcome" -> count
	latency  map[string]*histogram // endpoint -> histogram
	passes   map[string]passStats  // pass name -> aggregates

	cacheHitsMemory atomic.Int64
	cacheHitsDisk   atomic.Int64
	cacheMisses     atomic.Int64

	inflight atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64

	// store, when non-nil, contributes its counters at scrape time.
	store *cachestore.Store
}

func newMetrics(store *cachestore.Store) *metrics {
	return &metrics{
		start:    time.Now(),
		requests: map[string]int64{},
		latency:  map[string]*histogram{},
		passes:   map[string]passStats{},
		store:    store,
	}
}

// request records one finished request: its endpoint ("optimize",
// "batch", ...), its outcome label, and its latency.
func (m *metrics) request(endpoint, outcome string, d time.Duration) {
	m.mu.Lock()
	m.requests[endpoint+"|"+outcome]++
	h, ok := m.latency[endpoint]
	if !ok {
		h = newHistogram()
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	h.observe(d.Seconds())
}

// passEvent folds one computed pass.Event into the per-pass aggregates.
// Cache hits never produce events, so these counters measure real work:
// after a warm restart they stay flat while requests keep answering.
func (m *metrics) passEvent(ev pass.Event) {
	m.mu.Lock()
	st := m.passes[ev.Pass]
	st.runs++
	st.changes += int64(ev.Stats.Changes)
	st.wall += ev.Wall
	m.passes[ev.Pass] = st
	m.mu.Unlock()
}

// meanServiceSeconds reports the observed mean request latency across
// all endpoints (0 before anything has been observed) — the service-rate
// signal behind the computed Retry-After header.
func (m *metrics) meanServiceSeconds() float64 {
	m.mu.Lock()
	hists := make([]*histogram, 0, len(m.latency))
	for _, h := range m.latency {
		hists = append(hists, h)
	}
	m.mu.Unlock()
	var sum float64
	var total int64
	for _, h := range hists {
		h.mu.Lock()
		sum += h.sum
		total += h.total
		h.mu.Unlock()
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// cacheOutcome records the cache behaviour of one job.
func (m *metrics) cacheOutcome(hit bool, tier string) {
	switch {
	case !hit:
		m.cacheMisses.Add(1)
	case tier == "disk":
		m.cacheHitsDisk.Add(1)
	default:
		m.cacheHitsMemory.Add(1)
	}
}

// write renders the registry in Prometheus text exposition format.
func (m *metrics) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP amoptd_requests_total Finished requests by endpoint and outcome.\n")
	fmt.Fprintf(w, "# TYPE amoptd_requests_total counter\n")
	m.mu.Lock()
	reqKeys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Strings(reqKeys)
	for _, k := range reqKeys {
		endpoint, outcome := k, ""
		if i := strings.IndexByte(k, '|'); i >= 0 {
			endpoint, outcome = k[:i], k[i+1:]
		}
		fmt.Fprintf(w, "amoptd_requests_total{endpoint=%q,outcome=%q} %d\n", endpoint, outcome, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP amoptd_request_duration_seconds Request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE amoptd_request_duration_seconds histogram\n")
	latKeys := make([]string, 0, len(m.latency))
	for k := range m.latency {
		latKeys = append(latKeys, k)
	}
	sort.Strings(latKeys)
	hists := make(map[string]*histogram, len(latKeys))
	for _, k := range latKeys {
		hists[k] = m.latency[k]
	}

	passKeys := make([]string, 0, len(m.passes))
	for k := range m.passes {
		passKeys = append(passKeys, k)
	}
	sort.Strings(passKeys)
	passes := make(map[string]passStats, len(passKeys))
	for _, k := range passKeys {
		passes[k] = m.passes[k]
	}
	m.mu.Unlock()

	for _, k := range latKeys {
		h := hists[k]
		h.mu.Lock()
		for i, ub := range latencyBuckets {
			fmt.Fprintf(w, "amoptd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", k, trimFloat(ub), h.counts[i])
		}
		fmt.Fprintf(w, "amoptd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", k, h.total)
		fmt.Fprintf(w, "amoptd_request_duration_seconds_sum{endpoint=%q} %g\n", k, h.sum)
		fmt.Fprintf(w, "amoptd_request_duration_seconds_count{endpoint=%q} %d\n", k, h.total)
		h.mu.Unlock()
	}

	fmt.Fprintf(w, "# HELP amoptd_cache_hits_total Jobs served from the result cache, by tier.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cache_hits_total counter\n")
	fmt.Fprintf(w, "amoptd_cache_hits_total{tier=\"memory\"} %d\n", m.cacheHitsMemory.Load())
	fmt.Fprintf(w, "amoptd_cache_hits_total{tier=\"disk\"} %d\n", m.cacheHitsDisk.Load())
	fmt.Fprintf(w, "# HELP amoptd_cache_misses_total Jobs that ran the pipeline.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cache_misses_total counter\n")
	fmt.Fprintf(w, "amoptd_cache_misses_total %d\n", m.cacheMisses.Load())

	fmt.Fprintf(w, "# HELP amoptd_inflight_jobs Optimization jobs currently holding a worker slot.\n")
	fmt.Fprintf(w, "# TYPE amoptd_inflight_jobs gauge\n")
	fmt.Fprintf(w, "amoptd_inflight_jobs %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP amoptd_queued_jobs Jobs waiting for a worker slot.\n")
	fmt.Fprintf(w, "# TYPE amoptd_queued_jobs gauge\n")
	fmt.Fprintf(w, "amoptd_queued_jobs %d\n", m.queued.Load())
	fmt.Fprintf(w, "# HELP amoptd_shed_total Requests rejected with 429 by admission control.\n")
	fmt.Fprintf(w, "# TYPE amoptd_shed_total counter\n")
	fmt.Fprintf(w, "amoptd_shed_total %d\n", m.shed.Load())

	fmt.Fprintf(w, "# HELP amoptd_pass_runs_total Executions per pass (computed jobs only; cache hits run no passes).\n")
	fmt.Fprintf(w, "# TYPE amoptd_pass_runs_total counter\n")
	for _, k := range passKeys {
		fmt.Fprintf(w, "amoptd_pass_runs_total{pass=%q} %d\n", k, passes[k].runs)
	}
	fmt.Fprintf(w, "# HELP amoptd_pass_wall_seconds_total Wall time per pass across all computed jobs.\n")
	fmt.Fprintf(w, "# TYPE amoptd_pass_wall_seconds_total counter\n")
	for _, k := range passKeys {
		fmt.Fprintf(w, "amoptd_pass_wall_seconds_total{pass=%q} %g\n", k, passes[k].wall.Seconds())
	}
	fmt.Fprintf(w, "# HELP amoptd_pass_changes_total Changes reported per pass across all computed jobs.\n")
	fmt.Fprintf(w, "# TYPE amoptd_pass_changes_total counter\n")
	for _, k := range passKeys {
		fmt.Fprintf(w, "amoptd_pass_changes_total{pass=%q} %d\n", k, passes[k].changes)
	}

	if m.store != nil {
		st := m.store.Stats()
		fmt.Fprintf(w, "# HELP amoptd_store_entries Entries in the persistent cache store.\n")
		fmt.Fprintf(w, "# TYPE amoptd_store_entries gauge\n")
		fmt.Fprintf(w, "amoptd_store_entries %d\n", st.Entries)
		fmt.Fprintf(w, "# HELP amoptd_store_bytes Payload bytes in the persistent cache store.\n")
		fmt.Fprintf(w, "# TYPE amoptd_store_bytes gauge\n")
		fmt.Fprintf(w, "amoptd_store_bytes %d\n", st.Bytes)
		fmt.Fprintf(w, "# HELP amoptd_store_evictions_total LRU evictions from the persistent store.\n")
		fmt.Fprintf(w, "# TYPE amoptd_store_evictions_total counter\n")
		fmt.Fprintf(w, "amoptd_store_evictions_total %d\n", st.Evictions)
		fmt.Fprintf(w, "# HELP amoptd_store_corruptions_total Corrupt entries discarded by the persistent store.\n")
		fmt.Fprintf(w, "# TYPE amoptd_store_corruptions_total counter\n")
		fmt.Fprintf(w, "amoptd_store_corruptions_total %d\n", st.Corruptions)
	}

	fmt.Fprintf(w, "# HELP amoptd_uptime_seconds Seconds since the daemon started.\n")
	fmt.Fprintf(w, "# TYPE amoptd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "amoptd_uptime_seconds %g\n", time.Since(m.start).Seconds())
	fmt.Fprintf(w, "# HELP amoptd_goroutines Current goroutine count.\n")
	fmt.Fprintf(w, "# TYPE amoptd_goroutines gauge\n")
	fmt.Fprintf(w, "amoptd_goroutines %d\n", runtime.NumGoroutine())
}

// trimFloat renders a bucket bound the way Prometheus expects ("0.005",
// not "0.0050000001").
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
