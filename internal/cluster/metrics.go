package cluster

// Cluster observability, rendered into the daemon's Prometheus text
// exposition by Node.WriteMetrics (the server appends it to its own
// /metrics output). Counters capture the full failure-handling stack:
// forwards and their failures per peer, retry and hedge activity,
// mid-batch redistributions, probe traffic, and up/down transitions;
// gauges expose the live peer health and the ring ownership shares.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is the cluster metric registry of one Node.
type Metrics struct {
	mu              sync.Mutex
	forwards        map[string]int64 // peer -> forward attempts
	forwardFailures map[string]int64 // peer -> transport-level failures

	retries       atomic.Int64 // forward attempts beyond the first cycle
	hedges        atomic.Int64 // hedged attempts launched
	hedgeWins     atomic.Int64 // requests won by a hedged attempt
	redistributed atomic.Int64 // jobs re-run elsewhere after their peer died

	probes        atomic.Int64
	probeFailures atomic.Int64
	downEvents    atomic.Int64 // up -> down transitions
	upEvents      atomic.Int64 // down -> up transitions

	remoteCacheHits   atomic.Int64 // remote-backend fetches answered by a peer
	remoteCacheMisses atomic.Int64 // remote-backend fetches that missed or failed
}

func newMetrics() *Metrics {
	return &Metrics{
		forwards:        map[string]int64{},
		forwardFailures: map[string]int64{},
	}
}

func (m *Metrics) forward(peer string) {
	m.mu.Lock()
	m.forwards[peer]++
	m.mu.Unlock()
}

func (m *Metrics) forwardFailure(peer string) {
	m.mu.Lock()
	m.forwardFailures[peer]++
	m.mu.Unlock()
}

func (m *Metrics) peerDown() { m.downEvents.Add(1) }
func (m *Metrics) peerUp()   { m.upEvents.Add(1) }

// Redistributed counts one job that lost its owning peer mid-flight and
// was re-enqueued elsewhere (a surviving replica or the local engine).
func (m *Metrics) Redistributed() { m.redistributed.Add(1) }

// RedistributedCount reports the redistribution counter (for tests).
func (m *Metrics) RedistributedCount() int64 { return m.redistributed.Load() }

// HedgeCount reports launched hedges and hedge wins (for tests).
func (m *Metrics) HedgeCount() (launched, wins int64) {
	return m.hedges.Load(), m.hedgeWins.Load()
}

// ForwardCounts reports per-peer forwards and failures (for tests).
func (m *Metrics) ForwardCounts() (forwards, failures map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	forwards = make(map[string]int64, len(m.forwards))
	for k, v := range m.forwards {
		forwards[k] = v
	}
	failures = make(map[string]int64, len(m.forwardFailures))
	for k, v := range m.forwardFailures {
		failures[k] = v
	}
	return forwards, failures
}

// write renders the registry; the Node adds the health- and ring-derived
// gauges itself (they live outside this struct).
func (m *Metrics) write(w io.Writer) {
	m.mu.Lock()
	peers := make([]string, 0, len(m.forwards))
	for p := range m.forwards {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	failPeers := make([]string, 0, len(m.forwardFailures))
	for p := range m.forwardFailures {
		failPeers = append(failPeers, p)
	}
	sort.Strings(failPeers)
	fwd := make(map[string]int64, len(peers))
	for _, p := range peers {
		fwd[p] = m.forwards[p]
	}
	ff := make(map[string]int64, len(failPeers))
	for _, p := range failPeers {
		ff[p] = m.forwardFailures[p]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP amoptd_cluster_forwards_total Forward attempts per peer (including retries and hedges).\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_forwards_total counter\n")
	for _, p := range peers {
		fmt.Fprintf(w, "amoptd_cluster_forwards_total{peer=%q} %d\n", p, fwd[p])
	}
	fmt.Fprintf(w, "# HELP amoptd_cluster_forward_failures_total Forward attempts that died on the wire, per peer.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_forward_failures_total counter\n")
	for _, p := range failPeers {
		fmt.Fprintf(w, "amoptd_cluster_forward_failures_total{peer=%q} %d\n", p, ff[p])
	}
	fmt.Fprintf(w, "# HELP amoptd_cluster_retries_total Forward attempts beyond each request's first try.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_retries_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_retries_total %d\n", m.retries.Load())
	fmt.Fprintf(w, "# HELP amoptd_cluster_hedges_total Hedged forwards launched after the primary exceeded the latency threshold.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_hedges_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_hedges_total %d\n", m.hedges.Load())
	fmt.Fprintf(w, "# HELP amoptd_cluster_hedge_wins_total Forwards won by a hedged attempt.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_hedge_wins_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_hedge_wins_total %d\n", m.hedgeWins.Load())
	fmt.Fprintf(w, "# HELP amoptd_cluster_redistributed_total Jobs re-enqueued to a survivor after their peer failed mid-flight.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_redistributed_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_redistributed_total %d\n", m.redistributed.Load())
	fmt.Fprintf(w, "# HELP amoptd_cluster_probes_total Health probes sent.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_probes_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_probes_total %d\n", m.probes.Load())
	fmt.Fprintf(w, "# HELP amoptd_cluster_probe_failures_total Health probes that failed.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_probe_failures_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_probe_failures_total %d\n", m.probeFailures.Load())
	fmt.Fprintf(w, "# HELP amoptd_cluster_peer_transitions_total Peer up/down transitions observed.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_peer_transitions_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_peer_transitions_total{to=\"down\"} %d\n", m.downEvents.Load())
	fmt.Fprintf(w, "amoptd_cluster_peer_transitions_total{to=\"up\"} %d\n", m.upEvents.Load())
	fmt.Fprintf(w, "# HELP amoptd_cluster_remote_cache_hits_total Cache fetches answered by the owning peer's store.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_remote_cache_hits_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_remote_cache_hits_total %d\n", m.remoteCacheHits.Load())
	fmt.Fprintf(w, "# HELP amoptd_cluster_remote_cache_misses_total Cache fetches the owning peer could not answer.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_remote_cache_misses_total counter\n")
	fmt.Fprintf(w, "amoptd_cluster_remote_cache_misses_total %d\n", m.remoteCacheMisses.Load())
}
