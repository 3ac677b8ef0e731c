// Package cluster turns a set of amoptd daemons into one fault-tolerant
// optimization service. Jobs route to peers by graph-fingerprint
// consistent hashing, so each node's memory and disk caches stay hot
// for its own shard, behind a full failure-handling stack:
//
//   - per-peer health checking: /healthz probes on a steady cadence,
//     mark-down on failure, exponential backoff with jitter before
//     re-probe (health.go);
//   - bounded retries with backoff and deadline budgets on forwarded
//     requests, and hedged forwarding to the next ring replica when the
//     primary exceeds a latency threshold — first success wins, the
//     loser is canceled (client.go);
//   - distributed single-flight: all nodes route a fingerprint to the
//     same owner, whose engine-level single-flight collapses the
//     cluster-wide thundering herd into exactly one optimization;
//   - a remote cache backend that lets a node falling back to local
//     compute first consult the owning peer's persistent store
//     (backend.go);
//   - mid-batch redistribution: when a peer dies, its in-flight jobs
//     re-enqueue to the surviving replicas (or the local engine) — the
//     routing layer in internal/server drives this off Forward errors.
//
// Failure semantics follow the PR 4/5 taxonomy: peer failures surface as
// typed fault.PeerError values (503 when no replica is reachable, 502
// when a peer answers garbage) and are never cached or persisted — the
// degraded-never-cached invariant holds cluster-wide because only each
// node's own engine writes its stores, and engines never store degraded
// or failed results.
package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"
)

// Mode selects a node's role in the ring.
type Mode string

const (
	// ModeWorker: a full ring member — owns a shard, computes locally,
	// forwards jobs whose owner is a healthy peer ranked ahead of it.
	ModeWorker Mode = "worker"
	// ModeCoordinator: a router that is NOT a ring member — it owns no
	// shard and forwards every job to the workers. Whether it may compute
	// locally as a last resort is the server's LocalFallback policy.
	ModeCoordinator Mode = "coordinator"
)

// ParseMode validates a -cluster-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeWorker, ModeCoordinator:
		return Mode(s), nil
	}
	return "", fmt.Errorf("unknown cluster mode %q (want %q or %q)", s, ModeWorker, ModeCoordinator)
}

// defaultVirtualNodes balances the ring to within a few percent per
// member without making ring construction or the shares gauge heavy.
const defaultVirtualNodes = 64

const (
	probeTimeout = time.Second            // bounds one health probe
	fetchTimeout = 250 * time.Millisecond // bounds one remote cache fetch
	jitterSeed   = 1                      // seeds the probe and retry jitter
)

// Config describes one node's view of the cluster. Membership is static
// configuration: every node must be started with the same overall member
// set (its own URL in Self, the rest in Peers) for the rings to agree.
type Config struct {
	// Self is this node's advertised base URL (scheme://host:port). In
	// worker mode it joins the ring; in coordinator mode it only labels
	// metrics and loop-prevention headers.
	Self string
	// Peers are the other nodes' advertised base URLs.
	Peers []string
	// Mode selects worker (default) or coordinator.
	Mode Mode
	// ProbeInterval is the health-probe cadence while a peer is up
	// (0 = 1s).
	ProbeInterval time.Duration
	// DownBackoff is the first re-probe delay after a peer goes down; it
	// doubles per consecutive failure up to MaxDownBackoff
	// (0 = ProbeInterval, capped at 10 × ProbeInterval).
	DownBackoff    time.Duration
	MaxDownBackoff time.Duration
	// HedgeAfter launches a hedged forward to the next ring replica when
	// the primary has not answered within this duration. 0 selects the
	// 50ms default; negative disables hedging.
	HedgeAfter time.Duration
	// Retries is the number of extra forward cycles over the candidate
	// peers after the first fails (0 = 2; negative = no retries).
	Retries int
	// RetryBackoff is the base delay between retry cycles, doubled per
	// cycle with jitter (0 = 25ms).
	RetryBackoff time.Duration
}

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval <= 0 {
		return time.Second
	}
	return c.ProbeInterval
}

func (c Config) downBackoff() time.Duration {
	if c.DownBackoff <= 0 {
		return c.probeInterval()
	}
	return c.DownBackoff
}

func (c Config) maxDownBackoff() time.Duration {
	if c.MaxDownBackoff <= 0 {
		return 10 * c.probeInterval()
	}
	return c.MaxDownBackoff
}

func (c Config) hedgeAfter() time.Duration {
	if c.HedgeAfter == 0 {
		return 50 * time.Millisecond
	}
	return c.HedgeAfter
}

func (c Config) retries() int {
	if c.Retries == 0 {
		return 2
	}
	if c.Retries < 0 {
		return 0
	}
	return c.Retries
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 25 * time.Millisecond
	}
	return c.RetryBackoff
}

// Route is the health-aware answer to "who should run this key?".
type Route struct {
	// Local: this node is the first healthy replica (worker mode), or no
	// remote candidate exists and the caller decides whether local
	// compute is allowed.
	Local bool
	// Peers are the healthy remote candidates in ring preference order:
	// forward to Peers[0], hedge to Peers[1], fail over down the list.
	Peers []string
}

// Node is one daemon's cluster runtime: the ring, the health prober, the
// forwarding client, and the metrics. Construct with New, then Start the
// probers; Stop before process exit.
type Node struct {
	cfg    Config
	ring   *ring
	health *health
	met    *Metrics
	client *http.Client
}

// New validates cfg and builds the node. The ring holds Self (worker
// mode) plus every peer; coordinators stay out of the ring.
func New(cfg Config) (*Node, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeWorker
	}
	if cfg.Mode != ModeWorker && cfg.Mode != ModeCoordinator {
		return nil, fmt.Errorf("cluster: unknown mode %q", cfg.Mode)
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self URL is required")
	}
	for _, u := range append([]string{cfg.Self}, cfg.Peers...) {
		p, err := url.Parse(u)
		if err != nil || p.Scheme == "" || p.Host == "" {
			return nil, fmt.Errorf("cluster: %q is not an absolute base URL", u)
		}
		if strings.HasSuffix(u, "/") {
			return nil, fmt.Errorf("cluster: %q must not end in /", u)
		}
	}
	peers := dedup(cfg.Peers, cfg.Self)
	cfg.Peers = peers

	members := peers
	if cfg.Mode == ModeWorker {
		members = append([]string{cfg.Self}, peers...)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: coordinator mode needs at least one peer")
	}

	// A dedicated transport, with per-peer connection reuse.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 32
	client := &http.Client{Transport: transport}

	met := newMetrics()
	return &Node{
		cfg:    cfg,
		ring:   newRing(members, defaultVirtualNodes),
		health: newHealth(cfg, client, met),
		met:    met,
		client: client,
	}, nil
}

// dedup drops empty strings, duplicates, and self from a peer list,
// preserving order.
func dedup(peers []string, self string) []string {
	seen := map[string]bool{self: true, "": true}
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Start launches the health probers.
func (n *Node) Start() { n.health.start() }

// Stop terminates the probers. Idempotent it is not — call once.
func (n *Node) Stop() { n.health.close() }

// Self returns this node's advertised URL.
func (n *Node) Self() string { return n.cfg.Self }

// Mode returns the node's role.
func (n *Node) Mode() Mode { return n.cfg.Mode }

// Members returns the ring membership (workers only; a coordinator is
// not a member).
func (n *Node) Members() []string { return n.ring.Members() }

// Peers returns the configured peer list.
func (n *Node) Peers() []string { return n.cfg.Peers }

// Healthy reports the current health of one peer (self is always
// healthy).
func (n *Node) Healthy(peer string) bool {
	if peer == n.cfg.Self {
		return true
	}
	return n.health.healthy(peer)
}

// HealthyPeerCount counts currently-routable peers.
func (n *Node) HealthyPeerCount() int {
	c := 0
	for _, up := range n.health.snapshot() {
		if up {
			c++
		}
	}
	return c
}

// MarkDown records an externally observed peer failure (used by the
// forwarding layer on transport errors; tests use it to force routing).
func (n *Node) MarkDown(peer string) { n.health.markDown(peer) }

// Ready reports whether this node can meaningfully serve cluster
// traffic: workers are ready as ring members; a coordinator is ready
// while at least one worker is healthy. The server folds its own drain
// state and fallback policy on top for /readyz.
func (n *Node) Ready() bool {
	if n.cfg.Mode == ModeWorker {
		return true
	}
	return n.HealthyPeerCount() > 0
}

// Owner returns the primary ring member for key, health-blind.
func (n *Node) Owner(key string) string { return n.ring.Owner(key) }

// Route computes the health-aware routing decision for key.
//
// Worker mode: walk the ring preference order; every healthy peer ranked
// ahead of self is a forward candidate, and self's own position ends the
// walk — if no healthy peer outranks us, the job is ours (this is how a
// dead owner's shard redistributes to the next replica, and how it snaps
// back when the owner recovers). Coordinator mode: self holds no rank,
// so every healthy member is a candidate and Local is never set.
func (n *Node) Route(key string) Route {
	reps := n.ring.Replicas(key)
	var peers []string
	for _, m := range reps {
		if m == n.cfg.Self {
			if len(peers) == 0 {
				return Route{Local: true}
			}
			break
		}
		if n.Healthy(m) {
			peers = append(peers, m)
		}
	}
	if len(peers) == 0 {
		// No healthy remote candidate. A worker always has itself; a
		// coordinator reports an empty route and the server applies its
		// fallback policy.
		return Route{Local: n.cfg.Mode == ModeWorker}
	}
	return Route{Peers: peers}
}

// Metrics exposes the counters (for tests and the server's
// redistribution accounting).
func (n *Node) Metrics() *Metrics { return n.met }

// PeerStatus is one row of the cluster introspection endpoint.
type PeerStatus struct {
	URL     string  `json:"url"`
	Healthy bool    `json:"healthy"`
	Member  bool    `json:"ringMember"`
	Share   float64 `json:"ringShare"`
}

// Status reports the node's live view of the cluster, self included.
func (n *Node) Status() []PeerStatus {
	shares := n.ring.Shares()
	members := map[string]bool{}
	for _, m := range n.ring.Members() {
		members[m] = true
	}
	up := n.health.snapshot()
	out := []PeerStatus{{
		URL:     n.cfg.Self,
		Healthy: true,
		Member:  members[n.cfg.Self],
		Share:   shares[n.cfg.Self],
	}}
	peers := append([]string(nil), n.cfg.Peers...)
	sort.Strings(peers)
	for _, p := range peers {
		out = append(out, PeerStatus{URL: p, Healthy: up[p], Member: members[p], Share: shares[p]})
	}
	return out
}

// WriteMetrics renders the cluster section of /metrics: the counter
// registry plus the health- and ring-derived gauges.
func (n *Node) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP amoptd_cluster_peer_up Peer health as seen by this node (1 up, 0 down).\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_peer_up gauge\n")
	up := n.health.snapshot()
	peers := make([]string, 0, len(up))
	for p := range up {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		v := 0
		if up[p] {
			v = 1
		}
		fmt.Fprintf(w, "amoptd_cluster_peer_up{peer=%q} %d\n", p, v)
	}
	fmt.Fprintf(w, "# HELP amoptd_cluster_ring_members Ring members (workers).\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_ring_members gauge\n")
	fmt.Fprintf(w, "amoptd_cluster_ring_members %d\n", len(n.ring.Members()))
	fmt.Fprintf(w, "# HELP amoptd_cluster_ring_share Fraction of the keyspace owned per ring member.\n")
	fmt.Fprintf(w, "# TYPE amoptd_cluster_ring_share gauge\n")
	shares := n.ring.Shares()
	members := append([]string(nil), n.ring.Members()...)
	for _, m := range members {
		fmt.Fprintf(w, "amoptd_cluster_ring_share{member=%q} %g\n", m, shares[m])
	}
	n.met.write(w)
}
