package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", msg)
}

func newTestNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// A peer whose /healthz fails goes down within a probe interval, and
// comes back up when the endpoint recovers.
func TestHealthProbeMarksDownAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if !healthy.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	n := newTestNode(t, Config{
		Self:          "http://self.test:1",
		Peers:         []string{peer.URL},
		ProbeInterval: 10 * time.Millisecond,
		DownBackoff:   10 * time.Millisecond,
	})
	n.Start()
	defer n.Stop()

	waitFor(t, 2*time.Second, func() bool { return n.Healthy(peer.URL) }, "peer never seen up")

	healthy.Store(false)
	waitFor(t, 2*time.Second, func() bool { return !n.Healthy(peer.URL) }, "peer never marked down")

	healthy.Store(true)
	waitFor(t, 2*time.Second, func() bool { return n.Healthy(peer.URL) }, "peer never recovered")

	if n.Metrics().downEvents.Load() < 1 || n.Metrics().upEvents.Load() < 1 {
		t.Fatalf("transition counters: down=%d up=%d, want >=1 each",
			n.Metrics().downEvents.Load(), n.Metrics().upEvents.Load())
	}
}

// While a peer is down, re-probe delays grow exponentially up to the
// cap, then reset to the probe cadence on recovery.
func TestHealthBackoffGrowsAndResets(t *testing.T) {
	cfg := Config{
		Self:           "http://self.test:1",
		Peers:          []string{"http://peer.test:1"},
		ProbeInterval:  100 * time.Millisecond,
		DownBackoff:    20 * time.Millisecond,
		MaxDownBackoff: 80 * time.Millisecond,
	}
	n := newTestNode(t, cfg)
	h := n.health

	// Jitter is ±25%, so compare against the unjittered bounds.
	within := func(d, base time.Duration) bool {
		return d >= base*3/4 && d <= base*5/4
	}
	d1 := h.record("http://peer.test:1", false)
	d2 := h.record("http://peer.test:1", false)
	d3 := h.record("http://peer.test:1", false)
	d4 := h.record("http://peer.test:1", false)
	if !within(d1, 20*time.Millisecond) || !within(d2, 40*time.Millisecond) || !within(d3, 80*time.Millisecond) {
		t.Fatalf("backoff sequence %v %v %v, want ~20ms ~40ms ~80ms", d1, d2, d3)
	}
	if !within(d4, 80*time.Millisecond) {
		t.Fatalf("backoff %v exceeded cap ~80ms", d4)
	}

	dUp := h.record("http://peer.test:1", true)
	if !within(dUp, 100*time.Millisecond) {
		t.Fatalf("recovered delay %v, want ~probe interval", dUp)
	}
	dDownAgain := h.record("http://peer.test:1", false)
	if !within(dDownAgain, 20*time.Millisecond) {
		t.Fatalf("backoff after recovery %v, want reset to ~20ms", dDownAgain)
	}
}

// MarkDown (the forwarder's report) flips a peer immediately; only the
// prober brings it back.
func TestHealthMarkDown(t *testing.T) {
	n := newTestNode(t, Config{
		Self:  "http://self.test:1",
		Peers: []string{"http://peer.test:1"},
	})
	if !n.Healthy("http://peer.test:1") {
		t.Fatal("peer should start optimistically up")
	}
	n.MarkDown("http://peer.test:1")
	if n.Healthy("http://peer.test:1") {
		t.Fatal("peer still healthy after MarkDown")
	}
	// Redundant mark-downs must not double-count transitions.
	n.MarkDown("http://peer.test:1")
	if got := n.Metrics().downEvents.Load(); got != 1 {
		t.Fatalf("down transitions = %d, want 1", got)
	}
	if n.Healthy("http://unknown.test:1") {
		t.Fatal("unknown peer must not be healthy")
	}
}

// Route prefers healthy peers ranked ahead of self and falls back to
// local when the ranking says so.
func TestNodeRouteRespectsHealth(t *testing.T) {
	peers := []string{"http://node-a:1", "http://node-b:1"}
	n := newTestNode(t, Config{Self: "http://node-c:1", Peers: peers})

	// Find a key each peer owns, from self's worker-mode viewpoint.
	ownedBy := func(m string) string {
		for i := 0; ; i++ {
			key := "probe-" + itoa(i)
			if n.Owner(key) == m {
				return key
			}
		}
	}
	keyA := ownedBy("http://node-a:1")
	if r := n.Route(keyA); r.Local || len(r.Peers) == 0 || r.Peers[0] != "http://node-a:1" {
		t.Fatalf("route for a-owned key = %+v", r)
	}

	// Owner down: the next healthy replica leads; if that is self, the
	// job is local (redistribution-to-self).
	n.MarkDown("http://node-a:1")
	r := n.Route(keyA)
	if len(r.Peers) > 0 && r.Peers[0] == "http://node-a:1" {
		t.Fatalf("route still targets down peer: %+v", r)
	}

	// All peers down: a worker always serves its whole keyspace itself.
	n.MarkDown("http://node-b:1")
	for i := 0; i < 20; i++ {
		if r := n.Route("k-" + itoa(i)); !r.Local {
			t.Fatalf("key %d not local with all peers down: %+v", i, r)
		}
	}

	selfKey := ownedBy("http://node-c:1")
	if r := n.Route(selfKey); !r.Local {
		t.Fatalf("self-owned key routed remotely: %+v", r)
	}
}

// A coordinator is never in the ring and never routes local.
func TestCoordinatorRouting(t *testing.T) {
	n := newTestNode(t, Config{
		Self:  "http://coord:1",
		Peers: []string{"http://node-a:1", "http://node-b:1"},
		Mode:  ModeCoordinator,
	})
	if len(n.Members()) != 2 {
		t.Fatalf("coordinator ring members = %v", n.Members())
	}
	for i := 0; i < 20; i++ {
		if r := n.Route("k-" + itoa(i)); r.Local {
			t.Fatal("coordinator routed a key to itself")
		}
	}
	if !n.Ready() {
		t.Fatal("coordinator with healthy peers should be ready")
	}
	n.MarkDown("http://node-a:1")
	n.MarkDown("http://node-b:1")
	if n.Ready() {
		t.Fatal("coordinator with no healthy peers should not be ready")
	}
	// With every worker down the coordinator has no route at all; the
	// server's fallback policy decides what happens next.
	if r := n.Route("k-0"); r.Local || len(r.Peers) != 0 {
		t.Fatalf("dead-cluster coordinator route = %+v, want empty", r)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing Self accepted")
	}
	if _, err := New(Config{Self: "not-a-url"}); err == nil {
		t.Fatal("relative Self accepted")
	}
	if _, err := New(Config{Self: "http://a:1/"}); err == nil {
		t.Fatal("trailing slash accepted")
	}
	if _, err := New(Config{Self: "http://a:1", Mode: ModeCoordinator}); err == nil {
		t.Fatal("peerless coordinator accepted")
	}
	if _, err := New(Config{Self: "http://a:1", Mode: "router"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	n, err := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", "http://b:1", "http://b:1"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := len(n.Peers()); got != 1 {
		t.Fatalf("self/duplicate peers not deduped: %v", n.Peers())
	}
	if _, err := ParseMode("worker"); err != nil {
		t.Fatalf("ParseMode(worker): %v", err)
	}
	if _, err := ParseMode("boss"); err == nil {
		t.Fatal("ParseMode accepted junk")
	}
}
