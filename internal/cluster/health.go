package cluster

// Per-peer health checking. Every peer gets a prober goroutine that GETs
// its /healthz on a fixed interval while the peer is up. A failed probe
// (or a transport failure reported by the forwarding layer) marks the
// peer down; a down peer is re-probed on an exponential backoff with
// jitter, so a dead peer costs a bounded, de-synchronized trickle of
// probes instead of a thundering re-probe herd, and snaps back to the
// regular cadence on the first success.
//
// A draining peer answers /healthz with 503 (the PR 5 drain contract),
// so drain naturally reads as down here and traffic routes away before
// the peer stops serving.

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// peerState is the health record of one peer.
type peerState struct {
	up      bool
	backoff time.Duration // current re-probe delay while down
}

// health owns the probe loops and the up/down map.
type health struct {
	cfg    Config
	client *http.Client
	met    *Metrics

	mu    sync.Mutex
	peers map[string]*peerState
	rng   *rand.Rand

	stop chan struct{}
	wg   sync.WaitGroup
}

func newHealth(cfg Config, client *http.Client, met *Metrics) *health {
	h := &health{
		cfg:    cfg,
		client: client,
		met:    met,
		peers:  map[string]*peerState{},
		rng:    rand.New(rand.NewSource(jitterSeed)),
		stop:   make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		// Peers start up: the first probe corrects an optimistic default
		// within one interval, while a pessimistic default would refuse
		// all routing during startup even when every peer is fine.
		h.peers[p] = &peerState{up: true, backoff: cfg.downBackoff()}
	}
	return h
}

// start launches one prober per peer.
func (h *health) start() {
	for peer := range h.peers {
		h.wg.Add(1)
		go h.probeLoop(peer)
	}
}

func (h *health) close() {
	close(h.stop)
	h.wg.Wait()
}

// healthy reports whether peer is currently routable. Unknown peers
// (never configured) are not.
func (h *health) healthy(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.peers[peer]
	return ok && st.up
}

// markDown records an externally observed failure (a forward that died
// on the wire). The prober owns recovery: the peer stays down until a
// probe succeeds.
func (h *health) markDown(peer string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.peers[peer]
	if !ok || !st.up {
		return
	}
	st.up = false
	h.met.peerDown()
}

// snapshot returns the current up/down view for metrics and /readyz.
func (h *health) snapshot() map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]bool, len(h.peers))
	for p, st := range h.peers {
		out[p] = st.up
	}
	return out
}

// probeLoop drives one peer: a steady cadence while up, exponential
// backoff with jitter while down.
func (h *health) probeLoop(peer string) {
	defer h.wg.Done()
	timer := time.NewTimer(h.jitter(h.cfg.probeInterval()))
	defer timer.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-timer.C:
		}
		timer.Reset(h.record(peer, h.probe(peer)))
	}
}

// probe GETs the peer's liveness endpoint once and reports whether it
// answered 200.
func (h *health) probe(peer string) bool {
	h.met.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// record folds one probe outcome into the peer's state and returns the
// delay before the next probe.
func (h *health) record(peer string, ok bool) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.peers[peer]
	if st == nil {
		return h.cfg.probeInterval()
	}
	if ok {
		if !st.up {
			st.up = true
			h.met.peerUp()
		}
		st.backoff = h.cfg.downBackoff()
		return h.jitterLocked(h.cfg.probeInterval())
	}
	h.met.probeFailures.Add(1)
	if st.up {
		st.up = false
		h.met.peerDown()
	}
	delay := st.backoff
	st.backoff *= 2
	if limit := h.cfg.maxDownBackoff(); st.backoff > limit {
		st.backoff = limit
	}
	return h.jitterLocked(delay)
}

// jitter spreads a delay by ±25% so probers (and retry cycles) across
// the fleet never synchronize.
func (h *health) jitter(d time.Duration) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.jitterLocked(d)
}

func (h *health) jitterLocked(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	f := 0.75 + 0.5*h.rng.Float64()
	return time.Duration(float64(d) * f)
}
