package server

// Cluster glue: how the HTTP handlers use internal/cluster.
//
// Jobs route by graph fingerprint. When the route names a healthy peer,
// the request forwards there (with retries and hedging inside
// cluster.Forward) under what is left of the request's deadline, and the
// peer's response is relayed — the forwarded request carries the
// X-Amoptd-Forwarded header, so the receiving node always computes
// locally and forwards never chain. When the route says local, or every
// candidate peer is unusable and local fallback is allowed, the job runs
// through the ordinary single-node path on the same deadline. With
// NoLocalFallback set, unroutable jobs answer typed 503/502 through the
// fault taxonomy instead.
//
// Nothing in this file writes to any cache: forwarded responses are
// relayed verbatim and peer errors surface as fault.PeerError, so the
// degraded-never-cached invariant reduces to each node's own engine
// discipline.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"assignmentmotion/internal/cluster"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
)

// nullStore is the local tier of memory-only cluster nodes: never hits,
// never stores. The node still reads its peers' caches through the
// remote tier wrapped around it.
type nullStore struct{}

func (nullStore) Get(string) ([]byte, bool) { return nil, false }
func (nullStore) Put(string, []byte) error  { return nil }

// Node exposes the cluster runtime (nil outside cluster mode); tests use
// it to reach routing and metrics.
func (s *Server) Node() *cluster.Node { return s.node }

// errNoPeer is the typed failure for "the cluster owns this job but no
// member of the cluster can take it".
var errNoPeer error = &fault.PeerError{
	Unreachable: true,
	Err:         errors.New("no healthy peer owns this graph and local fallback is disabled"),
}

// forward offers one program to its owning peer, for a single request
// and for a batch job alike. It returns the peer's answer, or nil with a
// nil error when the program is computed here: this node owns it, the
// request arrived forwarded, or no peer could take it and local fallback
// is allowed (counted as a redistribution when a forward failed). With
// NoLocalFallback an unroutable program is a typed peer error instead.
// When into is non-nil the answer must decode into it as an optimize
// response; a peer that answered anything else counts as failed.
func (s *Server) forward(ctx context.Context, r *http.Request, req *OptimizeRequest, g *ir.Graph, into *OptimizeResponse) (*cluster.ForwardResult, error) {
	if s.node == nil || r.Header.Get(cluster.ForwardedHeader) != "" {
		return nil, nil
	}
	route := s.node.Route(g.Fingerprint().String())
	if route.Local {
		return nil, nil
	}
	err := errNoPeer
	if len(route.Peers) > 0 {
		// The peer gets what is left of the caller's budget (ctx always
		// carries the request's deadline), so it cannot stretch it, and
		// the forward itself ends with ctx.
		fwd := *req
		dl, _ := ctx.Deadline()
		fwd.DeadlineMs = max(time.Until(dl).Milliseconds(), 1)
		body, _ := json.Marshal(fwd) // strings, numbers and slices: cannot fail
		var res *cluster.ForwardResult
		if res, err = s.node.Forward(ctx, route.Peers, "/v1/optimize", body); err == nil {
			if into == nil || json.Unmarshal(res.Body, into) == nil && into.Outcome != "" {
				return res, nil
			}
			// Not an optimize response: a proxy error page, a truncated body.
			err = &fault.PeerError{Peer: res.Peer, Attempts: 1, Err: fmt.Errorf("undecodable response (status %d)", res.Status)}
		}
	}
	if s.cfg.NoLocalFallback {
		return nil, err
	}
	if len(route.Peers) > 0 {
		s.node.Metrics().Redistributed()
	}
	return nil, nil
}

// handleReadyz is readiness, distinct from /healthz liveness: it reflects
// drain state and, in cluster mode, ring membership and peer health. A
// worker is ready unless draining; a coordinator additionally needs at
// least one healthy worker when local fallback is off (with fallback on
// it can still serve everything itself, degraded).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Status       string               `json:"status"`
		Draining     bool                 `json:"draining"`
		Mode         string               `json:"mode,omitempty"`
		RingMembers  int                  `json:"ringMembers,omitempty"`
		HealthyPeers int                  `json:"healthyPeers"`
		Peers        []cluster.PeerStatus `json:"peers,omitempty"`
	}
	rd := readiness{Draining: s.isDraining()}
	ready := !rd.Draining
	if s.node != nil {
		rd.Mode = string(s.node.Mode())
		rd.RingMembers = len(s.node.Members())
		rd.HealthyPeers = s.node.HealthyPeerCount()
		rd.Peers = s.node.Status()
		if !s.node.Ready() && s.cfg.NoLocalFallback {
			ready = false
		}
	}
	status := http.StatusOK
	rd.Status = "ready"
	if !ready {
		status = http.StatusServiceUnavailable
		rd.Status = "not-ready"
	}
	writeJSON(w, status, rd)
}

// handleClusterCache serves one persistent-store entry to a peer (the
// remote cache tier's fetch endpoint). It reads the store directly —
// never through an engine or a remote backend — so fetches cannot
// recurse, and a store that never holds degraded results cannot leak
// them. 404 is the only miss shape; peers treat every failure as a miss.
func (s *Server) handleClusterCache(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	if s.store == nil {
		http.NotFound(w, r)
		return
	}
	data, ok := s.store.Get(key)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}
