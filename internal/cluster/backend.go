package cluster

// The remote cache tier. Engine cache misses consult the owning peer's
// persistent store before computing locally, so a node serving a job it
// does not own (coordinator fallback, redistribution after a peer death,
// a forwarded request) still benefits from the cluster's caches.
//
// The wrapper is deliberately read-only toward the cluster:
//
//   - Get tries the local store first, then — only for engine cache keys,
//     which start with the 64-hex graph fingerprint — fetches the entry
//     from the key's owner. Remote hits are NOT written back locally:
//     ownership stays with the peer, and the defensive decodeEntry layer
//     upstream treats any corrupt or stale payload as a miss.
//   - Put always writes the local store only. A node never pushes entries
//     into a peer's store, so the degraded-never-cached invariant reduces
//     to each engine's own local discipline — which PR 4 already tests.
//
// Keys of any other shape never route. The engine writes none today;
// the shape check keeps a foreign or legacy entry in a shared cache
// directory (such as the "incr|..." manifests an older build wrote) on
// its own node.
//
// Fetches are best-effort with a short timeout and no retries — on any
// failure the engine simply computes, which is always correct.

import (
	"context"
	"io"
	"net/http"
	"net/url"
)

// Backend mirrors engine.Backend structurally without importing the
// engine package.
type Backend interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte) error
}

// CachePath is the peer-to-peer cache fetch endpoint. The handler (in
// internal/server) reads the node's own store directly — it never goes
// through a RemoteBackend, so fetches cannot recurse.
const CachePath = "/internal/v1/cache"

// fingerprintHexLen is the length of ir.Fingerprint.String(): a sha256
// in hex.
const fingerprintHexLen = 64

// routableKey extracts the fingerprint prefix of an engine cache key
// ("<64 hex>|passes=..."). Any other key shape reports false and stays
// local.
func routableKey(key string) (fp string, ok bool) {
	if len(key) <= fingerprintHexLen || key[fingerprintHexLen] != '|' {
		return "", false
	}
	for i := 0; i < fingerprintHexLen; i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return key[:fingerprintHexLen], true
}

// remoteBackend is the Backend the server hands its engines in cluster
// mode.
type remoteBackend struct {
	node  *Node
	local Backend
}

// RemoteBackend wraps the node's local store with the remote fetch tier.
func (n *Node) RemoteBackend(local Backend) Backend {
	return &remoteBackend{node: n, local: local}
}

func (b *remoteBackend) Get(key string) ([]byte, bool) {
	if data, ok := b.local.Get(key); ok {
		return data, true
	}
	fp, ok := routableKey(key)
	if !ok {
		return nil, false
	}
	// Route by fingerprint, not the full key, so cache fetches agree with
	// job routing about who owns the graph.
	route := b.node.Route(fp)
	if route.Local || len(route.Peers) == 0 {
		return nil, false
	}
	data, ok := b.node.fetchEntry(route.Peers[0], key)
	if !ok {
		b.node.met.remoteCacheMisses.Add(1)
		return nil, false
	}
	b.node.met.remoteCacheHits.Add(1)
	return data, true
}

func (b *remoteBackend) Put(key string, data []byte) error {
	return b.local.Put(key, data)
}

// fetchEntry GETs one cache entry from a peer. Any failure is a miss.
func (n *Node) fetchEntry(peer, key string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
	defer cancel()
	u := peer + CachePath + "?key=" + url.QueryEscape(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false
	}
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return data, true
}
