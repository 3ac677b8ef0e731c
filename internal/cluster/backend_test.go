package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// memStore is a minimal local Backend for tests.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *memStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), data...)
	return nil
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

const testFP = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func TestRoutableKey(t *testing.T) {
	cases := []struct {
		key string
		ok  bool
	}{
		{testFP + "|passes=am|recovery=off|budget=1,2,3", true},
		{testFP, false},                           // no config suffix
		{testFP + "x", false},                     // no separator at 64
		{"incr|v3|passes=am|" + testFP, false},    // legacy manifest key
		{"incr-heads|v3|passes=am", false},        // legacy heads key
		{strings.ToUpper(testFP) + "|cfg", false}, // not lowercase hex
		{testFP[:63] + "||cfg", false},            // short fingerprint
		{"", false},
	}
	for _, c := range cases {
		fp, ok := routableKey(c.key)
		if ok != c.ok {
			t.Errorf("routableKey(%q) ok = %v, want %v", c.key, ok, c.ok)
		}
		if ok && fp != testFP {
			t.Errorf("routableKey(%q) fp = %q", c.key, fp)
		}
	}
}

// A remote-backend Get consults the key's owner on local miss, and a
// Put never leaves the node.
func TestRemoteBackendFetchesFromOwner(t *testing.T) {
	peerStore := newMemStore()
	key := testFP + "|passes=am|recovery=off|budget=0,0,0"
	peerStore.Put(key, []byte(`{"entry":1}`))

	var fetches int
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != CachePath {
			http.NotFound(w, r)
			return
		}
		fetches++
		data, ok := peerStore.Get(r.URL.Query().Get("key"))
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.Write(data)
	}))
	defer peer.Close()

	// Coordinator mode: every fingerprint's owner is the single peer, so
	// the route is never local and the fetch path always exercises.
	n := newTestNode(t, Config{
		Self:  "http://self.test:1",
		Peers: []string{peer.URL},
		Mode:  ModeCoordinator,
	})
	local := newMemStore()
	b := n.RemoteBackend(local)

	// Remote hit: served by the peer, NOT copied into the local store.
	data, ok := b.Get(key)
	if !ok || string(data) != `{"entry":1}` {
		t.Fatalf("Get = %q, %v", data, ok)
	}
	if local.len() != 0 {
		t.Fatal("remote hit was written through to the local store")
	}
	if n.Metrics().remoteCacheHits.Load() != 1 {
		t.Fatalf("remote hits = %d, want 1", n.Metrics().remoteCacheHits.Load())
	}

	// Remote miss.
	missKey := strings.Replace(key, "0123", "ffff", 1)
	if _, ok := b.Get(missKey); ok {
		t.Fatal("miss reported as hit")
	}
	if n.Metrics().remoteCacheMisses.Load() != 1 {
		t.Fatalf("remote misses = %d, want 1", n.Metrics().remoteCacheMisses.Load())
	}

	// Local hit short-circuits the peer.
	before := fetches
	local.Put(key, []byte(`{"local":1}`))
	if data, ok := b.Get(key); !ok || string(data) != `{"local":1}` {
		t.Fatalf("local Get = %q, %v", data, ok)
	}
	if fetches != before {
		t.Fatal("local hit still fetched from the peer")
	}

	// Keys of another shape (a legacy manifest) stay local even on miss.
	before = fetches
	if _, ok := b.Get("incr|v3|passes=am|" + testFP); ok {
		t.Fatal("incr key hit out of nowhere")
	}
	if fetches != before {
		t.Fatal("incr key was routed to a peer")
	}

	// Put is local-only.
	if err := b.Put(key+"-put", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, ok := local.Get(key + "-put"); !ok {
		t.Fatal("Put missed the local store")
	}
	if _, ok := peerStore.Get(key + "-put"); ok {
		t.Fatal("Put leaked to the peer store")
	}
}

// A dead owner degrades a remote fetch to a plain miss — never an error.
func TestRemoteBackendDeadPeerIsMiss(t *testing.T) {
	peer := httptest.NewServer(http.NotFoundHandler())
	peer.Close()
	n := newTestNode(t, Config{
		Self:  "http://self.test:1",
		Peers: []string{peer.URL},
		Mode:  ModeCoordinator,
	})
	b := n.RemoteBackend(newMemStore())
	if _, ok := b.Get(testFP + "|cfg"); ok {
		t.Fatal("dead peer produced a hit")
	}
	if n.Metrics().remoteCacheMisses.Load() != 1 {
		t.Fatal("dead-peer fetch not counted as miss")
	}
}

// When the key's route says "local", the backend must not call any peer
// (the owner consults itself via its ordinary store tiers).
func TestRemoteBackendLocalOwnerNoFetch(t *testing.T) {
	var fetched bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetched = true
		http.NotFound(w, r)
	}))
	defer peer.Close()
	n := newTestNode(t, Config{
		Self:  "http://self.test:1",
		Peers: []string{peer.URL},
	})
	n.MarkDown(peer.URL) // all remote candidates gone -> worker owns everything
	b := n.RemoteBackend(newMemStore())
	if _, ok := b.Get(testFP + "|cfg"); ok {
		t.Fatal("phantom hit")
	}
	if fetched {
		t.Fatal("locally-owned key was fetched from a peer")
	}
}
