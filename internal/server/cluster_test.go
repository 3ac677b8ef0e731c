package server

// Cluster integration tests: an in-process multi-daemon cluster over
// httptest listeners. The degraded-cluster chaos tests run a worker kill
// mid-batch (CloseClientConnections + Close is the in-process kill -9)
// and assert the ISSUE's invariants: every job completes exactly once,
// the output is byte-identical to a single-node run, and no store is
// poisoned. The distributed single-flight test pins the "exactly one
// optimization cluster-wide" property to the cache-miss metric.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cluster"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

// newTestCluster boots n worker daemons that each know the other n-1 as
// peers. mutate (optional) adjusts one node's Config before it boots.
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) ([]*Server, []*httptest.Server, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*Server, n)
	tss := make([]*httptest.Server, n)
	for i := range srvs {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			Workers:    4,
			QueueDepth: 64,
			Cluster: &cluster.Config{
				Self:          urls[i],
				Peers:         peers,
				ProbeInterval: 20 * time.Millisecond,
				DownBackoff:   20 * time.Millisecond,
				// Generous hedge threshold: these tests assert exact
				// compute counts, which hedging's deliberate duplicate
				// work would break.
				HedgeAfter:   2 * time.Second,
				RetryBackoff: 5 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("New node %d: %v", i, err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		srvs[i], tss[i] = srv, ts
		t.Cleanup(func() {
			ts.Close() // idempotent; chaos tests kill some nodes early
			srv.Close()
		})
	}
	return srvs, tss, urls
}

// TestClusterDistributedSingleFlight: N concurrent requests for ONE
// fingerprint, spread across every node of the cluster, must run exactly
// one optimization cluster-wide — consistent-hash routing sends them all
// to the owner, whose engine-level single-flight collapses them.
func TestClusterDistributedSingleFlight(t *testing.T) {
	srvs, tss, _ := newTestCluster(t, 3, nil)
	prog := distinctProgram(1001)

	const N = 24
	var wg sync.WaitGroup
	errs := make(chan string, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(OptimizeRequest{Program: prog})
			resp, err := http.Post(tss[i%len(tss)].URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var out OptimizeResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- "decode: " + err.Error()
				return
			}
			if resp.StatusCode != http.StatusOK || out.Outcome != "optimized" {
				errs <- fmt.Sprintf("request %d: status=%d outcome=%q error=%q", i, resp.StatusCode, out.Outcome, out.Error)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	var misses int64
	for _, s := range srvs {
		misses += s.met.cacheMisses.Load()
	}
	if misses != 1 {
		t.Fatalf("cluster-wide cache misses = %d; want exactly 1 optimization for 1 fingerprint", misses)
	}
}

// TestClusterRemoteCacheTier: a node computing a graph it does not own
// consults the owner's persistent store before running any pass, and a
// remote hit is never written through to the local store.
func TestClusterRemoteCacheTier(t *testing.T) {
	srvs, tss, urls := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.CacheDir = t.TempDir()
	})
	prog := distinctProgram(2002)
	g, err := parseProgram("", "", prog)
	if err != nil {
		t.Fatal(err)
	}
	owner := 0
	if srvs[0].node.Owner(g.Fingerprint().String()) != urls[0] {
		owner = 1
	}
	other := 1 - owner

	// Seed the owner's store with the computed result.
	var seed OptimizeResponse
	if resp := postJSON(t, tss[owner].URL+"/v1/optimize", OptimizeRequest{Program: prog}, &seed); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed status %d", resp.StatusCode)
	}
	if srvs[owner].store.Len() != 1 {
		t.Fatalf("owner store entries = %d, want 1", srvs[owner].store.Len())
	}

	// Make the non-owner compute "locally" (the forwarded-request path,
	// which never re-forwards): its engine misses both local tiers and
	// must fetch the entry from the owner — a disk-tier hit with zero
	// passes run.
	req, err := http.NewRequest(http.MethodPost, tss[other].URL+"/v1/optimize", postBody(t, OptimizeRequest{Program: prog}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, "test-client")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit || out.CacheTier != "disk" {
		t.Fatalf("non-owner answer: cacheHit=%v tier=%q; want a disk-tier hit via the owner's store", out.CacheHit, out.CacheTier)
	}
	if out.Program != seed.Program {
		t.Fatal("remote-served program differs from the owner's result")
	}
	if srvs[other].store.Len() != 0 {
		t.Fatalf("remote hit was persisted locally: %d entries", srvs[other].store.Len())
	}
}

// slowAM returns an injector that delays the "am" pass, keeping jobs
// in flight long enough for a mid-batch kill to land on them.
func slowAM(d time.Duration) func(int, pass.Pass) pass.Pass {
	return func(_ int, p pass.Pass) pass.Pass {
		if p.Name == "am" {
			orig := p.RunWith
			p.RunWith = func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
				time.Sleep(d)
				return orig(g, s)
			}
		}
		return p
	}
}

// TestClusterKilledWorkerMidBatchRedistributes is the degraded-cluster
// chaos suite's core: a two-node cluster streams a batch through node A
// while node B (owner of roughly half the jobs) is killed mid-stream.
// Every job must complete exactly once, the stream must stay one
// well-formed NDJSON response, and the output must be byte-identical to
// a single-node run of the same batch.
func TestClusterKilledWorkerMidBatchRedistributes(t *testing.T) {
	const jobs = 40
	progs := make([]BatchProgram, jobs)
	for i := range progs {
		progs[i] = BatchProgram{Name: fmt.Sprintf("g%d", i), Program: distinctProgram(3000 + i)}
	}

	// Reference run: one plain daemon, no cluster, no injection.
	_, refTS := newTestServer(t, Config{})
	refResults, refSummary := postBatch(t, refTS.URL, BatchRequest{Programs: progs})
	if refSummary.Failed != 0 || len(refResults) != jobs {
		t.Fatalf("reference run: %d results, %d failed", len(refResults), refSummary.Failed)
	}
	want := make(map[int]OptimizeResponse, jobs)
	for _, r := range refResults {
		want[r.Index] = r
	}

	// Cluster run: node B computes slowly so the kill lands on its
	// in-flight jobs.
	srvs, tss, _ := newTestCluster(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Inject = slowAM(25 * time.Millisecond)
		}
	})

	body, err := json.Marshal(BatchRequest{Programs: progs, DeadlineMs: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tss[0].URL+"/v1/optimize/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	var results []OptimizeResponse
	var summary *BatchSummary
	killed := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var sum struct {
			Summary *BatchSummary `json:"summary"`
		}
		if err := json.Unmarshal(line, &sum); err == nil && sum.Summary != nil {
			summary = sum.Summary
			continue
		}
		var r OptimizeResponse
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		results = append(results, r)
		if !killed && len(results) >= 3 {
			// kill -9, in process form: every open connection dies
			// mid-flight and the listener stops accepting.
			tss[1].CloseClientConnections()
			tss[1].Close()
			killed = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke: %v", err)
	}
	if !killed {
		t.Fatal("batch finished before the kill landed")
	}
	if summary == nil {
		t.Fatal("stream has no summary line")
	}

	// Exactly once: every index appears one time, none lost, none doubled.
	seen := map[int]bool{}
	for _, r := range results {
		if seen[r.Index] {
			t.Fatalf("job %d answered twice", r.Index)
		}
		seen[r.Index] = true
	}
	if len(results) != jobs {
		t.Fatalf("%d results for %d jobs", len(results), jobs)
	}

	// Byte-identical to the single-node run, kill or no kill.
	for _, r := range results {
		ref := want[r.Index]
		if r.Outcome != ref.Outcome {
			t.Fatalf("job %d (%s): outcome %q, single-node run said %q (error: %s)", r.Index, r.Name, r.Outcome, ref.Outcome, r.Error)
		}
		if r.Program != ref.Program {
			t.Fatalf("job %d (%s): output differs from the single-node run:\n--- cluster\n%s--- single\n%s",
				r.Index, r.Name, r.Program, ref.Program)
		}
	}
	if summary.Failed != 0 || summary.Degraded != 0 {
		t.Fatalf("summary: %+v; want everything optimized", summary)
	}

	// The kill was observed: jobs re-enqueued away from the dead peer.
	if srvs[0].node.Metrics().RedistributedCount() == 0 {
		t.Fatal("no job was redistributed despite the mid-batch kill")
	}

	// No store was poisoned: node A runs memory-only here (store nil) and
	// the invariant for stores is covered by the degraded-cluster test
	// below; what must hold is that A's engine answered every redistributed
	// job itself — a second identical batch to A must not require B.
	results2, summary2 := postBatch(t, tss[0].URL, BatchRequest{Programs: progs})
	if len(results2) != jobs || summary2.Failed != 0 {
		t.Fatalf("replay on the surviving node: %d results, %d failed", len(results2), summary2.Failed)
	}
}

// TestClusterDegradedNeverCachedAnywhere: with every node's pipeline
// sabotaged (the injected "am" panic absorbed by OnError=skip), every
// response is degraded and NO node's persistent store gains an entry —
// the degraded-never-cached invariant holds across forwards.
func TestClusterDegradedNeverCachedAnywhere(t *testing.T) {
	boom := func(_ int, p pass.Pass) pass.Pass {
		if p.Name == "am" {
			p.RunWith = func(_ *ir.Graph, _ *analysis.Session) (pass.Stats, error) {
				panic("injected")
			}
		}
		return p
	}
	srvs, tss, _ := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.CacheDir = t.TempDir()
		cfg.Inject = boom
	})
	for i := 0; i < 10; i++ {
		var out OptimizeResponse
		resp := postJSON(t, tss[i%2].URL+"/v1/optimize",
			OptimizeRequest{Program: distinctProgram(4000 + i), OnError: "skip"}, &out)
		if resp.StatusCode != http.StatusOK || out.Outcome != "degraded" {
			t.Fatalf("request %d: status=%d outcome=%q", i, resp.StatusCode, out.Outcome)
		}
	}
	for i, s := range srvs {
		if n := s.store.Len(); n != 0 {
			t.Fatalf("node %d persisted %d degraded results", i, n)
		}
	}
}

// TestClusterTypedPeerErrors: with local fallback disabled, a dead
// cluster answers typed 503 peer-unavailable — and with fallback on
// (default), the same topology keeps serving by computing locally.
func TestClusterTypedPeerErrors(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	mk := func(noFallback bool) (*Server, *httptest.Server) {
		srv, err := New(Config{
			NoLocalFallback: noFallback,
			Cluster: &cluster.Config{
				Self:          "http://coordinator.test:1",
				Peers:         []string{dead.URL},
				Mode:          cluster.ModeCoordinator,
				ProbeInterval: 10 * time.Millisecond,
				DownBackoff:   10 * time.Millisecond,
				Retries:       -1,
				HedgeAfter:    -1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })

		// Wait for the prober to flip the optimistic initial state.
		deadline := time.Now().Add(2 * time.Second)
		for srv.node.HealthyPeerCount() > 0 {
			if time.Now().After(deadline) {
				t.Fatal("dead peer never marked down")
			}
			time.Sleep(5 * time.Millisecond)
		}
		return srv, ts
	}

	// Strict coordinator: typed 503, and /readyz says not-ready.
	_, strict := mk(true)
	var eb errorBody
	if resp := postJSON(t, strict.URL+"/v1/optimize", OptimizeRequest{Program: distinctProgram(5001)}, &eb); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("strict dead-cluster status = %d, want 503", resp.StatusCode)
	}
	if eb.ErrorKind != "peer-unavailable" {
		t.Fatalf("errorKind = %q, want peer-unavailable", eb.ErrorKind)
	}
	if resp, _ := getBody(t, strict.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("strict /readyz = %d, want 503", resp.StatusCode)
	}
	// Liveness is unchanged by peer health: the process itself is fine.
	if resp, _ := getBody(t, strict.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("strict /healthz = %d, want 200", resp.StatusCode)
	}

	// Fallback coordinator: degraded but fully available.
	_, lax := mk(false)
	var out OptimizeResponse
	if resp := postJSON(t, lax.URL+"/v1/optimize", OptimizeRequest{Program: distinctProgram(5002)}, &out); resp.StatusCode != http.StatusOK || out.Outcome != "optimized" {
		t.Fatalf("fallback dead-cluster: status=%d outcome=%q", resp.StatusCode, out.Outcome)
	}
	if resp, _ := getBody(t, lax.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback /readyz = %d, want 200 (it can serve everything itself)", resp.StatusCode)
	}
}

// TestReadyzSingleNode: outside cluster mode /readyz mirrors drain state,
// and /healthz keeps its PR 5 semantics (drain turns it 503 too).
func TestReadyzSingleNode(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if resp, body := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d (%s), want 200", resp.StatusCode, body)
	}
	srv.Drain()
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained /readyz = %d, want 503", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained /healthz = %d, want 503 (unchanged drain contract)", resp.StatusCode)
	}
}

// TestClusterMetricsExposed: /metrics on a cluster node carries the
// cluster section — peer-up gauge, ring shares, forward counters.
func TestClusterMetricsExposed(t *testing.T) {
	srvs, tss, urls := newTestCluster(t, 2, nil)
	// Drive one forwarded request so the forward counter has a row: pick
	// the first program the ring assigns to the peer.
	prog := ""
	for i := 6000; prog == "" && i < 7000; i++ {
		g, err := parseProgram("", "", distinctProgram(i))
		if err != nil {
			t.Fatal(err)
		}
		if srvs[0].node.Owner(g.Fingerprint().String()) == urls[1] {
			prog = distinctProgram(i)
		}
	}
	if prog == "" {
		t.Fatal("no program in 1000 is owned by the peer")
	}
	postJSON(t, tss[0].URL+"/v1/optimize", OptimizeRequest{Program: prog}, nil)
	_, body := getBody(t, tss[0].URL+"/metrics")
	for _, want := range []string{
		"amoptd_cluster_peer_up{",
		"amoptd_cluster_ring_members 2",
		"amoptd_cluster_ring_share{",
		"amoptd_cluster_retries_total",
		"amoptd_cluster_hedges_total",
		"amoptd_cluster_redistributed_total",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !bytes.Contains([]byte(body), []byte("amoptd_cluster_forwards_total{")) {
		t.Error("/metrics has no per-peer forward counter after a forwarded request")
	}
}
