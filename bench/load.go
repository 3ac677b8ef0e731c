package main

// The service under test and the closed-loop load driver.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"assignmentmotion/internal/server"
)

// service is one in-process amoptd.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	dir    string
	client *http.Client
}

// startService starts the server `amoptd -cache-dir <tmpdir>` builds with
// every other flag at its default.
func startService() (*service, error) {
	dir, err := os.MkdirTemp("", "amoptd-bench-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		CacheDir:        dir,
		DefaultDeadline: 10 * time.Second,
		MaxDeadline:     60 * time.Second,
		Incremental:     true,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ReadHeaderTimeout = 10 * time.Second
	ts.Start()
	return &service{
		srv: srv,
		ts:  ts,
		dir: dir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nClients,
			MaxIdleConnsPerHost: nClients,
			DisableCompression:  true,
		}},
	}, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// post sends one request and reads the whole response into buf.
func (s *service) post(r *request, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	resp, err := s.client.Post(s.ts.URL+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// prewarm sends the workload's set-up requests, each client taking the
// next unsent one.
func (s *service) prewarm(w *workload) error {
	errs := make([]error, nClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for k := int(next.Add(1) - 1); k < len(w.prewarm); k = int(next.Add(1) - 1) {
				status, err := s.post(&w.reqs[w.prewarm[k]], &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err != nil {
					errs[c] = fmt.Errorf("set-up request %d: %w", w.prewarm[k], err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sample is one timed request.
type sample struct {
	req    int32 // index into workload.reqs
	body   int32 // index into bodies.list; -1 when no response arrived
	status int32
	sent   time.Duration // since the closed loop started
	lat    time.Duration
}

// bodies interns response bodies. Repeated requests get responses that
// differ only in timing and cache-provenance members, so bodies are keyed
// with those top-level members removed and each distinct response is kept
// once, as first received.
type bodies struct {
	mu   sync.Mutex
	ids  map[string]int32
	list [][]byte
}

// volatile are the top-level response members that differ between
// otherwise identical answers, as writeJSON indents them.
var volatile = [][]byte{
	[]byte(`  "wall": `),
	[]byte(`  "cacheHit": `),
	[]byte(`  "cacheTier": `),
	[]byte(`  "regionsTotal": `),
	[]byte(`  "regionsReused": `),
	[]byte(`  "regionsRecomputed": `),
}

func (b *bodies) intern(body []byte, scratch *[]byte) int32 {
	key := (*scratch)[:0]
	for rest := body; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line = rest[:i+1]
		}
		rest = rest[len(line):]
		keep := true
		for _, v := range volatile {
			if bytes.HasPrefix(line, v) {
				keep = false
				break
			}
		}
		if keep {
			key = append(key, line...)
		}
	}
	*scratch = key
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ids == nil {
		b.ids = map[string]int32{}
	}
	id, ok := b.ids[string(key)]
	if !ok {
		id = int32(len(b.list))
		b.ids[string(key)] = id
		b.list = append(b.list, bytes.Clone(body))
	}
	return id
}

// timedRun is what one closed-loop run measured.
type timedRun struct {
	samples []sample // every request, the warm-up's included
	bodies  *bodies
	warm    time.Duration // the warm-up: requests sent before it ended are not measured
	wall    time.Duration // from the warm-up's end to the last response
	allocs  uint64        // heap objects the whole process allocated over wall
}

// measured returns the requests sent after the warm-up.
func (r *timedRun) measured() []sample {
	var out []sample
	for _, s := range r.samples {
		if s.sent >= r.warm {
			out = append(out, s)
		}
	}
	return out
}

// heapAllocs reads the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// drive runs the closed loop: every client sends its next request only
// after the previous one completed, until its sequence, its limit
// (limit <= 0: none) or warm+d runs out. Requests sent in the first warm
// are a warm-up: checked but not measured.
func drive(s *service, w *workload, warm, d time.Duration, limit int) *timedRun {
	run := &timedRun{bodies: &bodies{}}
	per := make([][]sample, nClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(warm + d)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			var scratch []byte
			for k, ri := range w.clients[c] {
				if limit > 0 && k >= limit || time.Now().After(deadline) {
					return
				}
				t0 := time.Now()
				status, err := s.post(&w.reqs[ri], &buf)
				smp := sample{req: int32(ri), body: -1, status: int32(status), sent: t0.Sub(start), lat: time.Since(t0)}
				if err == nil {
					smp.body = run.bodies.intern(buf.Bytes(), &scratch)
				}
				per[c] = append(per[c], smp)
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-time.After(warm):
	case <-done:
	}
	allocs0 := heapAllocs()
	measuring := time.Now()
	<-done
	run.warm = measuring.Sub(start)
	run.wall = time.Since(measuring)
	run.allocs = heapAllocs() - allocs0
	for _, p := range per {
		run.samples = append(run.samples, p...)
	}
	return run
}
