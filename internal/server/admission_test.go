package server

// Load-shedding tests: with the worker budget saturated and the wait
// queue full, the daemon answers 429 + Retry-After instead of queueing
// unboundedly — and once the pressure lifts, the admitted requests
// finish and no goroutines are left behind.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
)

// gateInject wraps every pass so its body blocks until gate is closed,
// holding worker slots open for as long as the test wants.
func gateInject(gate chan struct{}) func(int, pass.Pass) pass.Pass {
	return func(index int, p pass.Pass) pass.Pass {
		orig := p.RunWith
		p.RunWith = func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			<-gate
			return orig(g, s)
		}
		return p
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdmissionShedsWith429(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Inject: gateInject(gate)})

	type answer struct {
		status int
		resp   OptimizeResponse
	}
	fire := func(i int) chan answer {
		ch := make(chan answer, 1)
		go func() {
			var resp OptimizeResponse
			hr := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Program: distinctProgram(i)}, &resp)
			ch <- answer{hr.StatusCode, resp}
		}()
		return ch
	}

	// Saturate: one request holds the only worker slot, one fills the
	// queue. Wait for each to actually arrive before sending the next so
	// the occupancy is deterministic.
	first := fire(0)
	waitFor(t, "first request in flight", func() bool { return srv.met.inflight.Load() == 1 })
	second := fire(1)
	waitFor(t, "second request queued", func() bool { return srv.adm.queued() == 1 })

	// Everything beyond (slot + queue) must shed, immediately.
	for i := 2; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
			postBody(t, OptimizeRequest{Program: distinctProgram(i)}))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("request %d: status = %d; want 429", i, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("request %d: 429 without Retry-After", i)
		}
		resp.Body.Close()
	}

	// Batches see the same pressure up front, before any bytes stream.
	resp, err := http.Post(ts.URL+"/v1/optimize/batch", "application/json",
		postBody(t, BatchRequest{Programs: []BatchProgram{{Program: distinctProgram(9)}}}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("batch under pressure: status = %d; want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// Lift the gate: the two admitted requests complete normally.
	close(gate)
	for i, ch := range []chan answer{first, second} {
		a := <-ch
		if a.status != http.StatusOK || a.resp.Outcome != "optimized" {
			t.Errorf("admitted request %d: status=%d outcome=%q", i, a.status, a.resp.Outcome)
		}
	}

	// The shed counter saw every rejection.
	if got := srv.met.shed.Load(); got != 4 {
		t.Errorf("shed counter = %d; want 4", got)
	}
}

// TestAdmissionLeavesNoGoroutines: after a shed-heavy burst fully
// drains, the goroutine count returns to its pre-burst level.
func TestAdmissionLeavesNoGoroutines(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Inject: gateInject(gate)})

	before := runtime.NumGoroutine()
	done := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
				postBody(t, OptimizeRequest{Program: distinctProgram(100 + i)}))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	waitFor(t, "burst to saturate", func() bool { return srv.met.inflight.Load() == 1 })
	close(gate)
	for i := 0; i < 8; i++ {
		<-done
	}

	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

// TestBatchKeepsOneJobQueued: a draining batch holds one place in the
// wait queue however many jobs it has left, so a single request that
// arrives meanwhile queues and is answered instead of being shed, and
// the batch still streams every line.
func TestBatchKeepsOneJobQueued(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Inject: gateInject(gate)})

	programs := make([]BatchProgram, 10)
	for i := range programs {
		programs[i] = BatchProgram{Program: distinctProgram(200 + i)}
	}
	batchBody, singleBody := postBody(t, BatchRequest{Programs: programs}), postBody(t, OptimizeRequest{Program: distinctProgram(0)})
	post := func(path string, body io.Reader, answer chan<- *http.Response) {
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
		}
		answer <- resp
	}
	batch, single := make(chan *http.Response, 1), make(chan *http.Response, 1)
	go post("/v1/optimize/batch", batchBody, batch)
	waitFor(t, "a batch job in the slot and another queued", func() bool {
		return srv.met.inflight.Load() == 1 && srv.adm.queued() >= 1
	})
	go post("/v1/optimize", singleBody, single)
	waitFor(t, "the single request queued or answered", func() bool {
		return srv.adm.queued() >= 2 || len(single) == 1
	})
	if got := srv.adm.queued(); got > 2 {
		t.Errorf("queued = %d with one batch and one single waiting; want 2", got)
	}
	close(gate)

	sresp, bresp := <-single, <-batch
	if sresp == nil || bresp == nil {
		t.FailNow()
	}
	defer bresp.Body.Close()
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Errorf("single request during a batch: status %d; want 200", sresp.StatusCode)
	}
	var outcomes []string
	var summary *BatchSummary
	for sc := bufio.NewScanner(bresp.Body); sc.Scan(); {
		var line struct {
			Outcome string
			Summary *BatchSummary
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Bytes(), err)
		}
		if line.Summary != nil {
			summary = line.Summary
		} else {
			outcomes = append(outcomes, line.Outcome)
		}
	}
	if len(outcomes) != len(programs) || summary == nil || summary.Optimized != len(programs) {
		t.Errorf("batch streamed %v and summary %+v; want %d optimized lines and their summary", outcomes, summary, len(programs))
	}
}
