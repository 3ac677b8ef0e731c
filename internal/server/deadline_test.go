package server

// Deadline tests: a single request's deadlineMs bounds the whole request
// from arrival. Waiting for a worker slot, a forward to the owning peer
// and a local fallback after a failed forward all spend the one budget,
// so no path answers much later than the caller asked for.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"assignmentmotion/internal/cluster"
)

// TestDeadlineCoversQueueWait: with the only worker slot held, a request
// with a 100ms deadline answers 504 canceled while it is still queued,
// instead of running once the slot frees up 500ms later.
func TestDeadlineCoversQueueWait(t *testing.T) {
	for _, tc := range []struct {
		endpoint, label string
		body            func(i int, deadlineMs int64) any
	}{
		{"/v1/optimize", "optimize", func(i int, ms int64) any {
			return OptimizeRequest{Program: distinctProgram(i), DeadlineMs: ms}
		}},
		{"/v1/run", "run", func(i int, ms int64) any {
			return RunRequest{Program: distinctProgram(i), DeadlineMs: ms}
		}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			gate := make(chan struct{})
			srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Inject: gateInject(gate)})

			first := make(chan int, 1)
			go func() {
				resp, err := http.Post(ts.URL+tc.endpoint, "application/json", postBody(t, tc.body(0, 0)))
				if err != nil {
					first <- 0
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				first <- resp.StatusCode
			}()
			waitFor(t, "first request in flight", func() bool { return srv.met.inflight.Load() == 1 })
			time.AfterFunc(500*time.Millisecond, func() { close(gate) })

			var eb errorBody
			hr := postJSON(t, ts.URL+tc.endpoint, tc.body(1, 100), &eb)
			select {
			case <-gate:
				t.Error("the queued request answered only after the slot was released")
			default:
			}
			if hr.StatusCode != http.StatusGatewayTimeout || eb.ErrorKind != "canceled" {
				t.Errorf("queued request: status %d kind %q; want 504 canceled", hr.StatusCode, eb.ErrorKind)
			}
			if code := <-first; code != http.StatusOK {
				t.Errorf("slot holder: status %d; want 200", code)
			}
			_, metrics := getBody(t, ts.URL+"/metrics")
			if want := `amoptd_requests_total{endpoint="` + tc.label + `",outcome="canceled"} 1`; !strings.Contains(metrics, want) {
				t.Errorf("/metrics lacks %s", want)
			}
		})
	}
}

// TestClusterFallbackSharesDeadline: a forward to an owner that hangs,
// and the local fallback after it, spend one deadline between them, so
// the request answers in about its deadlineMs rather than starting the
// budget again for the fallback. The owner is handed what was left of
// the budget, not the whole of it.
func TestClusterFallbackSharesDeadline(t *testing.T) {
	stop := make(chan struct{})
	forwarded := make(chan int64, 1)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return // 200: the prober keeps the owner up
		}
		var req OptimizeRequest
		if json.NewDecoder(r.Body).Decode(&req) == nil {
			select {
			case forwarded <- req.DeadlineMs:
			default:
			}
		}
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(func() {
		close(stop) // Close waits for handlers still blocked here
		hung.Close()
	})
	_, ts := newTestServer(t, Config{
		Inject: slowAM(300 * time.Millisecond), // a fallback given a fresh deadline spends all of it
		Cluster: &cluster.Config{
			Self:       "http://coordinator.test:1",
			Peers:      []string{hung.URL},
			Mode:       cluster.ModeCoordinator,
			HedgeAfter: -1,
			Retries:    -1,
		},
	})

	const deadline = 300 * time.Millisecond
	start := time.Now()
	var out OptimizeResponse
	hr := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Program: distinctProgram(7001), DeadlineMs: deadline.Milliseconds()}, &out)
	elapsed := time.Since(start)
	if hr.StatusCode != http.StatusGatewayTimeout || out.ErrorKind != "canceled" {
		t.Errorf("status %d kind %q; want 504 canceled", hr.StatusCode, out.ErrorKind)
	}
	if elapsed > deadline*3/2 {
		t.Errorf("answered after %v; want about one %v deadline", elapsed, deadline)
	}
	select {
	case ms := <-forwarded:
		if ms < 1 || ms >= deadline.Milliseconds() {
			t.Errorf("forwarded deadlineMs = %d; want the remaining budget, in [1, %d)", ms, deadline.Milliseconds())
		}
	default:
		t.Error("the owner never received the forward")
	}
}
