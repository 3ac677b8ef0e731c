package server

import (
	"net/http"
	"testing"

	"assignmentmotion/internal/corpus"
)

// optimizeUnder posts the first fg corpus program to /v1/optimize under
// budget (nil: the default pipeline) and fails the test unless it is
// served.
func optimizeUnder(t *testing.T, url string, budget *BudgetSpec) OptimizeResponse {
	t.Helper()
	var resp OptimizeResponse
	req := OptimizeRequest{Program: corpus.Source(corpus.Names()[0]), Budget: budget}
	if hr := postJSON(t, url+"/v1/optimize", req, &resp); hr.StatusCode != http.StatusOK {
		t.Fatalf("budget %+v: status %d (%s: %s)", budget, hr.StatusCode, resp.ErrorKind, resp.Error)
	}
	return resp
}

// TestOneTierServesEveryBudget: every pipeline configuration shares the
// daemon's one memory tier, so a client that sends one program under 200
// budgets does not wipe the default pipeline's warm entry. The repeat of
// the default request is a memory hit, memory-only and with a cache
// directory alike.
func TestOneTierServesEveryBudget(t *testing.T) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{}
			if mode == "disk" {
				cfg.CacheDir = t.TempDir()
			}
			_, ts := newTestServer(t, cfg)
			if first := optimizeUnder(t, ts.URL, nil); first.CacheHit {
				t.Fatalf("first request: cacheHit with tier %q; want a computation", first.CacheTier)
			}
			for i := 0; i < 200; i++ {
				if resp := optimizeUnder(t, ts.URL, &BudgetSpec{MaxAMIterations: 1000 + i}); resp.CacheHit {
					t.Fatalf("budget %d: cacheHit with tier %q; want a computation under its own key", 1000+i, resp.CacheTier)
				}
			}
			if again := optimizeUnder(t, ts.URL, nil); !again.CacheHit || again.CacheTier != "memory" {
				t.Errorf("default pipeline after 200 budgets: cacheHit=%v tier=%q; want a memory hit", again.CacheHit, again.CacheTier)
			}
		})
	}
}

// TestCacheSizeBoundsTheWholeDaemon: Config.CacheSize bounds the one
// memory tier, not one tier per configuration. With room for two
// entries, the same program under two other budgets evicts the default
// pipeline's entry, and the default request computes again.
func TestCacheSizeBoundsTheWholeDaemon(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 2})
	optimizeUnder(t, ts.URL, nil)
	optimizeUnder(t, ts.URL, &BudgetSpec{MaxAMIterations: 1000})
	optimizeUnder(t, ts.URL, &BudgetSpec{MaxAMIterations: 1001})
	if last := optimizeUnder(t, ts.URL, nil); last.CacheHit {
		t.Errorf("default pipeline after two other budgets filled a 2-entry tier: served from tier %q; want a computation", last.CacheTier)
	}
}

// TestBudgetRefusals: a budget the engine cannot honour is refused with
// 400 bad-request on every endpoint, before any work: a negative cap, or
// a wall cap whose nanoseconds overflow a time.Duration. The largest wall
// cap that fits is served.
func TestBudgetRefusals(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := distinctProgram(7)
	refused := []struct {
		name   string
		budget BudgetSpec
	}{
		{"wall-585-years", BudgetSpec{MaxPassWallMs: 18446744073710}},
		{"wall-past-duration", BudgetSpec{MaxPassWallMs: maxPassWallMs + 1}},
		{"negative-wall", BudgetSpec{MaxPassWallMs: -5}},
		{"negative-visits", BudgetSpec{MaxSolverVisits: -1}},
		{"negative-iterations", BudgetSpec{MaxAMIterations: -1}},
	}
	endpoints := []struct {
		name string
		post func(b *BudgetSpec, out any) *http.Response
	}{
		{"optimize", func(b *BudgetSpec, out any) *http.Response {
			return postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Program: src, Budget: b}, out)
		}},
		{"run", func(b *BudgetSpec, out any) *http.Response {
			return postJSON(t, ts.URL+"/v1/run", RunRequest{Program: src, Budget: b}, out)
		}},
		{"batch", func(b *BudgetSpec, out any) *http.Response {
			return postJSON(t, ts.URL+"/v1/optimize/batch", BatchRequest{Programs: []BatchProgram{{Program: src}}, Budget: b}, out)
		}},
	}
	for _, ep := range endpoints {
		for _, c := range refused {
			t.Run(ep.name+"/"+c.name, func(t *testing.T) {
				var eb errorBody
				hr := ep.post(&c.budget, &eb)
				if hr.StatusCode != http.StatusBadRequest || eb.ErrorKind != "bad-request" {
					t.Errorf("status %d errorKind %q (%s); want 400 bad-request", hr.StatusCode, eb.ErrorKind, eb.Error)
				}
			})
		}
	}
	var resp OptimizeResponse
	if hr := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Program: src, Budget: &BudgetSpec{MaxPassWallMs: maxPassWallMs}}, &resp); hr.StatusCode != http.StatusOK {
		t.Errorf("largest wall cap: status %d (%s: %s); want 200", hr.StatusCode, resp.ErrorKind, resp.Error)
	}
}
