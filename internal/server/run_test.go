package server

// Tests of the execution service: POST /v1/run across dialects, typed
// 422s for trapped and truncated executions, the step-budget clamp, and
// the corpus-wide acceptance property — identical traces with
// ExprEvals(after) <= ExprEvals(before) on every corpus program.

import (
	"net/http"
	"strings"
	"testing"

	"assignmentmotion/internal/corpus"
)

// containsLine reports whether one exact line occurs in a text body.
func containsLine(body, line string) bool {
	for _, l := range strings.Split(body, "\n") {
		if l == line {
			return true
		}
	}
	return false
}

func TestRunBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var resp RunResponse
	hr := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Name: "basic",
		Program: `graph g {
			entry s
			exit e
			block s { x := a + b y := a + b goto e }
			block e { out(x, y) }
		}`,
		Inputs: map[string]int64{"a": 2, "b": 3},
	}, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %+v", hr.StatusCode, resp)
	}
	if resp.Outcome != "ran" || !resp.TraceMatch {
		t.Fatalf("outcome = %q traceMatch = %v", resp.Outcome, resp.TraceMatch)
	}
	if len(resp.Trace) != 2 || resp.Trace[0] != 5 || resp.Trace[1] != 5 {
		t.Fatalf("trace = %v, want [5 5]", resp.Trace)
	}
	// The optimizer must eliminate the recomputation of a+b.
	if resp.Before.ExprEvals != 2 || resp.After.ExprEvals != 1 {
		t.Fatalf("exprEvals before/after = %d/%d, want 2/1", resp.Before.ExprEvals, resp.After.ExprEvals)
	}
	if resp.Delta.ExprEvals != -1 {
		t.Fatalf("delta.exprEvals = %d, want -1", resp.Delta.ExprEvals)
	}
	if resp.Env["x"] != 5 || resp.Env["y"] != 5 {
		t.Fatalf("env = %v", resp.Env)
	}
	if resp.Optimized == "" || resp.Fingerprint == "" {
		t.Fatalf("missing optimized program or fingerprint: %+v", resp)
	}
}

func TestRunFunDialect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var resp RunResponse
	hr := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Dialect: "fun",
		Program: `
			fn square(x: int): int { return x * x }
			prog p {
				let a = square(n)
				let b = square(n)
				out(a + b)
			}`,
		Inputs: map[string]int64{"n": 4},
	}, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %+v", hr.StatusCode, resp)
	}
	if len(resp.Trace) != 1 || resp.Trace[0] != 32 {
		t.Fatalf("trace = %v, want [32]", resp.Trace)
	}
	if !resp.TraceMatch {
		t.Fatal("traces diverged")
	}
	if resp.After.ExprEvals > resp.Before.ExprEvals {
		t.Fatalf("exprEvals regressed: before %d after %d", resp.Before.ExprEvals, resp.After.ExprEvals)
	}
}

// TestRunProgDialect: "prog" is another spelling of "fun". A do body whose
// if/else leaves the loop on both branches runs; the separate prog parser
// this replaced answered 400 ("block unreachable from entry"). Both
// spellings compile the source to the same graph.
func TestRunProgDialect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const src = `prog p { do { x := x + 1 if x > 3 { break } else { continue } } while x < 9 out(x) }`
	var resp RunResponse
	hr := postJSON(t, ts.URL+"/v1/run", RunRequest{Dialect: "prog", Program: src}, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %+v", hr.StatusCode, resp)
	}
	if !resp.TraceMatch || len(resp.Trace) != 1 || resp.Trace[0] != 4 {
		t.Fatalf("traceMatch = %v trace = %v, want [4]", resp.TraceMatch, resp.Trace)
	}
	if resp.After.ExprEvals > resp.Before.ExprEvals {
		t.Fatalf("exprEvals regressed: before %d after %d", resp.Before.ExprEvals, resp.After.ExprEvals)
	}
	var fun RunResponse
	postJSON(t, ts.URL+"/v1/run", RunRequest{Dialect: "fun", Program: src}, &fun)
	if fun.Fingerprint == "" || fun.Fingerprint != resp.Fingerprint {
		t.Fatalf("fun fingerprint %q, prog %q", fun.Fingerprint, resp.Fingerprint)
	}
}

func TestRunFunTypeErrorIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var eb errorBody
	hr := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Dialect: "fun",
		Program: `prog p { let a = true + 1 }`,
	}, &eb)
	if hr.StatusCode != http.StatusBadRequest || eb.ErrorKind != "parse-error" {
		t.Fatalf("status = %d kind = %q, want 400 parse-error", hr.StatusCode, eb.ErrorKind)
	}
}

func TestRunTrappedIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var resp RunResponse
	hr := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Program: `graph g {
			entry s
			exit e
			block s { q := a / b goto e }
			block e { out(q) }
		}`,
		Inputs:      map[string]int64{"a": 7, "b": 0},
		TrapDivZero: true,
	}, &resp)
	if hr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", hr.StatusCode)
	}
	if resp.Outcome != "trapped" || resp.ErrorKind != "trapped" {
		t.Fatalf("outcome = %q kind = %q, want trapped", resp.Outcome, resp.ErrorKind)
	}
	// Without the trap the same division yields 0 and the run succeeds.
	var ok RunResponse
	hr = postJSON(t, ts.URL+"/v1/run", RunRequest{
		Program: `graph g {
			entry s
			exit e
			block s { q := a / b goto e }
			block e { out(q) }
		}`,
		Inputs: map[string]int64{"a": 7, "b": 0},
	}, &ok)
	if hr.StatusCode != http.StatusOK || len(ok.Trace) != 1 || ok.Trace[0] != 0 {
		t.Fatalf("untrapped run: status %d trace %v", hr.StatusCode, ok.Trace)
	}
}

func TestRunTruncatedIs422AndClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxRunSteps: 50})
	var resp RunResponse
	hr := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Dialect: "fun",
		Program: `
			prog p {
				let i = 0
				while i < 1000000 { i := i + 1 }
				out(i)
			}`,
		MaxSteps: 10_000_000, // asks far beyond the server cap
	}, &resp)
	if hr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", hr.StatusCode)
	}
	if resp.Outcome != "truncated" || resp.ErrorKind != "truncated" {
		t.Fatalf("outcome = %q kind = %q, want truncated", resp.Outcome, resp.ErrorKind)
	}
	if resp.MaxSteps != 50 {
		t.Fatalf("maxSteps = %d, want the 50-step server clamp", resp.MaxSteps)
	}
}

func TestRunRejectsUnknownDialect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var eb errorBody
	hr := postJSON(t, ts.URL+"/v1/run", RunRequest{Dialect: "cobol", Program: "x"}, &eb)
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", hr.StatusCode)
	}
}

func TestRunDrainingIs503(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	srv.Drain()
	var eb errorBody
	hr := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: "graph g { entry s exit s block s { out(1) } }"}, &eb)
	if hr.StatusCode != http.StatusServiceUnavailable || eb.ErrorKind != "draining" {
		t.Fatalf("status = %d kind = %q, want 503 draining", hr.StatusCode, eb.ErrorKind)
	}
}

// TestRunCorpusAcceptance is the PR's acceptance property over the whole
// golden corpus: every program runs with an identical before/after trace
// and never regresses the paper's primary cost measure.
func TestRunCorpusAcceptance(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	for _, name := range corpus.Names() {
		var resp RunResponse
		hr := postJSON(t, ts.URL+"/v1/run", RunRequest{
			Name:    name,
			Program: corpus.Source(name),
		}, &resp)
		if hr.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d (%s: %s)", name, hr.StatusCode, resp.ErrorKind, resp.Error)
			continue
		}
		if !resp.TraceMatch {
			t.Errorf("%s: traces diverged", name)
		}
		if resp.After.ExprEvals > resp.Before.ExprEvals {
			t.Errorf("%s: exprEvals regressed %d -> %d", name, resp.Before.ExprEvals, resp.After.ExprEvals)
		}
	}
	// The typed front-end corpus must satisfy the same property through
	// the "fun" dialect.
	for _, name := range corpus.FunNames() {
		var resp RunResponse
		hr := postJSON(t, ts.URL+"/v1/run", RunRequest{
			Name:    name,
			Dialect: "fun",
			Program: corpus.FunSource(name),
		}, &resp)
		if hr.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d (%s: %s)", name, hr.StatusCode, resp.ErrorKind, resp.Error)
			continue
		}
		if !resp.TraceMatch {
			t.Errorf("%s: traces diverged", name)
		}
		if resp.After.ExprEvals > resp.Before.ExprEvals {
			t.Errorf("%s: exprEvals regressed %d -> %d", name, resp.Before.ExprEvals, resp.After.ExprEvals)
		}
	}
}

func TestRunMetricsLabeled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var resp RunResponse
	postJSON(t, ts.URL+"/v1/run", RunRequest{
		Program: "graph g { entry s exit s block s { out(1) } }",
	}, &resp)
	_, body := getBody(t, ts.URL+"/metrics")
	if !containsLine(body, `amoptd_requests_total{endpoint="run",outcome="ran"} 1`) {
		t.Fatalf("metrics missing run counter:\n%s", body)
	}
}
