package server

import (
	"net/http"
	"testing"

	"assignmentmotion/internal/parse"
)

const nameTestProgram = `graph g {
  entry s
  exit e
  block s { x := a + b y := a + b goto e }
  block e { out(x, y) }
}`

// TestRequestNameMustPrintBack: a request name replaces the graph name and
// is printed verbatim into "graph <name> {", so the three endpoints reject
// every name the .fg grammar cannot read back, and every name they accept
// comes back in a program that re-parses under that name.
func TestRequestNameMustPrintBack(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	rejected := []string{"my prog", "a{b", "block", "Graph", "entry", "9lives", "a-b", "x\n", " x", "é"}
	for _, name := range rejected {
		var opt errorBody
		if hr := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Name: name, Program: nameTestProgram}, &opt); hr.StatusCode != http.StatusBadRequest || opt.ErrorKind != "bad-request" {
			t.Errorf("optimize %q: status %d kind %q, want 400 bad-request", name, hr.StatusCode, opt.ErrorKind)
		}
		var run errorBody
		if hr := postJSON(t, ts.URL+"/v1/run", RunRequest{Name: name, Program: nameTestProgram}, &run); hr.StatusCode != http.StatusBadRequest || run.ErrorKind != "bad-request" {
			t.Errorf("run %q: status %d kind %q, want 400 bad-request", name, hr.StatusCode, run.ErrorKind)
		}
		var batch errorBody
		req := BatchRequest{Programs: []BatchProgram{{Name: "ok", Program: nameTestProgram}, {Name: name, Program: nameTestProgram}}}
		if hr := postJSON(t, ts.URL+"/v1/optimize/batch", req, &batch); hr.StatusCode != http.StatusBadRequest || batch.ErrorKind != "bad-request" {
			t.Errorf("batch with %q: status %d kind %q, want 400 bad-request", name, hr.StatusCode, batch.ErrorKind)
		}
	}

	reparse := func(endpoint, name, program string) {
		t.Helper()
		g, err := parse.ParseWith(program, parse.Options{AllowTemps: true})
		if err != nil {
			t.Errorf("%s %q: served program does not parse: %v\n%s", endpoint, name, err, program)
			return
		}
		if g.Name != name {
			t.Errorf("%s %q: served program is named %q", endpoint, name, g.Name)
		}
	}
	accepted := []string{"x", "_", "my_prog", "Prog2", "h1", "outer", "_9"}
	for _, name := range accepted {
		var opt OptimizeResponse
		if hr := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Name: name, Program: nameTestProgram}, &opt); hr.StatusCode != http.StatusOK {
			t.Errorf("optimize %q: status %d (%s)", name, hr.StatusCode, opt.Error)
		} else {
			reparse("optimize", name, opt.Program)
		}
		var run RunResponse
		if hr := postJSON(t, ts.URL+"/v1/run", RunRequest{Name: name, Program: nameTestProgram}, &run); hr.StatusCode != http.StatusOK {
			t.Errorf("run %q: status %d (%s)", name, hr.StatusCode, run.Error)
		} else {
			reparse("run", name, run.Optimized)
		}
		results, _ := postBatch(t, ts.URL, BatchRequest{Programs: []BatchProgram{{Name: name, Program: nameTestProgram}}})
		for _, r := range results {
			reparse("batch", name, r.Program)
		}
	}
}
