package server

// Integration test for the service contract: every program, sent through
// POST /v1/optimize in each serving mode — computed cold, answered by the
// memory tier, and answered by the disk tier of a fresh daemon on the same
// cache directory — must come back byte-identical to an uncached
// in-process engine.Optimize, carrying the same pass events. The daemon
// is a transport and its caches are memos, not different optimizers.

import (
	"context"
	"net/http"
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/printer"
)

// roundTripProgram is one request of the serving-mode test.
type roundTripProgram struct {
	name, dialect, src string
}

// roundTripPrograms lists the fg corpus in name order, which sends the
// base of every ep_* edit pair before its edits; the fn_* programs as
// dialect fun; and cfggen programs of sizes 12, 40 and 200 from both
// families (size 200 is dropped under -short).
func roundTripPrograms() []roundTripProgram {
	var progs []roundTripProgram
	for _, name := range corpus.Names() {
		progs = append(progs, roundTripProgram{name, "fg", corpus.Source(name)})
	}
	for _, name := range corpus.FunNames() {
		progs = append(progs, roundTripProgram{name, "fun", corpus.FunSource(name)})
	}
	sizes := []int{12, 40, 200}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, size := range sizes {
		cfg := cfggen.Config{Size: size}
		for _, g := range []*ir.Graph{cfggen.Structured(int64(size), cfg), cfggen.Unstructured(int64(size), cfg)} {
			// cfggen names its end blocks "entry" and "exit", which the
			// .fg parser rejects as keywords.
			for _, b := range g.Blocks {
				if b.Name == "entry" || b.Name == "exit" {
					b.Name = "g_" + b.Name
				}
			}
			progs = append(progs, roundTripProgram{g.Name, "fg", printer.String(g)})
		}
	}
	return progs
}

func TestCorpusRoundTripMatchesInProcess(t *testing.T) {
	progs := roundTripPrograms()
	send := func(url string, p roundTripProgram) OptimizeResponse {
		t.Helper()
		var resp OptimizeResponse
		hr := postJSON(t, url+"/v1/optimize", OptimizeRequest{Name: p.name, Program: p.src, Dialect: p.dialect}, &resp)
		if hr.StatusCode != http.StatusOK || resp.Outcome != "optimized" {
			t.Fatalf("%s: status = %d, outcome = %q (error: %s)", p.name, hr.StatusCode, resp.Outcome, resp.Error)
		}
		return resp
	}

	// First daemon: each program cold, then again from the memory tier.
	dir := t.TempDir()
	srvA, tsA := newTestServer(t, Config{CacheDir: dir})
	cold := make([]OptimizeResponse, len(progs))
	memory := make([]OptimizeResponse, len(progs))
	for i, p := range progs {
		cold[i] = send(tsA.URL, p)
		memory[i] = send(tsA.URL, p)
	}
	tsA.Close()
	if err := srvA.Close(); err != nil { // flushes the store index
		t.Fatal(err)
	}
	// Second daemon on the same directory: each program from disk.
	_, tsB := newTestServer(t, Config{CacheDir: dir})
	disk := make([]OptimizeResponse, len(progs))
	for i, p := range progs {
		disk[i] = send(tsB.URL, p)
	}

	// The reference engine runs one job at a time, as `amopt -parallel 1`
	// does; the solver work it reports must not depend on that choice.
	uncached := engine.New(engine.Options{CacheSize: -1, Parallelism: 1})
	for i, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			g, err := parseProgram(p.dialect, p.name, p.src)
			if err != nil {
				t.Fatal(err)
			}
			ref := uncached.Optimize(context.Background(), g)
			if ref.Err != nil {
				t.Fatal(ref.Err)
			}
			want := printer.String(ref.Graph)
			for _, m := range []struct {
				tier string // "" = computed
				resp OptimizeResponse
			}{{"", cold[i]}, {"memory", memory[i]}, {"disk", disk[i]}} {
				mode := m.tier
				if mode == "" {
					mode = "cold"
				}
				if m.resp.CacheTier != m.tier {
					t.Errorf("%s: served by tier %q, want %q", mode, m.resp.CacheTier, m.tier)
				}
				if m.resp.Program != want {
					t.Errorf("%s: service result differs from in-process optimization\n--- service ---\n%s\n--- in-process ---\n%s", mode, m.resp.Program, want)
				}
				if len(m.resp.Passes) != len(ref.Passes) {
					t.Errorf("%s: %d pass events, want %d", mode, len(m.resp.Passes), len(ref.Passes))
					continue
				}
				for k, ev := range m.resp.Passes {
					r := ref.Passes[k]
					if ev.Pass != r.Pass || ev.Stats != r.Stats || ev.Dataflow != r.Dataflow {
						t.Errorf("%s: pass event %d = %s %+v %+v, want %s %+v %+v",
							mode, k, ev.Pass, ev.Stats, ev.Dataflow, r.Pass, r.Stats, r.Dataflow)
					}
				}
			}
		})
	}
}

// TestCorpusBatchMatchesSingles: the streamed batch endpoint and the
// single endpoint must agree program-for-program.
func TestCorpusBatchMatchesSingles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	names := corpus.Names()

	singles := make(map[string]string, len(names))
	req := BatchRequest{}
	for _, name := range names {
		var resp OptimizeResponse
		postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Program: corpus.Source(name)}, &resp)
		singles[name] = resp.Program
		req.Programs = append(req.Programs, BatchProgram{Program: corpus.Source(name)})
	}

	results, summary := postBatch(t, ts.URL, req)
	if summary.Optimized != len(names) {
		t.Fatalf("summary = %+v; want %d optimized", summary, len(names))
	}
	for _, r := range results {
		name := names[r.Index]
		if r.Program != singles[name] {
			t.Errorf("batch result for %s differs from single result", name)
		}
		if !r.CacheHit {
			t.Errorf("batch result for %s missed the cache despite a prior single request", name)
		}
	}
}
