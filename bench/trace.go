package main

// The traced run. A single client replays a fixed prefix of a workload.
// Each request is sent over HTTP to one in-process server and timed, then
// served again by a replica that calls the public functions the handler
// calls, in the handler's order, with a span around each call:
//
//	request                 the replica's whole request
//	  server.decode         json.Unmarshal of the request
//	  parse                 parse.Parse, or typeinference.Compile for fun
//	  engine                engine.Optimize, configured as the server's engineFor
//	    cachestore.get/put  the engine's Backend: a timing wrapper over its own store
//	    init, am, flush     each pipeline pass
//	  printer               printer.String of the optimized graph
//	  bytecode.compile/exec /v1/run only, on the source and optimized graphs
//	  server.encode         the response's JSON, indented as writeJSON does
//
// A second fresh replica, without spans, serves every request too. The
// HTTP legs' wall minus that replica's is the residue: transport, routing
// and admission; the instrumented replica's wall over it is the tracing
// overhead. Spans stay in memory and are written to a file when the run
// ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/bytecode"
	"assignmentmotion/internal/cachestore"
	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/server"
)

// tracePrefix is how many requests each traced run replays, sized so the
// traced run takes no longer than the untraced one.
var tracePrefix = map[string]int{
	"cold-mix":    200,
	"warm-mix":    4000,
	"edit-stream": 150,
	"run-kernels": 2000,
}

// span is one traced call. Allocs counts the heap objects allocated
// inside the span, children included; the run is serial, so the count is
// the span's own.
type span struct {
	Req     int32  `json:"req"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 for a request's root
	Name    string `json:"name"`
	Start   int64  `json:"startNs"` // since the run's epoch
	End     int64  `json:"endNs"`
	Allocs  uint64 `json:"allocs"`
	allocs0 uint64
}

// tracer records spans. A nil *tracer records nothing.
type tracer struct {
	mu     sync.Mutex // the engine runs passes on its own goroutine
	epoch  time.Time
	req    int32
	spans  []span
	open   []int32
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<16),
		open:   make([]int32, 0, 16),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

// begin opens a span. The tracer's own bookkeeping happens before the
// allocation count and the clock are read, so it stays outside the span.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name})
	t.open = append(t.open, id)
	metrics.Read(t.sample)
	sp := &t.spans[id]
	sp.allocs0 = t.sample[0].Value.Uint64()
	sp.Start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	metrics.Read(t.sample)
	sp := &t.spans[id]
	sp.End = end
	sp.Allocs = t.sample[0].Value.Uint64() - sp.allocs0
	t.open = t.open[:len(t.open)-1]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore is the replica engine's Backend: the cachestore, with a span
// around every call and the bytes written counted.
type timedStore struct {
	st                     *cachestore.Store
	rp                     *replica
	putBytes, incrPutBytes int
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	id := s.rp.tr.begin("cachestore.get")
	defer s.rp.tr.end(id)
	return s.st.Get(key)
}

func (s *timedStore) Put(key string, data []byte) error {
	id := s.rp.tr.begin("cachestore.put")
	defer s.rp.tr.end(id)
	if s.rp.tr != nil {
		s.putBytes += len(data)
		if strings.HasPrefix(key, "incr") {
			s.incrPutBytes += len(data)
		}
	}
	return s.st.Put(key, data)
}

// replica serves requests as the handler does, outside any HTTP stack.
type replica struct {
	eng   *engine.Engine
	store *timedStore
	dir   string
	tr    *tracer // nil while untraced
	// Summed from the engine's Hook.
	amIters, solves, visits, sweeps int
}

// newReplica builds a replica on a fresh engine and store. An
// instrumented replica traces with tr; an uninstrumented one has no
// Hook, no pass wrapper, and the bare store as Backend.
func newReplica(instrumented bool) (*replica, error) {
	dir, err := os.MkdirTemp("", "amoptd-replica-")
	if err != nil {
		return nil, err
	}
	st, err := cachestore.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rp := &replica{dir: dir}
	rp.store = &timedStore{st: st, rp: rp}
	// As server.engineFor configures the default pipeline's engine under
	// the default Config: Workers = GOMAXPROCS, so one solver worker.
	opts := engine.Options{Parallelism: 1, SolverWorkers: 1, Incremental: true}
	if !instrumented {
		opts.Backend = st
		rp.eng = engine.New(opts)
		return rp, nil
	}
	opts.Backend = rp.store
	opts.Hook = func(_ string, ev pass.Event) {
		if rp.tr == nil {
			return
		}
		if ev.Pass == "am" {
			rp.amIters += ev.Stats.Iterations
		}
		rp.solves += ev.Dataflow.Solves
		rp.visits += ev.Dataflow.Visits
		rp.sweeps += ev.Dataflow.Sweeps
	}
	opts.Inject = func(_ int, p pass.Pass) pass.Pass {
		inner := p.RunWith
		p.RunWith = func(g *ir.Graph, s *analysis.Session) (pass.Stats, error) {
			id := rp.tr.begin(p.Name)
			defer rp.tr.end(id)
			return inner(g, s)
		}
		return p
	}
	rp.eng = engine.New(opts)
	return rp, nil
}

func (rp *replica) close() {
	rp.store.st.Close()
	os.RemoveAll(rp.dir)
}

// served is what one replica request produced.
type served struct {
	g       *ir.Graph // the parsed source
	res     engine.GraphResult
	program string // the optimized program text
	steps   int    // /v1/run: steps of both executions
}

// serve handles one request. Its wall is the replica wall.
func (rp *replica) serve(r *request) (sv served, err error) {
	tr := rp.tr
	root := tr.begin("request")
	defer tr.end(root)

	var opt server.OptimizeRequest
	var run server.RunRequest
	id := tr.begin("server.decode")
	if r.path == "/v1/run" {
		err = json.Unmarshal(r.body, &run)
		opt = server.OptimizeRequest{Name: run.Name, Program: run.Program, Dialect: run.Dialect}
	} else {
		err = json.Unmarshal(r.body, &opt)
	}
	tr.end(id)
	if err != nil {
		return sv, err
	}

	id = tr.begin("parse")
	sv.g, err = parseSource(&request{name: opt.Name, dialect: opt.Dialect, source: opt.Program})
	tr.end(id)
	if err != nil {
		return sv, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	id = tr.begin("engine")
	sv.res = rp.eng.Optimize(ctx, sv.g)
	tr.end(id)
	cancel()
	if sv.res.Err != nil {
		return sv, sv.res.Err
	}

	id = tr.begin("printer")
	sv.program = printer.String(sv.res.Graph)
	tr.end(id)

	var resp any
	if r.path == "/v1/run" {
		init := make(map[ir.Var]int64, len(run.Inputs))
		for v, x := range run.Inputs {
			init[ir.Var(v)] = x
		}
		var results [2]interp.Result
		for i, g := range []*ir.Graph{sv.g, sv.res.Graph} {
			id = tr.begin("bytecode.compile")
			p, cerr := bytecode.Compile(g)
			tr.end(id)
			if cerr != nil {
				return sv, cerr
			}
			id = tr.begin("bytecode.exec")
			results[i] = p.RunWith(init, run.MaxSteps, interp.Options{TrapOnDivZero: run.TrapDivZero})
			tr.end(id)
			sv.steps += results[i].Counts.Steps
		}
		before, after := runCounts(results[0].Counts), runCounts(results[1].Counts)
		resp = server.RunResponse{
			Name: sv.g.Name, Outcome: "ran", Trace: results[1].Trace,
			Before: before, After: after, MaxSteps: run.MaxSteps,
			Delta: server.RunDeltas{
				ExprEvals:       after.ExprEvals - before.ExprEvals,
				AssignExecs:     after.AssignExecs - before.AssignExecs,
				TempAssignExecs: after.TempAssignExecs - before.TempAssignExecs,
			},
			TraceMatch: interp.TraceEqual(results[0], results[1]),
			Optimized:  sv.program, Fingerprint: sv.res.Fingerprint, CacheHit: sv.res.CacheHit,
		}
	} else {
		res := sv.res
		resp = server.OptimizeResponse{
			Name: sv.g.Name, Outcome: string(res.Outcome), Program: sv.program,
			Fingerprint: res.Fingerprint, CacheHit: res.CacheHit, CacheTier: res.CacheTier,
			RegionsTotal: res.RegionsTotal, RegionsReused: res.RegionsReused,
			RegionsRecomputed: res.RegionsRecomputed, AMIterations: res.Result.AM.Iterations,
			Wall: res.Timings.Total.String(), Passes: res.Passes,
		}
	}
	id = tr.begin("server.encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	tr.end(id)
	return sv, err
}

// prewarm serves the workload's set-up requests untraced.
func (rp *replica) prewarm(w *workload) error {
	tr := rp.tr
	rp.tr = nil
	defer func() { rp.tr = tr }()
	for _, ri := range w.prewarm {
		if _, err := rp.serve(&w.reqs[ri]); err != nil {
			return fmt.Errorf("replica set-up request %d: %w", ri, err)
		}
	}
	return nil
}

// layerSums accumulates the traced run's per-layer totals.
type layerSums struct {
	n, computed           int
	self                  map[string]time.Duration // span self time by name
	allocs                map[string]uint64        // span self allocations by name
	count                 map[string]int
	replicaWall, rootSelf time.Duration // over the root spans
	// Walls of the whole prefix: the HTTP leg, the instrumented replica,
	// and the uninstrumented one. The residue is HTTP minus uninstrumented.
	httpWall, tracedWall, bareWall time.Duration
	fingerprint                    time.Duration
	fingerprintAllocs              uint64
	srcBytes, outBytes             int
	memory, disk, region, missed   int
	regionsReused, regionsTotal    int
	replaySelf                     time.Duration
	putBytes, incrPutBytes, steps  int
}

// addRequest folds the spans of one request (spans[first:]) into the sums.
func (ls *layerSums) addRequest(spans []span, first int) {
	child := map[int32]time.Duration{}
	childAllocs := map[int32]uint64{}
	for _, sp := range spans[first:] {
		if sp.Parent >= 0 {
			child[sp.Parent] += time.Duration(sp.End - sp.Start)
			childAllocs[sp.Parent] += sp.Allocs
		}
	}
	for _, sp := range spans[first:] {
		self := time.Duration(sp.End-sp.Start) - child[sp.ID]
		ls.self[sp.Name] += self
		ls.allocs[sp.Name] += sp.Allocs - childAllocs[sp.ID]
		ls.count[sp.Name]++
		if sp.Parent < 0 {
			ls.replicaWall += time.Duration(sp.End - sp.Start)
			ls.rootSelf += self
		}
	}
}

// runTraced replays the first n requests of the workload traced, checks
// every HTTP response, and reports the per-layer metrics.
func runTraced(name string, seed int64, sc scale, n int, spansPath string) (*result, error) {
	w, svc, err := setUp(name, seed, sc)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	rp, err := newReplica(true)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	bare, err := newReplica(false)
	if err != nil {
		return nil, err
	}
	defer bare.close()
	for _, r := range []*replica{rp, bare} {
		if err := r.prewarm(w); err != nil {
			return nil, err
		}
	}
	order := w.interleaved()
	order = order[:min(n, len(order))]

	tr := newTracer()
	rp.tr = tr
	ls := &layerSums{self: map[string]time.Duration{}, allocs: map[string]uint64{}, count: map[string]int{}}
	bs := &bodies{}
	var samples []sample
	var buf bytes.Buffer
	var scratch []byte
	res := newResult(name, perLayer)
	replicaFail := func(ri int, err error) {
		res.Failed++
		if res.first == "" {
			res.first = fmt.Sprintf("replica, request %d (%s): %v", ri, w.reqs[ri].name, err)
		}
	}
	serveBare := func(ri int) {
		t := time.Now()
		if _, err := bare.serve(&w.reqs[ri]); err != nil {
			replicaFail(ri, err)
		}
		ls.bareWall += time.Since(t)
	}
	for k, ri := range order {
		t0 := time.Now()
		status, err := svc.post(&w.reqs[ri], &buf)
		httpWall := time.Since(t0)
		ls.httpWall += httpWall
		smp := sample{req: int32(ri), body: -1, status: int32(status), lat: httpWall}
		if err == nil {
			smp.body = bs.intern(buf.Bytes(), &scratch)
		}
		samples = append(samples, smp)

		// The two replicas take turns going first, so neither gains from
		// the other having just served the same request.
		if k%2 == 1 {
			serveBare(ri)
		}
		tr.req = int32(k)
		first := len(tr.spans)
		t1 := time.Now()
		sv, err := rp.serve(&w.reqs[ri])
		ls.tracedWall += time.Since(t1)
		ls.addRequest(tr.spans, first)
		if k%2 == 0 {
			serveBare(ri)
		}
		if err != nil {
			replicaFail(ri, err)
			continue
		}
		if smp.status == http.StatusOK && !bytes.Contains(bs.list[smp.body], jsonString(sv.program)) {
			replicaFail(ri, fmt.Errorf("replica and server returned different programs"))
		}
		ls.n++
		a0 := heapAllocs()
		t2 := time.Now()
		sv.g.Fingerprint()
		ls.fingerprint += time.Since(t2)
		ls.fingerprintAllocs += heapAllocs() - a0
		ls.srcBytes += len(w.reqs[ri].source)
		ls.outBytes += len(sv.program)
		ls.steps += sv.steps
		switch tier := sv.res.CacheTier; {
		case tier == "memory":
			ls.memory++
		case tier == "disk":
			ls.disk++
		default:
			ls.missed++
			if tier == "region" {
				ls.region++
				ls.regionsReused += sv.res.RegionsReused
				ls.regionsTotal += sv.res.RegionsTotal
				ls.replaySelf += engineSelf(tr.spans, first)
			} else {
				ls.computed++
			}
		}
	}
	rp.tr = nil
	ls.putBytes, ls.incrPutBytes = rp.store.putBytes, rp.store.incrPutBytes

	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	ck := check(w, samples, bs)
	res.Attempted = len(samples)
	res.Failed += ck.failed
	if res.first == "" {
		res.first = ck.first
	}
	res.check = ck
	ls.report(res, rp)
	return res, nil
}

// jsonString is s as writeJSON encodes a string member.
func jsonString(s string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(s)
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// engineSelf is the self time of the engine span among spans[first:].
func engineSelf(spans []span, first int) time.Duration {
	var d time.Duration
	for _, sp := range spans[first:] {
		switch {
		case sp.Name == "engine":
			d += time.Duration(sp.End - sp.Start)
		case sp.Parent >= 0 && spans[sp.Parent].Name == "engine":
			d -= time.Duration(sp.End - sp.Start)
		}
	}
	return d
}

func (ls *layerSums) report(res *result, rp *replica) {
	n, c := float64(max(ls.n, 1)), float64(max(ls.computed, 1))
	perReq := func(name string) float64 { return ms(ls.self[name]) / n }
	perComputed := func(name string) float64 { return ms(ls.self[name]) / c }
	share := func(a, b int) float64 { return ratio(int64(a), int64(b)) }
	const kb = 1024.0

	res.set("server.decode_ms", perReq("server.decode"))
	res.set("server.encode_ms", perReq("server.encode"))
	res.set("server.residue_ms", ms(ls.httpWall-ls.bareWall)/n)
	res.set("parse.ms", perReq("parse"))
	res.set("parse.allocs", float64(ls.allocs["parse"])/n)
	res.set("parse.src_kb", float64(ls.srcBytes)/kb/n)
	res.set("ir.fingerprint_ms", ms(ls.fingerprint)/n)
	res.set("ir.fingerprint_allocs", float64(ls.fingerprintAllocs)/n)
	res.set("engine.self_ms", perReq("engine"))
	res.set("engine.allocs", float64(ls.allocs["engine"])/n)
	res.set("engine.memory_hit_ratio", share(ls.memory, ls.n))
	res.set("engine.disk_hit_ratio", share(ls.disk, ls.n))
	res.set("engine.computed_ratio", share(ls.computed, ls.n))
	res.set("incr.region_hit_ratio", share(ls.region, ls.missed))
	res.set("incr.regions_reused_ratio", share(ls.regionsReused, ls.regionsTotal))
	res.set("incr.replay_ms", ms(ls.replaySelf)/float64(max(ls.region, 1)))
	res.set("incr.manifest_put_kb", float64(ls.incrPutBytes)/kb/n)
	res.set("cachestore.get_ms", perReq("cachestore.get"))
	res.set("cachestore.put_ms", perReq("cachestore.put"))
	res.set("cachestore.gets", float64(ls.count["cachestore.get"])/n)
	res.set("cachestore.puts", float64(ls.count["cachestore.put"])/n)
	res.set("cachestore.put_kb", float64(ls.putBytes)/kb/n)
	for _, p := range []string{"init", "am", "flush"} {
		res.set(p+".ms", perComputed(p))
		res.set(p+".allocs", float64(ls.allocs[p])/c)
	}
	res.set("am.iterations", float64(rp.amIters)/c)
	res.set("dataflow.solves", float64(rp.solves)/c)
	res.set("dataflow.visits", float64(rp.visits)/c)
	res.set("dataflow.sweeps", float64(rp.sweeps)/c)
	res.set("printer.ms", perReq("printer"))
	res.set("printer.allocs", float64(ls.allocs["printer"])/n)
	res.set("printer.out_kb", float64(ls.outBytes)/kb/n)
	res.set("bytecode.compile_ms", perReq("bytecode.compile"))
	res.set("bytecode.exec_ms", perReq("bytecode.exec"))
	res.set("bytecode.steps", float64(ls.steps)/n)
	res.set("bytecode.ns_per_step", float64(ls.self["bytecode.exec"])/float64(max(ls.steps, 1)))
	res.set("bytecode.allocs", float64(ls.allocs["bytecode.compile"]+ls.allocs["bytecode.exec"])/n)
	res.set("trace.coverage", 1-float64(ls.rootSelf)/float64(max(ls.replicaWall, 1)))
	res.set("trace.overhead_pct", 100*(float64(ls.tracedWall)/float64(max(ls.bareWall, 1))-1))
}
