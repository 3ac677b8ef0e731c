// Package server exposes the optimization pipeline as a service: the
// HTTP/JSON subsystem behind the amoptd daemon.
//
// Endpoints:
//
//	POST /v1/optimize        one program in, optimized program out; the
//	                         request selects the pass pipeline, the
//	                         on-error recovery policy, a fault.Budget,
//	                         and a deadline
//	POST /v1/optimize/batch  many programs in, NDJSON results streamed
//	                         out in completion order, fanned out through
//	                         internal/engine under the shared worker
//	                         budget
//	POST /v1/run             optimize one program AND execute both the
//	                         source and the optimized graph on caller
//	                         inputs via the compiled executor, answering
//	                         the out-trace plus before/after cost deltas
//	GET  /v1/passes          pass registry introspection
//	GET  /healthz            liveness + drain state
//	GET  /metrics            Prometheus text format
//
// The three POST endpoints share one request path: endpoint records the
// metrics and decodes the body, refuse answers every request-level
// failure, and serveOne takes a single program through validation,
// parse, the cluster route (forward), the admission queue and the engine
// (compute) under one deadline counted from arrival, which queue wait, a
// forward and a local fallback after it all spend. Batch jobs go through
// the same forward and compute under the batch's deadline.
//
// Requests are served from a two-tier result cache: every engine's
// in-memory fingerprint cache fronts one shared persistent
// internal/cachestore directory, so a restarted daemon answers
// previously seen programs without running a single pass. Admission
// control bounds concurrency (worker semaphore) and queueing (depth
// limit, shedding with 429 + Retry-After); SIGTERM drains gracefully —
// stop accepting, finish in-flight, flush the cache index.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"assignmentmotion/internal/cachestore"
	"assignmentmotion/internal/cluster"
	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/fault"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/typeinference"
)

// Config tunes one Server.
type Config struct {
	// Workers bounds concurrently running optimization jobs (across all
	// requests, single and batch). <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds jobs waiting for a worker slot; a full queue
	// sheds single requests with 429. <= 0 selects 4 * Workers.
	QueueDepth int
	// CacheDir, when non-empty, roots the persistent result store. Empty
	// runs memory-only (results do not survive a restart).
	CacheDir string
	// CacheMaxBytes caps the persistent store (0 = cachestore default,
	// < 0 = uncapped).
	CacheMaxBytes int64
	// CacheSize is the in-memory entry bound per pipeline configuration
	// (0 = engine default).
	CacheSize int
	// DefaultDeadline applies when a request sets none; MaxDeadline caps
	// whatever the request asks for. Zero values select 10s and 60s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxBodyBytes bounds request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds programs per batch request (0 = 1024).
	MaxBatch int
	// MaxRunSteps caps the per-execution step budget of POST /v1/run;
	// requests asking for more are clamped. <= 0 selects 1,000,000.
	MaxRunSteps int
	// Inject is the test-only fault-injection seam, threaded through to
	// engine.Options.Inject. Production callers leave it nil.
	Inject func(index int, p pass.Pass) pass.Pass
	// Incremental is inert: the region tier it enabled was removed, and
	// the field stays only because the benchmark module still sets it.
	Incremental bool
	// Cluster, when non-nil, joins this daemon to an amoptd cluster:
	// jobs route to peers by graph-fingerprint consistent hashing with
	// health checking, retries, and hedged forwarding, and engine cache
	// misses consult the owning peer's store. See internal/cluster.
	Cluster *cluster.Config
	// NoLocalFallback refuses to compute jobs this node does not own when
	// no peer is usable: such requests answer 503 peer-unavailable
	// instead of silently degrading to single-node behavior. The zero
	// value (fallback enabled) keeps a degraded cluster fully available.
	NoLocalFallback bool
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
}

// maxEngineConfigs bounds the memoized per-configuration engines. Each
// distinct (passes, recovery, budget) combination gets its own engine
// (and in-memory cache tier); the persistent tier is shared by all.
const maxEngineConfigs = 32

// engineConfig is the memoization key for one pipeline configuration.
type engineConfig struct {
	pipeline string // comma-joined pass names; "" = default global algorithm
	recovery pass.RecoveryPolicy
	budget   fault.Budget
}

// Server is the daemon's HTTP subsystem. Construct with New.
type Server struct {
	cfg   Config
	store *cachestore.Store // nil when CacheDir is empty
	met   *metrics
	adm   *admission

	node     *cluster.Node // nil outside cluster mode
	stopNode sync.Once

	drainMu  sync.Mutex
	draining bool

	mu      sync.Mutex
	engines map[engineConfig]*engine.Engine
}

// New builds a Server, opening (or creating) the persistent store when
// cfg.CacheDir is set.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	var store *cachestore.Store
	if cfg.CacheDir != "" {
		var err error
		store, err = cachestore.Open(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, err
		}
	}
	var node *cluster.Node
	if cfg.Cluster != nil {
		var err error
		node, err = cluster.New(*cfg.Cluster)
		if err != nil {
			if store != nil {
				store.Close()
			}
			return nil, err
		}
		node.Start()
	}
	return &Server{
		cfg:     cfg,
		store:   store,
		met:     newMetrics(store),
		adm:     newAdmission(cfg.Workers, cfg.QueueDepth),
		node:    node,
		engines: map[engineConfig]*engine.Engine{},
	}, nil
}

// Drain flips the server into drain mode: /healthz turns 503 (so load
// balancers stop routing here) and new optimization requests are
// rejected; in-flight requests finish normally. Call before
// http.Server.Shutdown.
func (s *Server) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

func (s *Server) isDraining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Close stops the cluster health probers and flushes the persistent
// store's index. Call after the HTTP server has fully shut down.
func (s *Server) Close() error {
	if s.node != nil {
		s.stopNode.Do(s.node.Stop)
	}
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Store exposes the persistent tier (nil when persistence is off); the
// daemon's tests use it to assert cache cleanliness.
func (s *Server) Store() *cachestore.Store { return s.store }

// engineFor returns (memoizing) the engine for one pipeline
// configuration. All engines share the persistent backend and the
// metrics hooks.
func (s *Server) engineFor(cfg engineConfig) *engine.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.engines[cfg]; ok {
		return e
	}
	if len(s.engines) >= maxEngineConfigs {
		for k := range s.engines { // drop one; its persistent entries survive
			delete(s.engines, k)
			break
		}
	}
	opts := engine.Options{
		Parallelism: 1, // concurrency is the server's worker budget, not the engine pool
		CacheSize:   s.cfg.CacheSize,
		Recovery:    cfg.recovery,
		Budget:      cfg.budget,
		Inject:      s.cfg.Inject,
		Hook:        func(_ string, ev pass.Event) { s.met.passEvent(ev) },
		OutcomeHook: func(r engine.GraphResult) {
			if r.Err == nil {
				s.met.cacheOutcome(r.CacheHit, r.CacheTier)
			}
		},
	}
	if cfg.pipeline != "" {
		opts.Passes = strings.Split(cfg.pipeline, ",")
	}
	switch {
	case s.node != nil:
		// Cluster mode: cache misses consult the key's owning peer before
		// computing. The local tier underneath is the persistent store, or
		// a null store on memory-only nodes (which then still read the
		// cluster's caches while persisting nothing).
		var local cluster.Backend = nullStore{}
		if s.store != nil {
			local = s.store
		}
		opts.Backend = s.node.RemoteBackend(local)
	case s.store != nil:
		opts.Backend = s.store
	}
	e := engine.New(opts)
	s.engines[cfg] = e
	return e
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", endpoint(s, "optimize", s.serveOptimize))
	mux.HandleFunc("POST /v1/optimize/batch", endpoint(s, "batch", s.serveBatch))
	mux.HandleFunc("POST /v1/run", endpoint(s, "run", s.serveRun))
	mux.HandleFunc("GET /v1/passes", s.handlePasses)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	if s.node != nil {
		mux.HandleFunc("GET "+cluster.CachePath, s.handleClusterCache)
	}
	return mux
}

// BudgetSpec is the request form of fault.Budget.
type BudgetSpec struct {
	MaxPassWallMs   int64 `json:"maxPassWallMs,omitempty"`
	MaxSolverVisits int   `json:"maxSolverVisits,omitempty"`
	MaxAMIterations int   `json:"maxAmIterations,omitempty"`
}

func (b *BudgetSpec) budget() fault.Budget {
	if b == nil {
		return fault.Budget{}
	}
	return fault.Budget{
		MaxPassWall:     time.Duration(b.MaxPassWallMs) * time.Millisecond,
		MaxSolverVisits: b.MaxSolverVisits,
		MaxAMIterations: b.MaxAMIterations,
	}
}

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	// Name labels the program in responses and logs (optional).
	Name string `json:"name,omitempty"`
	// Program is the source text, in the dialect below.
	Program string `json:"program"`
	// Dialect selects the parser: "fg" (default), "nested" (§6 nested
	// expressions), or "fun" (the typed front-end with functions). "prog"
	// (the structured mini-language, a typed unit without functions) is
	// another spelling of "fun".
	Dialect string `json:"dialect,omitempty"`
	// Passes names the pipeline; empty (or ["globalg"]) selects the full
	// global algorithm.
	Passes []string `json:"passes,omitempty"`
	// OnError selects the recovery policy: "fail" (default), "rollback",
	// or "skip".
	OnError string `json:"onError,omitempty"`
	// Budget caps per-pass resources; violations answer 422.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// DeadlineMs bounds the whole request from its arrival (capped by the
	// server's MaxDeadline): queue wait, a forward to the owning peer and a
	// local fallback all spend it. Expiry answers 504 canceled.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// OptimizeResponse is the body of a POST /v1/optimize answer (and, per
// line, of a batch stream).
type OptimizeResponse struct {
	Index       int    `json:"index,omitempty"`
	Name        string `json:"name,omitempty"`
	Outcome     string `json:"outcome"`
	Program     string `json:"program,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	CacheHit    bool   `json:"cacheHit"`
	CacheTier   string `json:"cacheTier,omitempty"`
	// RegionsTotal, RegionsReused and RegionsRecomputed are inert, always
	// zero and so omitted: the region tier was removed, and the benchmark
	// module still reads them.
	RegionsTotal      int `json:"regionsTotal,omitempty"`
	RegionsReused     int `json:"regionsReused,omitempty"`
	RegionsRecomputed int `json:"regionsRecomputed,omitempty"`

	AMIterations int          `json:"amIterations,omitempty"`
	Wall         string       `json:"wall,omitempty"`
	Passes       []pass.Event `json:"passes,omitempty"`
	Failures     []string     `json:"failures,omitempty"`
	Error        string       `json:"error,omitempty"`
	ErrorKind    string       `json:"errorKind,omitempty"`
	FailedPass   string       `json:"failedPass,omitempty"`
}

// errorBody is the JSON shape of request-level failures (bad JSON, parse
// errors, overload, drain).
type errorBody struct {
	Error     string `json:"error"`
	ErrorKind string `json:"errorKind,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// refusal is a request-level failure, answered with an errorBody: its
// kind is both the errorKind and the metrics outcome label.
type refusal struct {
	status int
	kind   string
	msg    string
}

func (e *refusal) Error() string { return e.msg }

var errDraining = &refusal{http.StatusServiceUnavailable, "draining", "server is draining"}

func badRequest(msg string) error { return &refusal{http.StatusBadRequest, "bad-request", msg} }

// refuse answers err with an errorBody and returns the request's metrics
// outcome label. A refusal carries its status and kind; a full queue
// sheds with 429 and Retry-After; any other error is a typed fault,
// answered with the fault taxonomy's status and name.
func (s *Server) refuse(w http.ResponseWriter, err error) string {
	status, kind := fault.HTTPStatus(err), fault.Name(err)
	label := kind
	var rf *refusal
	switch {
	case errors.As(err, &rf):
		status, kind, label = rf.status, rf.kind, rf.kind
	case errors.Is(err, errOverloaded):
		s.met.shed.Add(1)
		w.Header().Set("Retry-After", s.retryAfter())
		status, kind, label = http.StatusTooManyRequests, "overloaded", "shed"
	}
	writeJSON(w, status, errorBody{Error: err.Error(), ErrorKind: kind})
	return label
}

// endpoint is the front of every POST endpoint: it records the request's
// metrics in one deferred place and runs the decode gate (no new work
// while the server drains, then the size-bounded body into a fresh T)
// before serve, which answers and returns the outcome label.
func endpoint[T any](s *Server, name string, serve func(http.ResponseWriter, *http.Request, *T) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		outcome := "bad-request"
		defer func() { s.met.request(name, outcome, time.Since(start)) }()
		if s.isDraining() {
			outcome = s.refuse(w, errDraining)
			return
		}
		var req T
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
			outcome = s.refuse(w, badRequest("bad request body: "+err.Error()))
			return
		}
		outcome = serve(w, r, &req)
	}
}

// program is the per-program gate of every endpoint. A request name
// replaces the parsed graph's and is written verbatim into
// "graph <name> {", so the served program, and the disk-tier entry
// stored from it, parse again only if the name is one the .fg grammar
// reads back (400 bad-request). The source must parse (400 parse-error).
func program(dialect, name, src string) (*ir.Graph, error) {
	if name != "" && !parse.IsGraphName(name) {
		return nil, badRequest(fmt.Sprintf("name %q is not an identifier (a letter or '_', then letters, digits or '_') or is a keyword", name))
	}
	g, err := parseProgram(dialect, name, src)
	if err != nil {
		return nil, &refusal{http.StatusBadRequest, "parse-error", err.Error()}
	}
	return g, nil
}

// parseProgram parses one program in the requested dialect.
func parseProgram(dialect, name, src string) (*ir.Graph, error) {
	var g *ir.Graph
	var err error
	switch dialect {
	case "", "fg":
		g, err = parse.Parse(src)
	case "nested":
		g, err = parse.ParseNested(src)
	case "prog", "fun":
		g, _, err = typeinference.Compile(src)
	default:
		return nil, fmt.Errorf("unknown dialect %q (want fg, nested, prog, or fun)", dialect)
	}
	if err != nil {
		return nil, err
	}
	if name != "" {
		g.Name = name
	}
	return g, nil
}

// requestConfig resolves the pipeline configuration of a request:
// registry-validated passes, recovery policy, budget. A nil error means
// the configuration is servable; any other is a 400 bad-request.
func requestConfig(passes []string, onError string, budget *BudgetSpec) (engineConfig, error) {
	names := make([]string, 0, len(passes))
	for _, p := range passes {
		p = strings.TrimSpace(p)
		if p == "" || p == "none" {
			continue
		}
		names = append(names, p)
	}
	if len(names) == 1 && names[0] == "globalg" {
		names = nil // the engine's default pipeline IS the global algorithm
	}
	if len(names) > 0 {
		if _, err := pass.Resolve(names...); err != nil {
			return engineConfig{}, badRequest(err.Error())
		}
	}
	policy := pass.Fail
	if onError != "" {
		var err error
		policy, err = pass.ParseRecoveryPolicy(onError)
		if err != nil {
			return engineConfig{}, badRequest(err.Error())
		}
	}
	return engineConfig{
		pipeline: strings.Join(names, ","),
		recovery: policy,
		budget:   budget.budget(),
	}, nil
}

// deadline clamps the request's deadline to the server's bounds.
func (s *Server) deadline(ms int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// respond converts one engine result into the response shape.
func respond(idx int, name string, r engine.GraphResult) OptimizeResponse {
	resp := OptimizeResponse{
		Index:        idx,
		Name:         name,
		Outcome:      string(r.Outcome),
		Fingerprint:  r.Fingerprint,
		CacheHit:     r.CacheHit,
		CacheTier:    r.CacheTier,
		AMIterations: r.Result.AM.Iterations,
		Wall:         r.Timings.Total.String(),
		Passes:       r.Passes,
	}
	for _, f := range r.Failures {
		resp.Failures = append(resp.Failures, f.Error())
	}
	if r.Err != nil {
		resp.Error = r.Err.Error()
		resp.ErrorKind = fault.Name(r.Err)
		if p, _, ok := fault.PassOf(r.Err); ok {
			resp.FailedPass = p
		}
		return resp
	}
	resp.Program = printer.String(r.Graph)
	return resp
}

// answerFunc answers one engine result while its worker slot is still
// held and returns the metrics outcome label.
type answerFunc func(g *ir.Graph, res engine.GraphResult) string

// serveOne takes one program through the single-request path: validation,
// parse, the cluster route (when forward is set), the admission queue and
// the engine, all under one deadline that starts on arrival. Queue wait,
// the forward hop and a local fallback after a failed forward spend that
// same budget. It returns the metrics outcome label.
func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, req *OptimizeRequest, forward bool, answer answerFunc) string {
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMs))
	defer cancel()
	if strings.TrimSpace(req.Program) == "" {
		return s.refuse(w, badRequest("empty program"))
	}
	cfg, err := requestConfig(req.Passes, req.OnError, req.Budget)
	if err != nil {
		return s.refuse(w, err)
	}
	g, err := program(req.Dialect, req.Name, req.Program)
	if err != nil {
		return s.refuse(w, err)
	}
	if forward {
		res, err := s.forward(ctx, r, req, g, nil)
		if err != nil {
			return s.refuse(w, err)
		}
		if res != nil {
			ct := res.ContentType
			if ct == "" {
				ct = "application/json"
			}
			w.Header().Set("Content-Type", ct)
			w.WriteHeader(res.Status)
			w.Write(res.Body)
			return "forwarded"
		}
	}
	outcome, err := s.compute(ctx, cfg, g, nil, answer)
	if err != nil {
		return s.refuse(w, err)
	}
	return outcome
}

// compute is the engine step of every endpoint: it takes a worker slot
// under ctx, runs g through the engine of cfg and answers while it holds
// the slot. A single request (nil ticket) sheds (errOverloaded) rather
// than join a full queue; a batch job waits behind its batch's ticket,
// since its stream can no longer answer 429.
func (s *Server) compute(ctx context.Context, cfg engineConfig, g *ir.Graph, ticket chan struct{}, answer answerFunc) (string, error) {
	var err error
	if ticket == nil {
		err = s.adm.tryAcquire(ctx)
	} else {
		err = s.adm.acquireInBatch(ctx, ticket)
	}
	if err != nil {
		return "", err
	}
	defer s.adm.release()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	return answer(g, s.engineFor(cfg).Optimize(ctx, g)), nil
}

func (s *Server) serveOptimize(w http.ResponseWriter, r *http.Request, req *OptimizeRequest) string {
	return s.serveOne(w, r, req, true, func(g *ir.Graph, res engine.GraphResult) string {
		writeJSON(w, fault.HTTPStatus(res.Err), respond(0, g.Name, res))
		return string(res.Outcome)
	})
}

// BatchProgram is one named program of a batch request.
type BatchProgram struct {
	Name    string `json:"name,omitempty"`
	Program string `json:"program"`
}

// BatchRequest is the body of POST /v1/optimize/batch. Pipeline,
// recovery, budget, and deadline are shared by every program of the
// batch: DeadlineMs bounds the whole stream from the moment every program
// has parsed, including each job's wait for a worker slot and its
// forward.
type BatchRequest struct {
	Programs   []BatchProgram `json:"programs"`
	Dialect    string         `json:"dialect,omitempty"`
	Passes     []string       `json:"passes,omitempty"`
	OnError    string         `json:"onError,omitempty"`
	Budget     *BudgetSpec    `json:"budget,omitempty"`
	DeadlineMs int64          `json:"deadlineMs,omitempty"`
}

// BatchSummary is the final NDJSON line of a batch stream.
type BatchSummary struct {
	Graphs      int    `json:"graphs"`
	Optimized   int    `json:"optimized"`
	Degraded    int    `json:"degraded"`
	Failed      int    `json:"failed"`
	CacheHits   int    `json:"cacheHits"`
	CacheMisses int    `json:"cacheMisses"`
	Wall        string `json:"wall"`
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, req *BatchRequest) string {
	start := time.Now()
	if len(req.Programs) == 0 {
		return s.refuse(w, badRequest("empty batch"))
	}
	if len(req.Programs) > s.cfg.MaxBatch {
		return s.refuse(w, badRequest(fmt.Sprintf("batch of %d exceeds the %d-program limit", len(req.Programs), s.cfg.MaxBatch)))
	}
	cfg, err := requestConfig(req.Passes, req.OnError, req.Budget)
	if err != nil {
		return s.refuse(w, err)
	}
	graphs := make([]*ir.Graph, len(req.Programs))
	for i, p := range req.Programs {
		if graphs[i], err = program(req.Dialect, p.Name, p.Program); err != nil {
			return s.refuse(w, fmt.Errorf("program %d (%s): %w", i, p.Name, err))
		}
	}

	// One up-front shed check, before the stream starts: once bytes are
	// on the wire a 429 is impossible, so an overloaded server rejects
	// the whole batch here and per-graph jobs below wait (bounded by the
	// deadline) instead of shedding.
	if s.adm.overloaded() {
		return s.refuse(w, errOverloaded)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMs))
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	results := make(chan OptimizeResponse)
	ticket := make(chan struct{}, 1) // the batch's one place in the queue
	var wg sync.WaitGroup
	for i, g := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- s.batchJob(ctx, r, req, i, g, cfg, ticket)
		}()
	}
	go func() { wg.Wait(); close(results) }()

	summary := BatchSummary{Graphs: len(graphs)}
	enc := json.NewEncoder(w)
	for resp := range results {
		switch resp.Outcome {
		case string(engine.OutcomeOptimized):
			summary.Optimized++
		case string(engine.OutcomeDegraded):
			summary.Degraded++
		default:
			summary.Failed++
		}
		if resp.CacheHit {
			summary.CacheHits++
		} else if resp.Error == "" {
			summary.CacheMisses++
		}
		resp.Passes = nil // keep stream lines compact; singles carry events
		enc.Encode(resp)
		if flusher != nil {
			flusher.Flush()
		}
	}
	summary.Wall = time.Since(start).String()
	enc.Encode(struct {
		Summary BatchSummary `json:"summary"`
	}{summary})
	if flusher != nil {
		flusher.Flush()
	}
	switch {
	case summary.Failed > 0:
		return "failed"
	case summary.Degraded > 0:
		return "degraded"
	}
	return "optimized"
}

// batchJob answers program i of a batch under the batch's deadline: by
// its owning peer through the same forwarder as a single request (a job
// whose peer dies mid-batch lands back here), or by this node's engine in
// a worker slot it waits for behind the batch's ticket.
func (s *Server) batchJob(ctx context.Context, r *http.Request, req *BatchRequest, i int, g *ir.Graph, cfg engineConfig, ticket chan struct{}) OptimizeResponse {
	p := req.Programs[i]
	one := OptimizeRequest{Name: p.Name, Program: p.Program, Dialect: req.Dialect, Passes: req.Passes, OnError: req.OnError, Budget: req.Budget}
	var resp OptimizeResponse
	fwd, err := s.forward(ctx, r, &one, g, &resp)
	switch {
	case err != nil:
		return OptimizeResponse{Index: i, Name: g.Name, Outcome: string(engine.OutcomeFailed), Error: err.Error(), ErrorKind: fault.Name(err)}
	case fwd != nil:
		resp.Index = i
		if resp.Name == "" {
			resp.Name = g.Name
		}
		return resp
	}
	if _, err := s.compute(ctx, cfg, g, ticket, func(g *ir.Graph, res engine.GraphResult) string {
		resp = respond(i, g.Name, res)
		return string(res.Outcome)
	}); err != nil {
		return respond(i, g.Name, engine.GraphResult{Outcome: engine.OutcomeFailed, Err: &fault.CanceledError{Err: err}})
	}
	return resp
}

// handlePasses serves the pass registry: names, descriptions, and paper
// anchors, plus the default pipeline.
func (s *Server) handlePasses(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Default []string    `json:"default"`
		Passes  []pass.Info `json:"passes"`
	}{
		Default: []string{"init", "am", "flush"},
		Passes:  pass.Infos(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status  string `json:"status"`
		Uptime  string `json:"uptime"`
		Workers int    `json:"workers"`
		Queue   int64  `json:"queued"`
		Entries int    `json:"storeEntries,omitempty"`
	}
	h := health{
		Status:  "ok",
		Uptime:  time.Since(s.met.start).Round(time.Millisecond).String(),
		Workers: s.cfg.Workers,
		Queue:   s.adm.queued(),
	}
	if s.store != nil {
		h.Entries = s.store.Len()
	}
	status := http.StatusOK
	if s.isDraining() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.queued.Store(s.adm.queued())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w)
	if s.node != nil {
		s.node.WriteMetrics(w)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `amoptd — assignment-motion optimization service

POST /v1/optimize        {"program": "graph g { ... }", "passes": [...], "onError": "fail|rollback|skip", "budget": {...}, "deadlineMs": N}
POST /v1/optimize/batch  {"programs": [{"name": ..., "program": ...}, ...]} -> NDJSON stream
POST /v1/run             {"program": ..., "dialect": "fg|nested|fun" ("prog" = "fun"), "inputs": {"x": 1}, "maxSteps": N, "trapDivZero": bool} -> trace + before/after cost counters
GET  /v1/passes          pass registry
GET  /healthz            liveness
GET  /metrics            Prometheus text format
`)
}
