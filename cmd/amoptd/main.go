// Command amoptd serves the assignment-motion optimizer over HTTP: an
// optimization-as-a-service daemon with persistent result caching,
// admission control, and live observability.
//
// Usage:
//
//	amoptd [flags]
//
//	-listen :8080                address to serve on
//	-cache-dir DIR               persistent result cache (empty = memory
//	                             only; results then die with the process)
//	-cache-max-bytes N           on-disk cache cap in bytes
//	                             (0 = 256 MiB default, -1 = uncapped)
//	-cache-size N                in-memory cache entries per pipeline
//	                             configuration (0 = engine default)
//	-workers N                   concurrent optimization jobs
//	                             (0 = GOMAXPROCS)
//	-queue-depth N               jobs allowed to wait for a worker before
//	                             requests shed with 429 (0 = 4*workers)
//	-deadline D                  default per-request deadline (e.g. 10s)
//	-max-deadline D              hard cap on requested deadlines
//	-max-body N                  request body limit in bytes (0 = 8 MiB)
//	-max-batch N                 programs per batch request (0 = 1024)
//	-max-run-steps N             hard cap on the per-execution step
//	                             budget of POST /v1/run (0 = 1,000,000)
//	-drain-timeout D             how long SIGTERM waits for in-flight
//	                             requests before forcing exit
//	-peers URL,URL               other cluster members' base URLs;
//	                             setting this turns on cluster mode
//	-advertise URL               this node's own base URL, as peers reach
//	                             it (required with -peers)
//	-cluster-mode MODE           "worker" (ring member, default) or
//	                             "coordinator" (routes everything to the
//	                             workers, owns no shard)
//	-hedge-after D               launch a hedged forward to the next ring
//	                             replica when the primary has not answered
//	                             within D (0 = 50ms default, -1 disables)
//	-peer-retries N              extra forward cycles over the candidate
//	                             peers after the first fails
//	                             (0 = 2 default, -1 disables)
//	-no-local-fallback           answer 503 peer-unavailable instead of
//	                             computing unowned jobs locally when no
//	                             peer is usable
//
// Endpoints: POST /v1/optimize, POST /v1/optimize/batch (NDJSON stream),
// POST /v1/run (optimize + execute source and optimized graphs on caller
// inputs), GET /v1/passes, GET /healthz (liveness), GET /readyz (readiness: drain
// state and ring membership), GET /metrics (Prometheus text format).
// See internal/server for the request/response schema, DESIGN.md §10 for
// the architecture, and DESIGN.md §13 for cluster failure semantics.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting,
// /healthz turns 503, in-flight requests finish (up to -drain-timeout),
// and the persistent cache index is flushed before exit.
//
// Exit codes: 0 clean shutdown; 1 usage or startup failure (bad flags,
// unusable cache directory, listen failure); 2 unclean shutdown (drain
// timeout expired or the cache flush failed).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"assignmentmotion/internal/cluster"
	"assignmentmotion/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("amoptd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen        = fs.String("listen", ":8080", "address to serve on")
		cacheDir      = fs.String("cache-dir", "", "persistent result cache directory (empty = memory only)")
		cacheMaxBytes = fs.Int64("cache-max-bytes", 0, "on-disk cache cap in bytes (0 = default, -1 = uncapped)")
		cacheSize     = fs.Int("cache-size", 0, "in-memory cache entries per pipeline configuration (0 = default)")
		workers       = fs.Int("workers", 0, "concurrent optimization jobs (0 = GOMAXPROCS)")
		queueDepth    = fs.Int("queue-depth", 0, "jobs allowed to wait for a worker (0 = 4*workers)")
		deadline      = fs.Duration("deadline", 10*time.Second, "default per-request deadline")
		maxDeadline   = fs.Duration("max-deadline", 60*time.Second, "hard cap on requested deadlines")
		maxBody       = fs.Int64("max-body", 0, "request body limit in bytes (0 = 8 MiB)")
		maxBatch      = fs.Int("max-batch", 0, "programs per batch request (0 = 1024)")
		maxRunSteps   = fs.Int("max-run-steps", 0, "per-execution step budget cap for /v1/run (0 = 1,000,000)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "SIGTERM drain window for in-flight requests")

		peers           = fs.String("peers", "", "comma-separated base URLs of the other cluster members (empty = single-node)")
		advertise       = fs.String("advertise", "", "this node's own base URL as peers reach it (required with -peers)")
		clusterMode     = fs.String("cluster-mode", "worker", `cluster role: "worker" or "coordinator"`)
		hedgeAfter      = fs.Duration("hedge-after", 0, "hedge a forward to the next replica after this latency (0 = 50ms, negative disables)")
		peerRetries     = fs.Int("peer-retries", 0, "extra forward cycles over the candidate peers (0 = 2, negative disables)")
		noLocalFallback = fs.Bool("no-local-fallback", false, "refuse to compute unowned jobs locally when no peer is usable (answer 503)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "amoptd: unexpected arguments %q\n", fs.Args())
		return 1
	}

	var clusterCfg *cluster.Config
	if *peers != "" {
		if *advertise == "" {
			fmt.Fprintf(stderr, "amoptd: -peers requires -advertise (this node's own base URL)\n")
			return 1
		}
		mode, err := cluster.ParseMode(*clusterMode)
		if err != nil {
			fmt.Fprintf(stderr, "amoptd: %v\n", err)
			return 1
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		clusterCfg = &cluster.Config{
			Self:       *advertise,
			Peers:      peerList,
			Mode:       mode,
			HedgeAfter: *hedgeAfter,
			Retries:    *peerRetries,
		}
	}

	logger := log.New(stderr, "amoptd: ", log.LstdFlags)

	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheMaxBytes,
		CacheSize:       *cacheSize,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		MaxBodyBytes:    *maxBody,
		MaxBatch:        *maxBatch,
		MaxRunSteps:     *maxRunSteps,
		Cluster:         clusterCfg,
		NoLocalFallback: *noLocalFallback,
	})
	if err != nil {
		fmt.Fprintf(stderr, "amoptd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "amoptd: %v\n", err)
		srv.Close()
		return 1
	}

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          logger,
	}

	// Handle SIGTERM before serving: once /healthz answers, a terminate
	// signal must drain, not kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if *cacheDir != "" {
		logger.Printf("listening on %s (cache %s, %d entries warm)", ln.Addr(), *cacheDir, srv.Store().Len())
	} else {
		logger.Printf("listening on %s (memory-only cache)", ln.Addr())
	}
	if clusterCfg != nil {
		logger.Printf("cluster %s mode, advertising %s, peers %s", clusterCfg.Mode, clusterCfg.Self, strings.Join(clusterCfg.Peers, ","))
	}

	code := 0
	select {
	case err := <-serveErr:
		// The listener died underneath us — not a drain, a failure.
		logger.Printf("serve: %v", err)
		code = 2
	case s := <-sig:
		logger.Printf("received %v, draining (up to %v)", s, *drainTimeout)
		srv.Drain() // healthz -> 503, new work -> 503; in-flight continues
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := hs.Shutdown(ctx)
		cancel()
		if err != nil {
			logger.Printf("drain window expired: %v", err)
			hs.Close()
			code = 2
		}
	}

	if err := srv.Close(); err != nil { // flush the persistent cache index
		logger.Printf("cache flush: %v", err)
		code = 2
	}
	if code == 0 {
		logger.Printf("clean shutdown")
	}
	return code
}
