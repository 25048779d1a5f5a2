// Command mincutd serves distributed min-cut computations over
// HTTP/JSON: a bounded worker pool runs the CONGEST protocols, a
// content-addressed cache serves repeat submissions without
// recomputing, and jobs are cancellable while the protocol runs.
//
// Answers are served at tiers (the "tier" request field): "bracket"
// ([lo, hi] bounds in a handful of rounds), "approx" ((1+ε)), "exact"
// (certified), "respect" (Theorem 2.1 alone), and "tiered" — the
// approximation-first flow, whose jobs publish their (1+ε) answer in
// state "refining" and then refine to the exact certified cut in the
// same job. See docs/API.md for the full HTTP reference.
//
// Usage:
//
//	mincutd [-addr :8371] [-pool 4] [-queue 256] [-cache 4096]
//	        [-max-nodes 200000] [-max-edges 2000000] [-drain 30s]
//	        [-default-deadline 0] [-max-job-rounds 0]
//	        [-admit-ceiling 0] [-admit-downtier]
//	        [-shed-tiered 0] [-shed-approx 0] [-shed-bracket 0]
//	        [-log-level info] [-flight 64] [-pprof ""] [-replica ""]
//	        [-version]
//
// In a multi-replica deployment each instance runs with -replica
// <name> behind cmd/mincutgw: the gateway routes submissions by their
// canonical spec hash, health-checks /healthz?check=ready, and drains
// routes away when SIGTERM flips this instance's readiness false while
// its listener keeps serving polls until running jobs finish.
//
// The overload controls: per-job wall-clock and round budgets (jobs
// that trip them land in state "deadline" with partial progress and a
// Retry-After hint), bracket-based admission control (expensive
// exact/tiered requests get a 429 with a typed cost estimate, or are
// auto-degraded with -admit-downtier), and graceful tier degradation
// under queue pressure (exact→tiered→approx→bracket as the queue
// fills). See docs/ARCHITECTURE.md for how the thresholds compose.
//
// Observability (see docs/OBSERVABILITY.md): structured logs go to
// stderr at -log-level; every job keeps an event timeline served as
// Chrome trace-event JSON at /v1/jobs/{id}/trace; -flight sizes the
// per-run flight recorder whose round tail lands in the traces of
// deadline-killed jobs; -pprof exposes net/http/pprof on a separate
// listener, kept off the service port so profiling is never reachable
// through the public API.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (generator spec or edge list)
//	GET    /v1/jobs/{id}        poll state, progress, result
//	GET    /v1/jobs/{id}/trace  job timeline as Chrome trace-event JSON
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/results/{key}    fetch a result by content address
//	GET    /healthz             liveness + build identity (?check=ready for readiness)
//	GET    /metrics             queue depth, cache hit rate, latency histograms
//
// Example session:
//
//	curl -s localhost:8371/v1/jobs -d \
//	  '{"graph":{"family":"planted","n1":24,"n2":24,"k":3,"in_p":0.4,"seed":7}}'
//	curl -s localhost:8371/v1/jobs/j1
//	curl -s localhost:8371/v1/jobs/j1/trace
//	curl -s localhost:8371/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distmincut/internal/service"
)

func main() {
	os.Exit(run())
}

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", s)
	}
	return l, nil
}

// pprofHandler builds the net/http/pprof route table by hand: the
// side listener must expose exactly the profiling routes, not whatever
// else is registered on http.DefaultServeMux.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run() int {
	addr := flag.String("addr", ":8371", "listen address")
	pool := flag.Int("pool", 0, "concurrent protocol runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "max queued jobs before 503")
	cacheEntries := flag.Int("cache", 4096, "result cache entries")
	maxNodes := flag.Int("max-nodes", 0, "max nodes per accepted graph (0 = default)")
	maxEdges := flag.Int("max-edges", 0, "max edges per accepted graph (0 = default)")
	maxBody := flag.Int64("max-body", 0, "max submit body bytes (0 = default)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
	defaultDeadline := flag.Duration("default-deadline", 0, "wall-clock budget applied to jobs without deadline_ms (0 = none)")
	maxJobRounds := flag.Int("max-job-rounds", 0, "CONGEST round budget per protocol run (0 = unlimited)")
	admitCeiling := flag.Int64("admit-ceiling", 0, "admission cost ceiling in estimated round-cost units (0 = admit everything)")
	admitDowntier := flag.Bool("admit-downtier", false, "degrade over-ceiling exact/tiered requests to approx instead of rejecting with 429")
	shedTiered := flag.Float64("shed-tiered", 0, "queue-pressure fraction above which exact degrades to tiered (0 = off)")
	shedApprox := flag.Float64("shed-approx", 0, "queue-pressure fraction above which exact/tiered degrade to approx (0 = off)")
	shedBracket := flag.Float64("shed-bracket", 0, "queue-pressure fraction above which everything degrades to bracket (0 = off)")
	replica := flag.String("replica", "", "replica identity reported on job views and /healthz (empty = single instance)")
	logLevel := flag.String("log-level", "info", "stderr log level: debug, info, warn, or error")
	flight := flag.Int("flight", 0, "flight-recorder ring size in rounds (0 = default 64, negative = off)")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof on this side address (empty = off)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		b := service.ReadBuild()
		fmt.Printf("mincutd %s commit %s %s\n", b.Version, b.Commit, b.GoVersion)
		return 0
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mincutd:", err)
		return 2
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	svc := service.New(service.Options{
		PoolSize:        *pool,
		QueueDepth:      *queue,
		CacheEntries:    *cacheEntries,
		Limits:          service.Limits{MaxNodes: *maxNodes, MaxEdges: *maxEdges},
		DefaultDeadline: *defaultDeadline,
		MaxJobRounds:    *maxJobRounds,
		Admission:       service.AdmissionOptions{CeilingRounds: *admitCeiling, Downtier: *admitDowntier},
		Degrade:         service.DegradeOptions{TieredAt: *shedTiered, ApproxAt: *shedApprox, BracketAt: *shedBracket},
		Logger:          logger,
		FlightRounds:    *flight,
		Replica:         *replica,
	})
	api := service.NewAPI(svc)
	api.MaxBody = *maxBody
	server := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		pprofServer := &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Error("server failed", "err", err)
		return 1
	case sig := <-sigCh:
		logger.Info("signal received, draining", "signal", sig.String(), "budget", *drain)
	}

	// Drain in two stages so the listener outlives the job drain:
	// readiness flips false immediately (BeginDrain: Submit 503s,
	// /healthz?check=ready answers 503, plain /healthz stays 200), but
	// HTTP keeps serving while queued and running jobs finish — a
	// gateway observes the drain and routes around this replica, and
	// clients keep polling their in-flight jobs. Only once the service
	// drain completes (or the budget expires) does the listener close.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	svc.BeginDrain()
	drainErr := svc.Shutdown(ctx)
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	_ = server.Shutdown(httpCtx)
	if drainErr != nil {
		logger.Warn("drain incomplete, running jobs canceled", "err", drainErr)
		return 1
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server failed", "err", err)
		return 1
	}
	logger.Info("drained cleanly")
	return 0
}
