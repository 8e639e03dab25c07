// Command siad serves predicate synthesis over HTTP: a long-lived process
// that amortizes Sia's synthesis cost across recurring queries (§6.2 of the
// paper argues reuse is the common case). The serving logic lives in
// internal/serve; this command is flag parsing, signal handling and process
// lifecycle.
//
// Endpoints (see docs/API.md):
//
//	POST /v1/synthesize — synthesize a reduction (JSON in, JSON out)
//	POST /v1/batch      — several requests in one call, answered per item
//	GET  /v1/stats      — uptime, request counts, cache + serving counters
//	GET  /healthz       — liveness probe (503 while draining)
//	GET  /metrics       — Prometheus text exposition
//	GET  /debug/vars    — expvar JSON (includes the sia_metrics snapshot)
//	GET  /debug/pprof/  — run-time profiles (only with -pprof)
//
// Replicas: -peers lists the full cluster membership and -self this
// replica's own advertised address; the synthesis cache is then partitioned
// across the cluster by consistent hashing, with misses on peer-owned keys
// forwarded single-hop to their owner. -snapshot persists the cache across
// restarts; -batch-tick groups near-identical requests into shared CEGIS
// runs; -tenant-rate/-tenant-burst/-max-inflight shed load before it
// queues.
//
// The process shuts down gracefully: SIGINT or SIGTERM stops accepting new
// synthesis work (503), fails the liveness probe so load balancers drain
// the instance, waits up to -drain-timeout for in-flight requests, writes a
// final cache snapshot (when -snapshot is set) and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sia/internal/cache"
	"sia/internal/obs"
	"sia/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "localhost:8080", "listen address")
	capacity := flag.Int("cache", cache.DefaultCapacity, "result-cache capacity (entries)")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "per-request deadline when the client sets none")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "upper bound on client-requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body cap in bytes (413 past it)")

	self := flag.String("self", "", "this replica's advertised address (required with -peers)")
	peers := flag.String("peers", "", "comma-separated cluster membership, including -self (empty = unsharded)")
	batchTick := flag.Duration("batch-tick", 0, "window for grouping near-identical requests into one CEGIS run (0 = disabled)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admitted requests/second (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 8, "per-tenant token-bucket size")
	maxInflight := flag.Int("max-inflight", 0, "concurrent synthesis cap; misses past it are shed with 429 (0 = unlimited)")
	snapshot := flag.String("snapshot", "", "cache snapshot path: restored at boot, written periodically and on drain")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "how often the snapshot is rewritten (with -snapshot)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	srv, err := serve.New(serve.Config{
		Capacity:         *capacity,
		DefaultTimeout:   *defaultTimeout,
		MaxTimeout:       *maxTimeout,
		MaxBodyBytes:     *maxBody,
		Logger:           logger,
		Pprof:            *enablePprof,
		Self:             *self,
		Peers:            splitPeers(*peers),
		BatchTick:        *batchTick,
		TenantRate:       *tenantRate,
		TenantBurst:      *tenantBurst,
		MaxInflight:      *maxInflight,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapshotInterval,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer srv.Close()
	obs.PublishExpvar()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("siad listening", "addr", *addr, "cache_capacity", *capacity,
			"pprof", *enablePprof, "self", *self, "peers", *peers,
			"batch_tick", batchTick.String(), "snapshot", *snapshot)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("siad server failed", "err", err.Error())
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	// Drain: refuse new synthesis work, fail the liveness probe, wait for
	// in-flight requests up to the drain budget, then persist the cache so
	// the restarted replica warms instantly.
	stop()
	srv.StartDrain()
	logger.Info("siad draining", "drain_timeout", drainTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	if n, err := srv.WriteSnapshot(); err != nil {
		logger.Error("final snapshot failed", "err", err.Error())
	} else if *snapshot != "" {
		logger.Info("final snapshot written", "entries", n)
	}
	if shutdownErr != nil {
		logger.Error("siad shutdown incomplete", "err", shutdownErr.Error())
		return 1
	}
	logger.Info("siad stopped")
	return 0
}

func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
