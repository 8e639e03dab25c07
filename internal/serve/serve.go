// Package serve implements the siad serving tier: the versioned v1 HTTP
// API over the synthesis cache, consistent-hash sharding across replicas
// with single-hop forwarding, per-tick request batching beyond
// singleflight, token-bucket admission control with per-tenant fairness,
// and cache snapshot/restore so a restarted replica warms instantly.
// cmd/siad is a thin flag-parsing wrapper around this package; the wire
// types and status mapping live in internal/serve/api, shared with the
// client in internal/serve/client (which is also the peer transport).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/obs"
	"sia/internal/predicate"
	"sia/internal/serve/api"
	"sia/internal/serve/client"
)

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// zero: 1 MiB fits any plausible predicate and schema with room to spare.
const DefaultMaxBodyBytes = 1 << 20

// Config configures one replica.
type Config struct {
	// Capacity bounds the synthesis cache (cache.DefaultCapacity if <= 0).
	Capacity int
	// DefaultTimeout applies when a request sets no timeout_ms;
	// MaxTimeout caps client-requested deadlines.
	DefaultTimeout, MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies (413 past it); DefaultMaxBodyBytes
	// when zero.
	MaxBodyBytes int64
	// Logger receives access logs and lifecycle events (JSON to stderr
	// when nil). Replaceable later with SetLogger.
	Logger *slog.Logger
	// Pprof exposes /debug/pprof/ when set.
	Pprof bool

	// Self is this replica's advertised peer address; Peers is the full
	// cluster membership including Self. Both empty means unsharded.
	Self  string
	Peers []string

	// BatchTick is the batching window; 0 disables grouping (requests go
	// straight to the cache, which still singleflights).
	BatchTick time.Duration

	// TenantRate is the per-tenant admission rate in requests/second
	// (0 = unlimited); TenantBurst the bucket size (default 1).
	TenantRate  float64
	TenantBurst int
	// MaxInflight caps concurrently running synthesis computations;
	// cache misses past it are shed with 429 (0 = unlimited).
	MaxInflight int

	// SnapshotPath enables cache snapshot/restore: loaded at New,
	// written every SnapshotInterval (if > 0) and by WriteSnapshot
	// (which the drain path calls).
	SnapshotPath     string
	SnapshotInterval time.Duration
}

// Server is one serving-tier replica.
type Server struct {
	cfg      Config
	synth    *cache.Synthesizer
	start    time.Time
	logger   atomic.Pointer[slog.Logger]
	draining atomic.Bool

	ring  *ring
	peers map[string]*client.Client
	batch *batcher
	adm   *admission

	reg      *obs.Registry
	requests *obs.Counter
	failures *obs.Counter
	latency  map[string]*obs.Histogram

	forwards     *obs.Counter
	forwardErrs  *obs.Counter
	localHits    *obs.Counter
	shedTenant   *obs.Counter
	shedCapacity *obs.Counter
	snapSaves    *obs.Counter
	snapRestored *obs.Counter

	stopOnce sync.Once
	stopCh   chan struct{}
	loopDone chan struct{}
}

// Endpoints with their own latency series; anything else lands in "other"
// so label cardinality stays bounded.
var knownPaths = []string{
	api.PathSynthesize, api.PathBatch, api.PathStats,
	api.PathHealthz, api.PathMetrics, "/debug/vars", "other",
}

// New builds a replica: wires the cache, ring, batcher, admission and
// metrics, restores the snapshot if one is configured, and starts the
// periodic snapshot loop. Close stops the loop; the handler itself is
// stateless beyond the server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	s := &Server{
		cfg:    cfg,
		synth:  cache.NewSynthesizer(cfg.Capacity),
		start:  time.Now(),
		stopCh: make(chan struct{}),
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	s.logger.Store(logger)

	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			return nil, fmt.Errorf("serve: -peers given without -self")
		}
		s.ring = newRing(cfg.Peers)
		found := false
		s.peers = map[string]*client.Client{}
		for _, p := range s.ring.peers {
			if p == cfg.Self {
				found = true
				continue
			}
			s.peers[p] = client.New(p, client.WithRetries(0))
		}
		if !found {
			return nil, fmt.Errorf("serve: self %q is not in the peer list", cfg.Self)
		}
	}

	s.adm = newAdmission(cfg.TenantRate, cfg.TenantBurst, cfg.MaxInflight)
	s.batch = newBatcher(cfg.BatchTick, s.synth, cfg.MaxTimeout)

	if err := s.registerMetrics(); err != nil {
		return nil, err
	}

	if cfg.SnapshotPath != "" {
		n, err := s.loadSnapshot(cfg.SnapshotPath)
		if err != nil {
			logger.Warn("snapshot restore failed; cold start", "path", cfg.SnapshotPath, "err", err.Error())
		} else if n > 0 {
			logger.Info("snapshot restored", "path", cfg.SnapshotPath, "entries", n)
		}
		s.snapRestored.Add(uint64(n))
		if cfg.SnapshotInterval > 0 {
			s.loopDone = make(chan struct{})
			go s.snapshotLoop()
		}
	}
	return s, nil
}

func (s *Server) registerMetrics() error {
	reg := obs.NewRegistry()
	s.reg = reg
	s.requests = reg.Counter("sia_http_requests_total", "HTTP requests served.")
	s.failures = reg.Counter("sia_http_failures_total", "HTTP requests answered with status >= 400.")
	s.latency = map[string]*obs.Histogram{}
	for _, p := range knownPaths {
		s.latency[p] = reg.Histogram("sia_http_request_seconds",
			"HTTP request latency by endpoint.", obs.DurationBuckets(),
			obs.Label{Key: "path", Value: p})
	}
	s.forwards = reg.Counter("sia_serve_shard_forwards_total", "Requests proxied to their owning peer.")
	s.forwardErrs = reg.Counter("sia_serve_shard_forward_errors_total", "Peer proxy attempts that failed over to local synthesis.")
	s.localHits = reg.Counter("sia_serve_shard_local_hits_total", "Peer-owned keys served from the local cache without the hop.")
	s.shedTenant = reg.Counter("sia_serve_shed_total", "Requests shed by admission control.", obs.Label{Key: "reason", Value: "tenant"})
	s.shedCapacity = reg.Counter("sia_serve_shed_total", "Requests shed by admission control.", obs.Label{Key: "reason", Value: "capacity"})
	s.snapSaves = reg.Counter("sia_serve_snapshot_saves_total", "Cache snapshots written.")
	s.snapRestored = reg.Counter("sia_serve_snapshot_restored_entries_total", "Cache entries warmed from a snapshot at boot.")
	s.batch.batches = reg.Counter("sia_serve_batches_total", "Batch group firings.")
	s.batch.batchReqs = reg.Counter("sia_serve_batched_requests_total", "Requests answered by a grouped run instead of their own.")
	s.batch.groupRuns = reg.Counter("sia_serve_group_runs_total", "Batch firings that ran a multi-predicate disjunction.")
	s.batch.sizes = reg.Histogram("sia_serve_batch_size", "Members per batch group firing.", obs.SizeBuckets())
	// A fresh registry cannot already hold these names; a failure here is
	// a programmer error, not a runtime condition.
	if err := s.synth.RegisterMetrics(reg); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := reg.GaugeFunc("sia_process_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() }); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// SetLogger swaps the access-log/lifecycle logger. Safe concurrently with
// request handling.
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.logger.Store(l)
	}
}

// Synth exposes the underlying synthesizer (stats, tests).
func (s *Server) Synth() *cache.Synthesizer { return s.synth }

// StartDrain flips the drain flag: new synthesis work is refused with 503
// and the liveness probe fails so load balancers drain the replica.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Close stops the periodic snapshot loop (if any). It does not write a
// final snapshot; the drain path does that explicitly via WriteSnapshot.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	if s.loopDone != nil {
		<-s.loopDone
	}
}

// WriteSnapshot persists the cache to the configured snapshot path
// atomically, returning the entry count. A no-op (0, nil) without a path.
func (s *Server) WriteSnapshot() (int, error) {
	if s.cfg.SnapshotPath == "" {
		return 0, nil
	}
	n, err := s.writeSnapshot(s.cfg.SnapshotPath)
	if err == nil {
		s.snapSaves.Inc()
	}
	return n, err
}

func (s *Server) snapshotLoop() {
	defer close(s.loopDone)
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n, err := s.WriteSnapshot(); err != nil {
				s.logger.Load().Warn("snapshot write failed", "err", err.Error())
			} else {
				s.logger.Load().Info("snapshot written", "entries", n)
			}
		case <-s.stopCh:
			return
		}
	}
}

// Handler returns the replica's HTTP handler: the v1 routes, probes,
// metrics and optional pprof, all wrapped in the metrics/access-log
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathSynthesize, s.handleSynthesize)
	mux.HandleFunc(api.PathBatch, s.handleBatch)
	mux.HandleFunc(api.PathStats, s.handleStats)
	mux.HandleFunc(api.PathHealthz, s.handleHealthz)
	mux.HandleFunc(api.PathMetrics, s.handleMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux with request counting, per-endpoint latency
// histograms, and one structured access-log line per request. Counters
// are bumped after the handler returns, so a /v1/stats request reports the
// state before itself.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)

		path := r.URL.Path
		if _, ok := s.latency[path]; !ok {
			path = "other"
		}
		s.requests.Inc()
		if rec.status >= 400 {
			s.failures.Inc()
		}
		s.latency[path].Observe(elapsed.Seconds())

		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("duration", elapsed),
		}
		if tenant := r.Header.Get(api.TenantHeader); tenant != "" {
			attrs = append(attrs, slog.String("tenant", tenant))
		}
		if outcome := rec.Header().Get(api.CacheHeader); outcome != "" {
			attrs = append(attrs, slog.String("cache", outcome))
		}
		if shard := rec.Header().Get(api.ShardHeader); shard != "" {
			attrs = append(attrs, slog.String("shard", shard))
		}
		s.logger.Load().LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set(api.RetryAfterHeader, "5")
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return
	}
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	if status, err := checkContentType(r); err != nil {
		s.fail(w, status, err)
		return
	}
	tenant := r.Header.Get(api.TenantHeader)
	forwarded := r.Header.Get(api.ForwardedHeader) != ""

	// Admission before the body is read: shed work while it is still
	// cheap. Forwarded requests were admitted at their ingress replica.
	if !forwarded {
		if ok, retry := s.adm.admit(tenant); !ok {
			s.shedTenant.Inc()
			w.Header().Set(api.RetryAfterHeader, retryAfterSeconds(retry))
			s.fail(w, http.StatusTooManyRequests,
				fmt.Errorf("%w: tenant %q over rate", api.ErrOverloaded, tenant))
			return
		}
	}

	var req api.SynthesizeRequest
	if status, err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.fail(w, status, err)
		return
	}
	resp, outcome, retryAfter, err := s.process(r.Context(), req, tenant, forwarded)
	if err != nil {
		if retryAfter != "" {
			w.Header().Set(api.RetryAfterHeader, retryAfter)
		}
		s.fail(w, api.StatusFor(err), err)
		return
	}
	if outcome != "" {
		w.Header().Set(api.CacheHeader, outcome)
	}
	if resp.Shard != "" {
		w.Header().Set(api.ShardHeader, resp.Shard)
	}
	writeJSON(w, http.StatusOK, resp)
}

// process answers one parsed-from-the-wire synthesis request: parse,
// deadline, shard route, admission of the miss, batch/synthesize. The
// returned outcome is the X-Sia-Cache value; retryAfter (seconds, as a
// header value) accompanies ErrOverloaded.
func (s *Server) process(ctx context.Context, req api.SynthesizeRequest, tenant string, forwarded bool) (resp api.SynthesizeResponse, outcome, retryAfter string, err error) {
	pr, err := s.parse(req)
	if err != nil {
		return resp, "", "", err
	}
	ctx, cancel := context.WithTimeout(ctx, pr.timeout)
	defer cancel()

	start := time.Now()
	owner := s.cfg.Self
	if s.ring != nil {
		owner = s.ring.owner(pr.key)
	}

	// Local lookup first — the one Peek on this path. For a peer-owned
	// key this is the negative-lookup fast path: a positive answer skips
	// the network hop entirely; only a negative one forwards.
	if res, ok := s.synth.Peek(pr.key); ok {
		if owner != s.cfg.Self {
			s.localHits.Inc()
		}
		resp = api.ResultResponse(res)
		resp.Cached = true
		resp.ElapsedMS = time.Since(start).Milliseconds()
		resp.Shard = owner
		return resp, "hit", "", nil
	}

	if s.ring != nil && owner != s.cfg.Self && !forwarded {
		if resp, outcome, err := s.forward(ctx, req, tenant, owner, start); err == nil || errors.Is(err, api.ErrOverloaded) || errors.Is(err, core.ErrInvalidOptions) {
			// Definite answers (success, shed, bad request) relay as-is;
			// transport failures fall through to local synthesis.
			return resp, outcome, "", err
		}
		s.forwardErrs.Inc()
	}

	// A miss is about to consume a synthesis slot; shed instead of
	// queueing when the replica is saturated.
	if !s.adm.tryAcquire() {
		s.shedCapacity.Inc()
		return resp, "", "1", fmt.Errorf("%w: synthesis capacity saturated", api.ErrOverloaded)
	}
	defer s.adm.release()

	out := s.batch.do(ctx, pr)
	if out.err != nil {
		return resp, "", "", out.err
	}
	resp = api.ResultResponse(out.res)
	resp.Cached = out.cached
	resp.Batched = out.batched
	resp.ElapsedMS = time.Since(start).Milliseconds()
	if s.ring != nil {
		resp.Shard = s.cfg.Self
	}
	switch {
	case out.batched:
		outcome = "batched"
	case out.cached:
		outcome = "hit"
	default:
		outcome = "miss"
	}
	return resp, outcome, "", nil
}

// forward proxies one request to its owning peer, single-hop.
func (s *Server) forward(ctx context.Context, req api.SynthesizeRequest, tenant, owner string, start time.Time) (api.SynthesizeResponse, string, error) {
	s.forwards.Inc()
	peer := s.peers[owner]
	if peer == nil {
		return api.SynthesizeResponse{}, "", fmt.Errorf("serve: no client for peer %q", owner)
	}
	resp, meta, err := peer.Forward(ctx, req, tenant)
	if err != nil {
		return api.SynthesizeResponse{}, "", err
	}
	out := *resp
	out.Shard = owner
	out.ElapsedMS = time.Since(start).Milliseconds()
	return out, meta.CacheOutcome, nil
}

// parse validates the wire request into the internal form. A requested
// deadline is capped at MaxTimeout; none means DefaultTimeout.
func (s *Server) parse(req api.SynthesizeRequest) (parsedRequest, error) {
	var pr parsedRequest
	timeout := s.cfg.DefaultTimeout
	switch {
	case req.TimeoutMS < 0:
		return pr, fmt.Errorf("%w: timeout_ms must be positive", core.ErrInvalidOptions)
	case req.TimeoutMS > 0:
		timeout = min(api.Millis(req.TimeoutMS), s.cfg.MaxTimeout)
	}
	schema, err := api.BuildSchema(req.Schema)
	if err != nil {
		return pr, err
	}
	pred, err := predicate.Parse(req.Predicate, schema)
	if err != nil {
		return pr, fmt.Errorf("%w: parsing predicate: %w", core.ErrInvalidOptions, err)
	}
	opts, err := api.BuildOptions(req.Options)
	if err != nil {
		return pr, err
	}
	key, ok := cache.KeyFor(pred, req.Cols, schema, opts)
	if !ok {
		// Wire requests cannot carry a Tracer, so every one
		// is cacheable; reaching here is a programmer error.
		return pr, fmt.Errorf("serve: request unexpectedly uncacheable")
	}
	pr = parsedRequest{pred: pred, cols: req.Cols, schema: schema, opts: opts, key: key, timeout: timeout}
	return pr, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set(api.RetryAfterHeader, "5")
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return
	}
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	if status, err := checkContentType(r); err != nil {
		s.fail(w, status, err)
		return
	}
	var req api.BatchRequest
	if status, err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.fail(w, status, err)
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("%w: batch has no items", core.ErrInvalidOptions))
		return
	}
	tenant := r.Header.Get(api.TenantHeader)
	forwarded := r.Header.Get(api.ForwardedHeader) != ""

	// Items run concurrently so the batcher can group them within one
	// tick — that is the endpoint's point. Each item is admitted (one
	// token each: a 100-item batch is 100 requests' worth of budget) and
	// answered independently.
	// len(req.Items) is bounded by the MaxBodyBytes cap that decodeBody
	// applies before the request can parse at all.
	out := api.BatchResponse{Items: make([]api.BatchItem, len(req.Items))}
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !forwarded {
				if ok, _ := s.adm.admit(tenant); !ok {
					s.shedTenant.Inc()
					out.Items[i] = api.BatchItem{
						Status: http.StatusTooManyRequests,
						Error:  fmt.Sprintf("tenant %q over rate", tenant),
					}
					return
				}
			}
			resp, _, _, err := s.process(r.Context(), req.Items[i], tenant, forwarded)
			if err != nil {
				out.Items[i] = api.BatchItem{Status: api.StatusFor(err), Error: err.Error()}
				return
			}
			out.Items[i] = api.BatchItem{Status: http.StatusOK, Result: &resp}
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the Prometheus exposition: this server's registry
// (request counters, latency, cache, shard/batch/shed series) merged with
// the process-wide Default registry (synthesis, solver, engine).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, s.reg, obs.Default())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Value(),
		Failures:      s.failures.Value(),
		Cache:         s.synth.Stats(),
		Serve: api.ServeStats{
			Shard:            s.cfg.Self,
			Peers:            s.peerList(),
			Forwards:         s.forwards.Value(),
			ForwardErrors:    s.forwardErrs.Value(),
			LocalHits:        s.localHits.Value(),
			Batches:          s.batch.batches.Value(),
			BatchedRequests:  s.batch.batchReqs.Value(),
			GroupRuns:        s.batch.groupRuns.Value(),
			ShedTenant:       s.shedTenant.Value(),
			ShedCapacity:     s.shedCapacity.Value(),
			SnapshotSaves:    s.snapSaves.Value(),
			SnapshotRestored: s.snapRestored.Value(),
		},
	})
}

func (s *Server) peerList() []string {
	if s.ring == nil {
		return nil
	}
	return s.ring.peers
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, api.ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// checkContentType enforces JSON bodies: a POST carrying an explicit
// non-JSON media type is refused with 415. An absent Content-Type is
// accepted (curl-without-headers ergonomics); a malformed one is not.
func checkContentType(r *http.Request) (int, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return 0, nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return http.StatusUnsupportedMediaType,
			fmt.Errorf("%w: malformed Content-Type %q", core.ErrInvalidOptions, ct)
	}
	if mt != "application/json" {
		return http.StatusUnsupportedMediaType,
			fmt.Errorf("%w: Content-Type %q unsupported (use application/json)", core.ErrInvalidOptions, mt)
	}
	return 0, nil
}

// decodeBody reads one JSON value from the request under the body cap:
// 413 past the cap, 400 for malformed or unknown-field JSON.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("%w: request body exceeds %d bytes", core.ErrInvalidOptions, tooLarge.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("%w: decoding request: %w", core.ErrInvalidOptions, err)
	}
	return 0, nil
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
