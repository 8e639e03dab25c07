// Package api is the wire contract of the siad serving tier: the versioned
// route table, the typed request/response bodies, the custom headers, and
// the single place where the library's sentinel errors map to HTTP status
// codes (and back). Both sides of every connection — the server in
// internal/serve and the client in internal/serve/client, which is also the
// intra-cluster fan-out transport — import this package, so a request that
// crosses a shard boundary is encoded and classified exactly once.
package api

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/predicate"
)

// Versioned routes.
const (
	PathSynthesize = "/v1/synthesize"
	PathBatch      = "/v1/batch"
	PathStats      = "/v1/stats"
	PathHealthz    = "/healthz"
	PathMetrics    = "/metrics"
)

// Custom headers.
const (
	// TenantHeader names the tenant a request is accounted to for
	// admission control. Absent means the anonymous tenant "".
	TenantHeader = "X-Sia-Tenant"
	// CacheHeader reports the cache outcome of a synthesize response:
	// "hit", "miss" or "batched".
	CacheHeader = "X-Sia-Cache"
	// ShardHeader reports which replica's cache owned the request's key.
	ShardHeader = "X-Sia-Shard"
	// ForwardedHeader marks an intra-cluster proxied request. Forwarding
	// is single-hop: a replica receiving a request with this header serves
	// it locally even when its ring view names another owner, so a
	// transient membership disagreement cannot create a proxy loop.
	ForwardedHeader = "X-Sia-Forwarded"
	// RetryAfterHeader accompanies 429 and 503 responses with the number
	// of seconds after which a retry may be admitted.
	RetryAfterHeader = "Retry-After"
)

// Serving-tier sentinel errors. They extend the library sentinels
// (core.ErrTimeout, core.ErrInvalidOptions — re-exported as sia.ErrTimeout
// and sia.ErrInvalidOptions) with the two conditions only a service has:
// load shed and unavailability. All are matchable with errors.Is on both
// sides of the wire.
var (
	// ErrOverloaded reports that admission control shed the request
	// (tenant rate exceeded or the replica's synthesis capacity is
	// saturated). HTTP 429.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrUnavailable reports that the replica is draining or otherwise
	// refusing new work. HTTP 503.
	ErrUnavailable = errors.New("serve: unavailable")
)

// StatusFor maps an error to its HTTP status. This is the one
// sentinel→status table; the server's error paths and the client's
// status→sentinel inverse (ErrorFor) both derive from it.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalidOptions):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrTimeout):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// ErrorFor is StatusFor's inverse: it reconstructs a sentinel-wrapping
// error from a response status and error body, so a client caller can use
// errors.Is exactly as if it had called the library in-process. Statuses
// in the 4xx request-shape family (400, 404, 405, 413, 415) map to
// core.ErrInvalidOptions: the request, not the service, is at fault.
func ErrorFor(status int, msg string) error {
	if msg == "" {
		msg = http.StatusText(status)
	}
	switch status {
	case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
		http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
		return fmt.Errorf("%w: %s", core.ErrInvalidOptions, msg)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", ErrOverloaded, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, msg)
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%w: %s", core.ErrTimeout, msg)
	default:
		return fmt.Errorf("serve: status %d: %s", status, msg)
	}
}

// SynthesizeRequest is the wire form of one synthesis call. Durations are
// carried as integral milliseconds, matching how query optimizers configure
// solver timeouts.
type SynthesizeRequest struct {
	Predicate string          `json:"predicate"`
	Cols      []string        `json:"cols"`
	Schema    []SchemaColumn  `json:"schema"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	Options   *RequestOptions `json:"options,omitempty"`
}

// SchemaColumn describes one column of the request's inline schema.
type SchemaColumn struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Nullable bool   `json:"nullable,omitempty"`
}

// RequestOptions mirrors sia.Options with durations in milliseconds.
type RequestOptions struct {
	MaxIterations       int   `json:"max_iterations,omitempty"`
	InitialTrue         int   `json:"initial_true,omitempty"`
	InitialFalse        int   `json:"initial_false,omitempty"`
	SamplesPerIteration int   `json:"samples_per_iteration,omitempty"`
	MaxDenominator      int64 `json:"max_denominator,omitempty"`
	NonZeroSamples      bool  `json:"non_zero_samples,omitempty"`
	SolverTimeoutMS     int64 `json:"solver_timeout_ms,omitempty"`
	TimeoutMS           int64 `json:"timeout_ms,omitempty"`
}

// SynthesizeResponse is the wire form of one synthesis result.
type SynthesizeResponse struct {
	// Predicate is the synthesized reduction in SQL syntax, or "" when
	// only the trivial TRUE predicate is valid.
	Predicate    string `json:"predicate"`
	Valid        bool   `json:"valid"`
	Optimal      bool   `json:"optimal"`
	Iterations   int    `json:"iterations"`
	TrueSamples  int    `json:"true_samples"`
	FalseSamples int    `json:"false_samples"`
	GaveUp       string `json:"gave_up,omitempty"`
	// Cached reports whether the response was served without running a
	// synthesis loop in this request (a cache hit or a coalesced join).
	Cached bool `json:"cached"`
	// Batched reports whether the result came from a grouped CEGIS run
	// that served several near-identical requests in one tick. A batched
	// result is valid for this request but may be weaker (less selective)
	// than a dedicated run's, and is never marked optimal.
	Batched   bool  `json:"batched,omitempty"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// Shard names the replica whose cache owns this request's key, when
	// the serving tier runs sharded.
	Shard string `json:"shard,omitempty"`
}

// BatchRequest carries several synthesis requests in one call. Items are
// answered independently: one bad item does not fail the batch.
type BatchRequest struct {
	Items []SynthesizeRequest `json:"items"`
}

// BatchItem is the outcome of one batch element: an HTTP-status-shaped
// per-item code plus either a result or an error message.
type BatchItem struct {
	Status int                 `json:"status"`
	Result *SynthesizeResponse `json:"result,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// BatchResponse answers a BatchRequest, item i answering request i.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// ServeStats extends the original stats payload with the serving tier's
// sharding, batching and admission counters.
type ServeStats struct {
	// Shard is this replica's advertised peer address ("" unsharded).
	Shard string `json:"shard,omitempty"`
	// Peers is the full consistent-hash membership, including self.
	Peers []string `json:"peers,omitempty"`
	// Forwards counts requests proxied to their owning peer; ForwardErrors
	// counts proxy attempts that failed over to local synthesis.
	Forwards      uint64 `json:"forwards"`
	ForwardErrors uint64 `json:"forward_errors"`
	// LocalHits counts peer-owned keys that were served from this
	// replica's cache without the hop (the negative-lookup fast path's
	// positive outcome).
	LocalHits uint64 `json:"local_hits"`
	// Batches counts grouped CEGIS runs; BatchedRequests counts requests
	// answered by one. GroupRuns counts batches whose group held more
	// than one distinct predicate (a disjunction run).
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	GroupRuns       uint64 `json:"group_runs"`
	// ShedTenant and ShedCapacity count requests refused by admission
	// control: per-tenant rate and replica saturation respectively.
	ShedTenant   uint64 `json:"shed_tenant"`
	ShedCapacity uint64 `json:"shed_capacity"`
	// SnapshotSaves and SnapshotRestored count snapshot writes and the
	// entries warmed from disk at boot.
	SnapshotSaves    uint64 `json:"snapshot_saves"`
	SnapshotRestored uint64 `json:"snapshot_restored"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64     `json:"uptime_seconds"`
	Requests      uint64      `json:"requests"`
	Failures      uint64      `json:"failures"`
	Cache         cache.Stats `json:"cache"`
	Serve         ServeStats  `json:"serve"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// BuildSchema converts the wire schema to the library's form. Errors wrap
// core.ErrInvalidOptions so StatusFor maps them to 400.
func BuildSchema(cols []SchemaColumn) (*predicate.Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: schema must declare at least one column", core.ErrInvalidOptions)
	}
	out := make([]predicate.Column, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("%w: schema column %d has no name", core.ErrInvalidOptions, i)
		}
		t, err := ParseType(c.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: column %q: %w", core.ErrInvalidOptions, c.Name, err)
		}
		out[i] = predicate.Column{Name: c.Name, Type: t, NotNull: !c.Nullable}
	}
	return predicate.NewSchema(out...), nil
}

// ParseType converts a wire type name to the library's column type.
func ParseType(s string) (predicate.Type, error) {
	switch strings.ToLower(s) {
	case "int", "integer":
		return predicate.TypeInteger, nil
	case "double", "float":
		return predicate.TypeDouble, nil
	case "date":
		return predicate.TypeDate, nil
	case "timestamp":
		return predicate.TypeTimestamp, nil
	default:
		return 0, fmt.Errorf("unknown type %q (want int, double, date or timestamp)", s)
	}
}

// FormatType is ParseType's inverse, used when a schema travels into a
// snapshot file.
func FormatType(t predicate.Type) string {
	switch t {
	case predicate.TypeInteger:
		return "int"
	case predicate.TypeDouble:
		return "double"
	case predicate.TypeDate:
		return "date"
	case predicate.TypeTimestamp:
		return "timestamp"
	default:
		return "int"
	}
}

// BuildOptions converts wire options to core.Options, applying Validate so
// malformed values fail with core.ErrInvalidOptions.
func BuildOptions(o *RequestOptions) (core.Options, error) {
	if o == nil {
		return core.Options{}, nil
	}
	opts := core.Options{
		MaxIterations:       o.MaxIterations,
		InitialTrue:         o.InitialTrue,
		InitialFalse:        o.InitialFalse,
		SamplesPerIteration: o.SamplesPerIteration,
		MaxDenominator:      o.MaxDenominator,
		NonZeroSamples:      o.NonZeroSamples,
		SolverTimeout:       Millis(o.SolverTimeoutMS),
		Timeout:             Millis(o.TimeoutMS),
	}
	if err := opts.Validate(); err != nil {
		return core.Options{}, err
	}
	return opts, nil
}

// Millis converts a wire millisecond count to a Duration. A count past
// ±292 years saturates instead of wrapping, so its sign survives the
// conversion: time.Duration(ms) * time.Millisecond would turn
// 9223372036855 ms into a negative Duration and 1<<62 ms into zero.
func Millis(ms int64) time.Duration {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	switch {
	case ms > limit:
		return math.MaxInt64
	case ms < -limit:
		return math.MinInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// ResultResponse converts a library result to its wire form. Cached and
// timing fields are the caller's to fill.
func ResultResponse(res *core.Result) SynthesizeResponse {
	resp := SynthesizeResponse{
		Valid:        res.Valid,
		Optimal:      res.Optimal,
		Iterations:   res.Iterations,
		TrueSamples:  res.TrueSamples,
		FalseSamples: res.FalseSamples,
		GaveUp:       string(res.GaveUp),
	}
	if res.Predicate != nil {
		resp.Predicate = res.Predicate.String()
	}
	return resp
}
