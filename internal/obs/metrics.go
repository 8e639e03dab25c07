// Package obs is Sia's observability layer: a stdlib-only,
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) exported in Prometheus text exposition format and expvar
// JSON, plus a structured JSONL tracer for CEGIS-loop events.
//
// The paper's evaluation (§6, Table 3) hinges on where synthesis time goes
// — solver sampling vs. SVM fitting vs. verification — and this package is
// what makes those phases visible in a running service: internal/smt,
// internal/core, internal/cache and internal/engine record into metrics
// owned by the Default registry (or a caller-supplied one), and cmd/siad
// serves the result at GET /metrics.
//
// Instruments are lock-free on the hot path (atomic adds; the histogram's
// sum is a CAS loop) and never allocate per update. The Tracer is nil-safe:
// a nil *Tracer's Emit is a no-op that performs zero allocations, so
// instrumented loops pay nothing when tracing is off.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram counts observations into fixed cumulative buckets, in the
// Prometheus style: bucket i counts observations <= Bounds[i], with an
// implicit +Inf bucket at the end. All methods are safe for concurrent use
// and allocation-free.
//
// Reads (Snapshot) are not atomic with respect to concurrent observations:
// a scrape racing an Observe may see the count incremented before the sum.
// The skew is at most the in-flight observations, which is the usual
// contract for scraped metrics.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram returns a histogram over the given strictly increasing
// upper bounds. An empty bounds slice yields a histogram with only the
// +Inf bucket (still a valid count/sum pair).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// First bound >= v: the bucket whose "le" the observation falls under.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	// Lock-free float accumulation: the CAS retries only under
	// concurrent writers, and each retry makes global progress.
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds ("le" values), excluding +Inf.
	Bounds []float64
	// Counts are per-bucket (non-cumulative) counts, one per bound plus a
	// final +Inf bucket.
	Counts []uint64
	// Count and Sum are the total observation count and value sum.
	Count uint64
	Sum   float64
}

// Snapshot returns the histogram's current buckets, count and sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// DurationBuckets are the default bucket bounds (in seconds) for latency
// histograms, spanning 100µs to 10s — solver calls sit at the bottom of
// the range, whole synthesis runs at the top.
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// SizeBuckets are power-of-two bucket bounds for small-count histograms —
// batch group sizes, fan-out widths — spanning 1 to 256.
func SizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
}
