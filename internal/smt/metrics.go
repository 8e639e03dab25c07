package smt

import "sia/internal/obs"

// Package-level metrics in the Default registry: the solver's only
// counters, process-wide totals over every Solver. Registered at init so
// every metric name is present in a /metrics scrape even before the first
// query.
var (
	mSatQueries   = obs.Default().Counter("sia_smt_sat_queries_total", "Satisfiability queries answered.")
	mModelQueries = obs.Default().Counter("sia_smt_model_queries_total", "Model-extraction queries answered.")
	mEliminations = obs.Default().Counter("sia_smt_eliminations_total", "Quantifier eliminations performed.")
	mSimplexCuts  = obs.Default().Counter("sia_smt_simplex_cuts_total", "UNSAT answers settled by the rational simplex fast path.")

	mInternHits   = obs.Default().Counter("sia_smt_intern_hits_total", "Hash-cons lookups answered with an existing canonical pointer.")
	mInternMisses = obs.Default().Counter("sia_smt_intern_misses_total", "Hash-cons lookups that inserted a new canonical value.")
	mInternResets = obs.Default().Counter("sia_smt_intern_resets_total", "Interner shard resets (the table's bound was hit).")

	mQEMemoHits      = obs.Default().Counter("sia_smt_qe_memo_hits_total", "Quantifier eliminations answered from the memo cache.")
	mQEMemoMisses    = obs.Default().Counter("sia_smt_qe_memo_misses_total", "Quantifier eliminations computed and offered to the memo cache.")
	mQEMemoEvictions = obs.Default().Counter("sia_smt_qe_memo_evictions_total", "Memoized eliminations dropped by the cache's LRU bound.")
	mQEMemoSkips     = obs.Default().Counter("sia_smt_qe_memo_skips_total", "Elimination results not cached because the call was cancelled or over budget.")

	mQuerySeconds = func() map[string]*obs.Histogram {
		h := map[string]*obs.Histogram{}
		for _, kind := range []string{opQE, opSat, opModel, opEnumerate, opElimination} {
			h[kind] = obs.Default().Histogram("sia_smt_query_seconds",
				"Wall time of public solver calls, by query kind.",
				obs.DurationBuckets(), obs.Label{Key: "kind", Value: kind})
		}
		return h
	}()
)

// Query kinds for the sia_smt_query_seconds histogram, one per public entry
// point (QECtx, SatisfiableCtx, ModelCtx, EnumerateModelsCtx). Entry points
// never call one another, so each call is charged to its own kind only.
const (
	opQE        = "qe"
	opSat       = "sat"
	opModel     = "model"
	opEnumerate = "enumerate"
	// opElimination is charged per outermost eliminate call rather than per
	// public entry point: it is the unit the QE memo cache works at, so its
	// mean is the figure of merit for the SMT fast path (the benchmark's
	// smt.elimination_s).
	opElimination = "elimination"
)

// QueryStat summarizes one kind of the sia_smt_query_seconds histogram.
type QueryStat struct {
	// Count is the number of public solver calls of this kind.
	Count uint64 `json:"count"`
	// SumSeconds is the total wall time across those calls.
	SumSeconds float64 `json:"sum_seconds"`
	// MeanSeconds is SumSeconds / Count (0 when Count is 0).
	MeanSeconds float64 `json:"mean_seconds"`
}

// BenchSnapshot is a point-in-time view of the process-wide solver metrics,
// the form the benchmark (bench/) diffs around a pass to report its smt.*
// metrics.
type BenchSnapshot struct {
	// Query maps query kind (qe, sat, model, enumerate) to its wall-time
	// totals. The "elimination" cost the ROADMAP targets is the sum charged
	// to whichever public kind drove it; per-kind means expose the drop.
	Query map[string]QueryStat `json:"query_seconds"`
	// SatQueries, ModelQueries, Eliminations and SimplexCuts are the
	// solver's process-wide counters.
	SatQueries   uint64 `json:"sat_queries"`
	ModelQueries uint64 `json:"model_queries"`
	Eliminations uint64 `json:"eliminations"`
	SimplexCuts  uint64 `json:"simplex_cuts"`
	// InternHits/Misses/Resets are the hash-cons interner's counters.
	InternHits   uint64 `json:"intern_hits"`
	InternMisses uint64 `json:"intern_misses"`
	InternResets uint64 `json:"intern_resets"`
	// QEMemo* are the quantifier-elimination memo cache's counters.
	QEMemoHits      uint64 `json:"qe_memo_hits"`
	QEMemoMisses    uint64 `json:"qe_memo_misses"`
	QEMemoEvictions uint64 `json:"qe_memo_evictions"`
	QEMemoSkips     uint64 `json:"qe_memo_skips"`
}

// Snapshot returns the current process-wide solver metrics. It reads the
// same instruments a /metrics scrape renders, so numbers agree with the
// Prometheus view modulo in-flight updates.
func Snapshot() BenchSnapshot {
	s := BenchSnapshot{
		Query:           map[string]QueryStat{},
		SatQueries:      mSatQueries.Value(),
		ModelQueries:    mModelQueries.Value(),
		Eliminations:    mEliminations.Value(),
		SimplexCuts:     mSimplexCuts.Value(),
		InternHits:      mInternHits.Value(),
		InternMisses:    mInternMisses.Value(),
		InternResets:    mInternResets.Value(),
		QEMemoHits:      mQEMemoHits.Value(),
		QEMemoMisses:    mQEMemoMisses.Value(),
		QEMemoEvictions: mQEMemoEvictions.Value(),
		QEMemoSkips:     mQEMemoSkips.Value(),
	}
	for kind, h := range mQuerySeconds {
		snap := h.Snapshot()
		qs := QueryStat{Count: snap.Count, SumSeconds: snap.Sum}
		if snap.Count > 0 {
			qs.MeanSeconds = snap.Sum / float64(snap.Count)
		}
		s.Query[kind] = qs
	}
	return s
}
