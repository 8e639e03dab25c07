package engine

import (
	"time"

	"sia/internal/obs"
)

// Process-wide engine metrics in the Default registry. The morsel counter
// is the morsel-driven scheduler's unit of work (§2 of the morsel-driven
// parallelism design in parallel.go); the row counters make filter
// selectivity — the quantity Sia's learned predicates exist to improve —
// directly observable as kept/scanned.
var (
	mMorselsScheduled = obs.Default().Counter("sia_engine_morsels_scheduled_total",
		"Morsels dispatched by the parallel scheduler.")
	mRowsScanned = obs.Default().Counter("sia_engine_rows_scanned_total",
		"Rows a predicate was evaluated on: by a filter, a join's side predicate, or a join's residual (per matched pair), or proven TRUE on by zone maps.")
	mRowsKept = obs.Default().Counter("sia_engine_rows_kept_total",
		"Rows (or matched pairs) a predicate accepted.")

	mOperatorSeconds = func() map[string]*obs.Histogram {
		m := map[string]*obs.Histogram{}
		for _, op := range []string{opFilter, opJoin, opAggregate, opProject} {
			m[op] = obs.Default().Histogram("sia_engine_operator_seconds",
				"Wall time of engine operator invocations, by operator.",
				obs.DurationBuckets(), obs.Label{Key: "op", Value: op})
		}
		return m
	}()
)

// Operator names for the sia_engine_operator_seconds histogram.
const (
	opFilter    = "filter"
	opJoin      = "join"
	opAggregate = "aggregate"
	opProject   = "project"
)

// countFiltered records one predicate evaluation over scanned rows (or
// matched pairs) that accepted kept of them.
func countFiltered(scanned, kept int) {
	mRowsScanned.Add(uint64(scanned))
	mRowsKept.Add(uint64(kept))
}

// observeOp records one operator invocation's wall time; used as
// `defer observeOp(op, time.Now())`.
func observeOp(op string, start time.Time) {
	mOperatorSeconds[op].Observe(time.Since(start).Seconds())
}
