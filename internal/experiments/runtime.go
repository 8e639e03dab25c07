package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/engine"
	"sia/internal/plan"
	"sia/internal/predicate"
	"sia/internal/sql"
	"sia/internal/storage"
	"sia/internal/tpch"
	"sia/internal/workload"
)

// fig9Synth is the synthesis cache Fig9's Sia rule runs through. Synthesis
// is data-independent, so repeated runs (multiple scale factors, -all
// invocations, reruns with a larger query count sharing a seed prefix)
// reuse earlier results instead of re-running CEGIS loops. SynthesisSweep
// deliberately does NOT use it: its records report per-variant synthesis
// times, which a cache hit would fake.
var fig9Synth = cache.NewSynthesizer(0)

// RuntimeRecord is one query's runtime comparison at one scale factor
// (a point in Fig. 9's scatter plots).
type RuntimeRecord struct {
	QueryID     int
	ScaleFactor float64
	// Rewritten reports whether Sia produced a valid lineitem-side
	// predicate for this query (the paper's "114 of 200").
	Rewritten bool
	// SynthesisErr is the error text of a failed Sia rewrite (empty when
	// the rule succeeded). A failed synthesis is not silent: the query
	// runs unrewritten, and the render surfaces the error count.
	SynthesisErr string
	// Synthesized is the predicate pushed below the join (nil if none).
	Synthesized predicate.Predicate
	// Original and RewrittenTime are the measured execution times.
	Original, RewrittenTime time.Duration
	// OrigStorage and RwStorage are the two plans' storage activity per
	// execution (segments scanned and pruned, bytes read). Both are zero
	// over in-memory tables.
	OrigStorage, RwStorage storage.CounterSnapshot
	// Selectivity of the synthesized predicate on lineitem (Table 4).
	Selectivity float64
	// Rows returned (identical for both plans — checked).
	OutputRows int
}

// Speedup returns original/rewritten (>1 means the rewrite won).
func (r RuntimeRecord) Speedup() float64 {
	if r.RewrittenTime == 0 {
		return 1
	}
	return float64(r.Original) / float64(r.RewrittenTime)
}

// Fig9 runs the end-to-end runtime experiment: every benchmark query is
// planned, rewritten by the Sia rule (plan.SiaRewrite), and both plans are
// executed on the engine over in-memory tables at each scale factor.
func Fig9(cfg Config) ([]RuntimeRecord, error) {
	return fig9(cfg, func(sf float64) (mem, cat *plan.Catalog, err error) {
		orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: sf})
		mem = memCatalog(orders, lineitem)
		return mem, mem, nil
	})
}

func memCatalog(orders, lineitem *engine.Table) *plan.Catalog {
	cat := plan.NewCatalog()
	cat.Add(orders)
	cat.Add(lineitem)
	return cat
}

// fig9 is the one runtime loop behind Fig9 and Fig9Disk. build returns, per
// scale factor, the in-memory catalog of the generated data (the reference)
// and the catalog the plans are measured over. When the two differ, the
// measured catalog's tables and its first query's result must equal the
// reference's.
func fig9(cfg Config, build func(sf float64) (mem, cat *plan.Catalog, err error)) ([]RuntimeRecord, error) {
	cfg = cfg.withDefaults()
	queries := workload.Generate(workload.Config{N: cfg.Queries, Seed: cfg.Seed})
	opts := core.PresetSIA()
	opts.MaxIterations = cfg.MaxIterations
	opts.Tracer = cfg.Tracer // a tracer bypasses fig9Synth's memoization

	const runs = 3
	// perRun is the storage activity of one of the runs executions since
	// before.
	perRun := func(before storage.CounterSnapshot) storage.CounterSnapshot {
		d := storage.SnapshotCounters().Sub(before)
		return storage.CounterSnapshot{
			SegmentsScanned: d.SegmentsScanned / runs,
			SegmentsPruned:  d.SegmentsPruned / runs,
			BytesRead:       d.BytesRead / runs,
		}
	}
	var out []RuntimeRecord
	for _, sf := range cfg.ScaleFactors {
		mem, cat, err := build(sf)
		if err != nil {
			return nil, err
		}
		if cat != mem {
			if err := sameTables(mem, cat, cfg.Parallelism); err != nil {
				return nil, err
			}
		}
		lineitem, err := mem.Table("lineitem")
		if err != nil {
			return nil, err
		}
		plans, err := planAll(queries, cat, opts)
		if err != nil {
			return nil, err
		}
		for i, q := range queries {
			p := plans[i]
			rec := RuntimeRecord{QueryID: q.ID, ScaleFactor: sf}
			if p.err != nil {
				rec.SynthesisErr = p.err.Error()
			}
			before := storage.SnapshotCounters()
			origTable, origStats, err := executeBest(p.orig, cat, runs, cfg.Parallelism)
			if err != nil {
				return nil, fmt.Errorf("experiments: execute query %d: %w", q.ID, err)
			}
			rec.OrigStorage = perRun(before)
			rec.Original = origStats.Elapsed
			rec.OutputRows = origTable.NumRows()

			// The first query at each scale factor is additionally checked
			// value-identical against the in-memory engine end to end.
			if i == 0 && cat != mem {
				memTable, _, err := executeBest(p.orig, mem, 1, cfg.Parallelism)
				if err != nil {
					return nil, err
				}
				if !engine.TablesEqual(memTable, origTable) {
					return nil, fmt.Errorf("experiments: query %d result differs from the in-memory engine", q.ID)
				}
			}

			if p.synthesized != nil {
				rec.Rewritten = true
				rec.Synthesized = p.synthesized
				rec.Selectivity = selectivity(lineitem, p.synthesized)
				before := storage.SnapshotCounters()
				rwTable, rwStats, err := executeBest(p.rw, cat, runs, cfg.Parallelism)
				if err != nil {
					return nil, fmt.Errorf("experiments: execute rewritten %d: %w", q.ID, err)
				}
				rec.RwStorage = perRun(before)
				// The rewrite may reorder join output (the smaller lineitem
				// side can flip build/probe roles), so compare as row
				// multisets rather than byte-for-byte.
				if !sameRows(rwTable, origTable) {
					return nil, fmt.Errorf("experiments: query %d rewrite changed results: %d vs %d rows",
						q.ID, rwTable.NumRows(), origTable.NumRows())
				}
				rec.RewrittenTime = rwStats.Elapsed
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// fig9Plan is one benchmark query planned with and without the Sia rule.
type fig9Plan struct {
	// orig is the plan after plain pushdown, which moves nothing to
	// lineitem by the workload's construction.
	orig plan.Node
	// rw is the plan after the Sia rule and pushdown, and synthesized the
	// lineitem-side predicate the rule added; both are nil when the rule
	// synthesized none.
	rw          plan.Node
	synthesized predicate.Predicate
	// err is the rule's failure: the query then runs unrewritten.
	err error
}

// planAll plans every query over cat and applies plan.SiaRewrite to each,
// up to GOMAXPROCS queries at a time. The pass is off the measured clock,
// and its synthesis goes through fig9Synth, so after the first scale
// factor it runs no CEGIS loop.
func planAll(queries []workload.Query, cat *plan.Catalog, opts core.Options) ([]fig9Plan, error) {
	lineitem, err := cat.Schema("lineitem")
	if err != nil {
		return nil, err
	}
	nodes := make([]plan.Node, len(queries))
	plans := make([]fig9Plan, len(queries))
	for i, q := range queries {
		parsed, err := sql.Parse(q.SQL(), cat)
		if err != nil {
			return nil, fmt.Errorf("experiments: parse query %d: %w", q.ID, err)
		}
		if nodes[i], err = parsed.Plan(cat); err != nil {
			return nil, fmt.Errorf("experiments: plan query %d: %w", q.ID, err)
		}
		plans[i].orig = plan.PushDownFilters(nodes[i])
	}
	schema := tpch.JoinSchema()
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range plans {
		wg.Add(1)
		go func(p *fig9Plan, node plan.Node) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rw, infos, err := plan.SiaRewrite(context.Background(), node, schema, fig9Synth, opts)
			if err != nil {
				p.err = err
				return
			}
			for _, info := range infos {
				if _, onLineitem := lineitem.Lookup(info.Cols[0]); onLineitem && info.Result.Predicate != nil && info.Result.Valid {
					p.rw, p.synthesized = plan.PushDownFilters(rw), info.Result.Predicate
				}
			}
		}(&plans[i], nodes[i])
	}
	wg.Wait()
	return plans, nil
}

// sameTables checks that every table of the reference catalog reads back
// unchanged through the measured catalog's sources.
func sameTables(mem, cat *plan.Catalog, parallelism int) error {
	for _, name := range []string{"orders", "lineitem"} {
		want, err := mem.Table(name)
		if err != nil {
			return err
		}
		src, err := cat.Source(name)
		if err != nil {
			return err
		}
		got, err := src.Scan(engine.ScanSpec{}, parallelism)
		if err != nil {
			return err
		}
		if !engine.TablesEqual(want, got) {
			return fmt.Errorf("experiments: table %s differs from the in-memory data", name)
		}
	}
	return nil
}

// sameRows reports whether two tables hold the same rows as multisets,
// ignoring row order (join output order is plan-dependent).
func sameRows(a, b *engine.Table) bool {
	if a.NumRows() != b.NumRows() {
		return false
	}
	cols := a.Schema().Columns()
	var buf []byte // one row's values, fixed width per column
	fingerprint := func(t *engine.Table, row int) []byte {
		buf = buf[:0]
		for _, c := range cols {
			v := t.Value(row, c.Name)
			if v.Null {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Real))
		}
		return buf
	}
	counts := make(map[string]int, a.NumRows())
	for r := 0; r < a.NumRows(); r++ {
		counts[string(fingerprint(a, r))]++
	}
	for r := 0; r < b.NumRows(); r++ {
		k := string(fingerprint(b, r))
		counts[k]--
		if counts[k] == 0 {
			delete(counts, k)
		}
	}
	return len(counts) == 0
}

// executeBest runs a plan repeatedly and returns the fastest run (the
// stable estimate of the plan's cost) plus the result table for the
// equivalence check.
func executeBest(n plan.Node, cat *plan.Catalog, runs, parallelism int) (*engine.Table, *plan.ExecStats, error) {
	var bestTable *engine.Table
	var bestStats *plan.ExecStats
	for i := 0; i < runs; i++ {
		table, stats, err := plan.ExecuteOpts(n, cat, plan.ExecOptions{Parallelism: parallelism})
		if err != nil {
			return nil, nil, err
		}
		if bestStats == nil || stats.Elapsed < bestStats.Elapsed {
			bestTable, bestStats = table, stats
		}
	}
	return bestTable, bestStats, nil
}

// selectivity measures the fraction of lineitem rows the predicate keeps.
func selectivity(lineitem *engine.Table, p predicate.Predicate) float64 {
	if lineitem.NumRows() == 0 {
		return 1
	}
	kept := engine.FilterPar(lineitem, p, 1)
	return float64(kept.NumRows()) / float64(lineitem.NumRows())
}

// Fig9Summary aggregates a scale factor's records into the counts the
// paper reports alongside Fig. 9 and in Table 4.
type Fig9Summary struct {
	ScaleFactor  float64
	Rewritten    int
	Faster       int
	Faster2x     int
	Slower       int
	Slower2x     int
	AvgSelFaster float64
	AvgSelFast2x float64
	AvgSelSlower float64
	AvgSelSlow2x float64
	// SegmentsPruned totals the segments the rewritten plans skipped per
	// execution; PrunedFrac is its share of the segments those plans could
	// have read. BytesReadOrig totals every query's original plan,
	// BytesReadRw the rewritten plans. All zero over in-memory tables.
	SegmentsPruned uint64
	PrunedFrac     float64
	BytesReadOrig  uint64
	BytesReadRw    uint64
}

// Summarize computes per-scale-factor aggregates (Table 4's rows).
func Summarize(records []RuntimeRecord) []Fig9Summary {
	type acc struct {
		Fig9Summary
		faster, fast2x, slower, slow2x []float64
		rwSegments                     uint64
	}
	bySF := map[float64]*acc{}
	var order []float64
	for _, r := range records {
		a, ok := bySF[r.ScaleFactor]
		if !ok {
			a = &acc{Fig9Summary: Fig9Summary{ScaleFactor: r.ScaleFactor}}
			bySF[r.ScaleFactor] = a
			order = append(order, r.ScaleFactor)
		}
		a.BytesReadOrig += r.OrigStorage.BytesRead
		if !r.Rewritten {
			continue
		}
		a.Rewritten++
		a.SegmentsPruned += r.RwStorage.SegmentsPruned
		a.rwSegments += r.RwStorage.SegmentsPruned + r.RwStorage.SegmentsScanned
		a.BytesReadRw += r.RwStorage.BytesRead
		sp := r.Speedup()
		if sp >= 1 {
			a.Faster++
			a.faster = append(a.faster, r.Selectivity)
			if sp >= 2 {
				a.Faster2x++
				a.fast2x = append(a.fast2x, r.Selectivity)
			}
		} else {
			a.Slower++
			a.slower = append(a.slower, r.Selectivity)
			if sp <= 0.5 {
				a.Slower2x++
				a.slow2x = append(a.slow2x, r.Selectivity)
			}
		}
	}
	var out []Fig9Summary
	for _, sf := range order {
		a := bySF[sf]
		if a.Rewritten == 0 {
			continue
		}
		a.AvgSelFaster = mean(a.faster)
		a.AvgSelFast2x = mean(a.fast2x)
		a.AvgSelSlower = mean(a.slower)
		a.AvgSelSlow2x = mean(a.slow2x)
		if a.rwSegments > 0 {
			a.PrunedFrac = float64(a.SegmentsPruned) / float64(a.rwSegments)
		}
		out = append(out, a.Fig9Summary)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MotivatingResult is the §2 experiment: Q1 vs Q2 on TPC-H.
type MotivatingResult struct {
	ScaleFactor        float64
	Q1Time, Q2Time     time.Duration
	Q1JoinIn, Q2JoinIn int
	OutputRows         int
	Speedup            float64
}

// Motivating reproduces the §2 measurement: the hand-rewritten Q2 (with
// the three inferred lineitem predicates) against the original Q1.
func Motivating(sf float64) (*MotivatingResult, error) {
	cat := memCatalog(tpch.Generate(tpch.Config{ScaleFactor: sf}))
	q1 := `SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey
		AND l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'
		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10`
	q2 := q1 + ` AND l_shipdate < DATE '1993-06-20' AND l_commitdate < DATE '1993-07-18'
		AND l_commitdate - l_shipdate < 29`
	run := func(stmt string) (time.Duration, int, int, error) {
		parsed, err := sql.Parse(stmt, cat)
		if err != nil {
			return 0, 0, 0, err
		}
		node, err := parsed.Plan(cat)
		if err != nil {
			return 0, 0, 0, err
		}
		table, stats, err := executeBest(plan.PushDownFilters(node), cat, 3, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		return stats.Elapsed, stats.JoinInputRows, table.NumRows(), nil
	}
	t1, j1, rows1, err := run(q1)
	if err != nil {
		return nil, err
	}
	t2, j2, rows2, err := run(q2)
	if err != nil {
		return nil, err
	}
	if rows1 != rows2 {
		return nil, fmt.Errorf("experiments: Q1 and Q2 disagree: %d vs %d rows", rows1, rows2)
	}
	return &MotivatingResult{
		ScaleFactor: sf,
		Q1Time:      t1, Q2Time: t2,
		Q1JoinIn: j1, Q2JoinIn: j2,
		OutputRows: rows1,
		Speedup:    float64(t1) / float64(t2),
	}, nil
}
