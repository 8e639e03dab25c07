package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
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

// statement is one SQL text of the query workloads. Predicates take turns
// between two forms: the paper's §6.3 SELECT * (wide: every column of the
// join is materialized, so column pruning cannot help) and a COUNT(*) GROUP
// BY (narrow: only the key, the dates and l_linenumber are needed).
type statement struct {
	pred int // index of the predicate in the generated workload
	agg  bool
	text string
}

func buildStatements(queries []workload.Query) []statement {
	out := make([]statement, len(queries))
	for i, q := range queries {
		out[i] = statement{pred: i, text: q.SQL()}
		if i%2 == 1 {
			out[i] = statement{pred: i, agg: true, text: fmt.Sprintf(
				"SELECT COUNT(*) FROM lineitem, orders WHERE o_orderkey = l_orderkey AND %s GROUP BY l_linenumber", q.Pred)}
		}
	}
	return out
}

func statementTexts(stmts []statement) []string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = s.text
	}
	return out
}

// pipeline is the journey of one statement through the layers' public
// functions: sql.Parse → Query.Plan → the Sia rule fed from a synthesis
// cache → plan.PushDownFilters → plan.ExecuteOpts.
type pipeline struct {
	synth       *cache.Synthesizer
	opts        core.Options
	parallelism int
}

// execInfo describes one pipeline run.
type execInfo struct {
	rewritten bool // a learned predicate was pushed below the join
	cached    bool // the synthesis came from the cache
	stats     *plan.ExecStats
}

// siaTarget extracts what the Sia rule synthesizes for: the WHERE clause
// without its equi-join conjuncts, reduced to the lineitem date columns it
// mentions.
func siaTarget(q *sql.Query) (predicate.Predicate, []string) {
	var rest []predicate.Predicate
	for _, c := range predicate.Conjuncts(q.Where) {
		if cmp, ok := c.(*predicate.Compare); ok && cmp.Op == predicate.CmpEQ {
			_, l := cmp.Left.(*predicate.ColumnRef)
			_, r := cmp.Right.(*predicate.ColumnRef)
			if l && r {
				continue
			}
		}
		rest = append(rest, c)
	}
	p := predicate.NewAnd(rest...)
	return p, lineitemDateCols(p)
}

// withLearned conjoins a learned predicate to the filter above the join,
// from where PushDownFilters moves it to the lineitem side (Fig. 1).
func withLearned(n plan.Node, learned predicate.Predicate) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		if _, ok := x.Input.(*plan.Join); ok {
			return &plan.Filter{Pred: predicate.NewAnd(x.Pred, learned), Input: x.Input}
		}
		return &plan.Filter{Pred: x.Pred, Input: withLearned(x.Input, learned)}
	case *plan.Aggregate:
		return &plan.Aggregate{GroupBy: x.GroupBy, Aggs: x.Aggs, Input: withLearned(x.Input, learned)}
	case *plan.Project:
		return &plan.Project{Cols: x.Cols, Input: withLearned(x.Input, learned)}
	default:
		return n
	}
}

// run executes one statement. With rewrite false the Sia rule is skipped:
// that is the original plan the rewritten one must agree with.
func (p *pipeline) run(ctx context.Context, tr *tracer, op, parent int32, text string, cat *plan.Catalog, rewrite bool) (*engine.Table, execInfo, error) {
	var info execInfo
	sp := tr.begin(op, parent, "sql.Parse+Plan")
	q, err := sql.Parse(text, cat)
	var node plan.Node
	if err == nil {
		node, err = q.Plan(cat)
	}
	tr.end(sp)
	if err != nil {
		return nil, info, fmt.Errorf("bench: %w", err)
	}

	if rewrite {
		sp = tr.begin(op, parent, "plan.rewrite")
		target, cols := siaTarget(q)
		tr.end(sp)
		if len(cols) > 0 {
			sp = tr.begin(op, parent, "cache.Synthesize")
			res, cached, err := p.synth.Synthesize(ctx, target, cols, q.Schema, p.opts)
			tr.end(sp)
			if err != nil {
				return nil, info, fmt.Errorf("bench: synthesize: %w", err)
			}
			info.cached = cached
			if res.Valid && res.Predicate != nil {
				sp = tr.begin(op, parent, "plan.rewrite")
				node = withLearned(node, res.Predicate)
				tr.end(sp)
				info.rewritten = true
			}
		}
	}
	sp = tr.begin(op, parent, "plan.rewrite")
	node = plan.PushDownFilters(node)
	tr.end(sp)

	sp = tr.begin(op, parent, "plan.ExecuteOpts")
	table, stats, err := plan.ExecuteOpts(node, cat, plan.ExecOptions{Parallelism: p.parallelism})
	tr.end(sp)
	if err != nil {
		return nil, info, fmt.Errorf("bench: execute: %w", err)
	}
	info.stats = stats
	return table, info, nil
}

// prefill synthesizes every predicate of the workload once, through the
// statement's own parse, so the timed phase finds each in the cache. One
// goroutine per worker shares the list: this is untimed prerequisite work.
// It returns the results for the implication check.
func (p *pipeline) prefill(ctx context.Context, queries []workload.Query, cat *plan.Catalog) ([]synthesized, error) {
	results := make([]synthesized, len(queries))
	errs := make([]error, p.parallelism)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(queries) && errs[w] == nil; i = int(next.Add(1)) - 1 {
				q, err := sql.Parse(queries[i].SQL(), cat)
				if err != nil {
					errs[w] = fmt.Errorf("bench: prefill: %w", err)
					return
				}
				target, cols := siaTarget(q)
				if len(cols) == 0 {
					continue
				}
				res, _, err := p.synth.Synthesize(ctx, target, cols, q.Schema, p.opts)
				if err != nil {
					errs[w] = fmt.Errorf("bench: prefill %s: %w", target, err)
					return
				}
				results[i] = synthesized{source: queries[i].Pred, res: res}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []synthesized
	for _, r := range results {
		if r.res != nil {
			out = append(out, r)
		}
	}
	return out, nil
}

// sortedBy returns t's rows in ascending order of col: the stand-in for
// time-ordered ingestion, which gives date zone maps narrow ranges.
func sortedBy(t *engine.Table, col string) (*engine.Table, error) {
	vals := t.Ints(col)
	idx := make([]int, t.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	out, err := engine.ReorderRows(t, idx, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: sort %s: %w", t.Name, err)
	}
	return out, nil
}

// ingest appends t to a fresh segment table under dir in segRows batches.
func ingest(dir string, t *engine.Table, segRows int) (*storage.SegmentTable, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	st, err := storage.Open(dir, t.Name, t.Schema())
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	for lo := 0; lo < t.NumRows(); lo += segRows {
		if err := st.AppendRange(t, lo, min(lo+segRows, t.NumRows())); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	return st, nil
}

// dataset is one generated orders/lineitem pair and the catalogs over it.
type dataset struct {
	orders, lineitem *engine.Table
	mem              *plan.Catalog // in-memory tables
	disk             *plan.Catalog // segment tables, nil for query_mem
	lineitemDisk     *storage.SegmentTable
	rows             int
	ingestS          float64 // seconds spent appending segments
}

// newDataset generates the tables at the given scale. With a dir it also
// sorts them by date and ingests them there as segments.
func newDataset(scale float64, seed int64, dir string, segRows int) (*dataset, error) {
	d := &dataset{mem: plan.NewCatalog()}
	d.orders, d.lineitem = tpch.Generate(tpch.Config{ScaleFactor: scale, Seed: seed})
	if dir != "" {
		var err error
		if d.orders, err = sortedBy(d.orders, "o_orderdate"); err != nil {
			return nil, err
		}
		if d.lineitem, err = sortedBy(d.lineitem, "l_shipdate"); err != nil {
			return nil, err
		}
		start := time.Now()
		ordersDisk, err := ingest(filepath.Join(dir, "orders"), d.orders, segRows)
		if err != nil {
			return nil, err
		}
		if d.lineitemDisk, err = ingest(filepath.Join(dir, "lineitem"), d.lineitem, segRows); err != nil {
			return nil, err
		}
		d.ingestS = time.Since(start).Seconds()
		d.disk = plan.NewCatalog()
		d.disk.AddSource(ordersDisk)
		d.disk.AddSource(d.lineitemDisk)
	}
	d.mem.Add(d.orders)
	d.mem.Add(d.lineitem)
	d.rows = d.orders.NumRows() + d.lineitem.NumRows()
	return d, nil
}

// measured is the catalog the workload times: segments when there are any.
func (d *dataset) measured() *plan.Catalog {
	if d.disk != nil {
		return d.disk
	}
	return d.mem
}

func runQueryMem(ctx context.Context, rc runConfig) (*outcome, error) {
	return runQuery(ctx, rc, false)
}

func runQueryDisk(ctx context.Context, rc runConfig) (*outcome, error) {
	return runQuery(ctx, rc, true)
}

func runQuery(ctx context.Context, rc runConfig, disk bool) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	var (
		data    *dataset
		queries []workload.Query
		stmts   []statement
	)
	dirFor := func(name string) string {
		if !disk {
			return ""
		}
		return filepath.Join(rc.tmp, name)
	}
	writeBefore := storage.SnapshotCounters()
	err := repeatSetup(out, rc.sz.SetupRepeats, func(rep int) error {
		var err error
		data, err = newDataset(rc.sz.Scale, rc.seed, dirFor(fmt.Sprintf("data-%d", rep)), rc.sz.SegmentRows)
		if err != nil {
			return err
		}
		queries = workload.Generate(workload.Config{N: rc.sz.QueryPredicates, Seed: rc.seed})
		if disk {
			queries = queries[:rc.sz.DiskPredicates]
		}
		stmts = buildStatements(queries)
		return nil
	})
	if err != nil {
		return nil, err
	}
	written := storage.SnapshotCounters().Sub(writeBefore)
	for rep := 0; disk && rep < rc.sz.SetupRepeats-1; rep++ {
		if err := os.RemoveAll(dirFor(fmt.Sprintf("data-%d", rep))); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	out.inputs = inputFingerprint(statementTexts(stmts)...)

	pipe := &pipeline{synth: cache.NewSynthesizer(2 * len(queries)), opts: synthOptions(), parallelism: rc.workers}
	prereqStart := time.Now()
	learned, err := pipe.prefill(ctx, queries, data.measured())
	if err != nil {
		return nil, err
	}
	prereq := time.Since(prereqStart).Seconds()

	cat := data.measured()
	// One untimed statement of each form, so the first timed operation
	// does not pay for first-use initialization.
	for _, s := range stmts[:min(2, len(stmts))] {
		if _, _, err := pipe.run(ctx, nil, 0, -1, s.text, cat, true); err != nil {
			return nil, err
		}
	}

	rowsSeen := make([]int, len(stmts))
	for i := range rowsSeen {
		rowsSeen[i] = -1
	}
	out.passes, err = runPasses(rc, func(traced bool) (*passResult, error) {
		m, err := beginPass(len(stmts), traced)
		if err != nil {
			return nil, err
		}
		rewritten, joinRows := 0, 0
		for i, s := range stmts {
			op := int32(i)
			start := time.Now()
			root := m.tr.begin(op, -1, "bench.op")
			table, info, err := pipe.run(ctx, m.tr, op, root, s.text, cat, true)
			m.tr.end(root)
			m.observe(i, start)
			out.attempted++
			switch {
			case err != nil:
				out.failed++
				out.findings = append(out.findings, fmt.Sprintf("%s: %v", s.text, err))
				continue
			case len(lineitemDateCols(queries[s.pred].Pred)) > 0 && !info.cached:
				out.failed++
				out.findings = append(out.findings, "warm synthesis cache missed: "+s.text)
			case rowsSeen[i] >= 0 && rowsSeen[i] != table.NumRows():
				out.failed++
				out.findings = append(out.findings, fmt.Sprintf("row count changed between passes (%d, then %d): %s",
					rowsSeen[i], table.NumRows(), s.text))
			}
			rowsSeen[i] = table.NumRows()
			if info.rewritten {
				rewritten++
			}
			joinRows += info.stats.JoinInputRows
		}
		p, err := m.end()
		if err != nil {
			return nil, err
		}
		out.useful = ratio(float64(rewritten), float64(len(stmts)))
		if traced {
			p.Layer["plan.rewritten_frac"] = out.useful
			p.Layer["plan.join_input_rows"] = ratio(float64(joinRows), float64(len(stmts)))
			querySpanMetrics(p.Layer, p.Spans, stmts)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	var f findings
	if err := checkAgainstOracle(ctx, &f, pipe, queries, rc, dirFor("oracle")); err != nil {
		return nil, err
	}
	speedups, err := checkEquivalence(ctx, &f, pipe, data, stmts, rowsSeen, rc.sz.EquivSample)
	if err != nil {
		return nil, err
	}
	checkImplications(&f, learned, rc.seed, rc.sz)
	out.attempted += f.checks
	out.failed += f.failed()
	out.findings = append(out.findings, f.msgs...)

	if rc.trace {
		out.layer["bench.prereq_s"] = prereq
		out.layer["plan.rewrite_speedup_geomean"] = geomean(speedups)
		probes := learned[:min(len(learned), 40)]
		out.layer["engine.filter_mrows_per_s"] = probeFilter(data.lineitem, probes, rc.workers)
		if disk {
			ms, err := probeScanFilter(data.lineitemDisk, probes, rc.workers)
			if err != nil {
				return nil, err
			}
			out.layer["storage.scanfilter_ms"] = ms
			writes := float64(rc.sz.SetupRepeats)
			out.layer["storage.bytes_written"] = float64(written.BytesWritten) / writes
			out.layer["storage.bytes_per_row"] = ratio(float64(written.BytesWritten)/writes, float64(data.rows))
			out.layer["storage.append_rows_per_s"] = ratio(float64(data.rows), data.ingestS)
		}
	}
	return out, nil
}

// querySpanMetrics derives the sql, plan and cache metrics from the spans
// of one pass.
func querySpanMetrics(layer map[string]float64, spans []span, stmts []statement) {
	byName := durationsByName(spans)
	layer["sql.parse_plan_us"] = 1e3 * median(byName["sql.Parse+Plan"])
	layer["cache.lookup_us"] = 1e3 * median(byName["cache.Synthesize"])
	layer["plan.exec_ms"] = median(byName["plan.ExecuteOpts"])

	// plan.rewrite is recorded in up to three pieces per operation.
	rewrite := map[int32]float64{}
	var star, agg []float64
	var roots, children float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		switch {
		case s.Parent < 0:
			roots += d
		default:
			children += d
		}
		switch s.Name {
		case "plan.rewrite":
			rewrite[s.Op] += d
		case "plan.ExecuteOpts":
			if stmts[s.Op].agg {
				agg = append(agg, d)
			} else {
				star = append(star, d)
			}
		}
	}
	perOp := make([]float64, 0, len(rewrite))
	for _, d := range rewrite {
		perOp = append(perOp, d)
	}
	layer["plan.rewrite_us"] = 1e3 * median(perOp)
	layer["plan.exec_star_p50_ms"] = median(star)
	layer["plan.exec_agg_p50_ms"] = median(agg)
	layer["plan.unexplained_frac"] = 1 - ratio(children, roots)
}

// checkAgainstOracle runs every statement through the pipeline over a
// small copy of the data (in memory, or as segments under dir) and
// compares each answer with the oracle's.
func checkAgainstOracle(ctx context.Context, f *findings, pipe *pipeline, queries []workload.Query, rc runConfig, dir string) error {
	small, err := newDataset(rc.sz.OracleScale, rc.seed, dir, rc.sz.SegmentRows)
	if err != nil {
		return err
	}
	oracle := newOracleData(small.orders, small.lineitem)
	for _, s := range buildStatements(queries) {
		table, _, err := pipe.run(ctx, nil, 0, -1, s.text, small.measured(), true)
		if err != nil {
			f.check(false, "oracle copy: %s: %v", s.text, err)
			continue
		}
		got, err := tableSum(table)
		if err != nil {
			return err
		}
		ref := oracle.evaluate(queries[s.pred].Pred)
		want := ref.star
		if s.agg {
			want = ref.agg
		}
		f.expect("pipeline vs oracle: "+s.text, got, want)
	}
	return nil
}

// checkEquivalence compares, at full scale and for the first n statements,
// the rewritten plan with the original plan (and the segment plan with the
// in-memory plan), and the row counts the passes saw with both. It returns
// original ÷ rewritten execution time per rewritten statement.
func checkEquivalence(ctx context.Context, f *findings, pipe *pipeline, data *dataset, stmts []statement, rowsSeen []int, n int) ([]float64, error) {
	type variant struct {
		cat     *plan.Catalog
		rewrite bool
	}
	variants := []variant{{data.measured(), true}, {data.measured(), false}}
	if data.disk != nil {
		variants = append(variants, variant{data.mem, true})
	}
	origNs, rewNs := map[int]float64{}, map[int]float64{}
	for si, s := range stmts[:min(n, len(stmts))] {
		var sums []rowsum
		rewritten := false
		for vi, v := range variants {
			table, info, err := pipe.run(ctx, nil, 0, -1, s.text, v.cat, v.rewrite)
			if err != nil {
				return nil, err
			}
			sum, err := tableSum(table)
			if err != nil {
				return nil, err
			}
			sums = append(sums, sum)
			switch vi {
			case 0:
				rewritten = info.rewritten
				rewNs[s.pred] += float64(info.stats.Elapsed)
			case 1:
				origNs[s.pred] += float64(info.stats.Elapsed)
			}
		}
		if !rewritten {
			delete(rewNs, s.pred) // both runs were the original plan
		}
		for _, other := range sums[1:] {
			f.expect("plans disagree: "+s.text, other, sums[0])
		}
		if rowsSeen[si] >= 0 {
			f.check(rowsSeen[si] == sums[0].Rows, "timed run returned %d rows, check run %d: %s", rowsSeen[si], sums[0].Rows, s.text)
		}
	}
	var speedups []float64
	for p, rew := range rewNs {
		speedups = append(speedups, ratio(origNs[p], rew))
	}
	return speedups, nil
}

// probeFilter times engine.FilterPar over lineitem for each learned
// predicate and returns million rows filtered per second.
func probeFilter(lineitem *engine.Table, learned []synthesized, par int) float64 {
	rows, secs := 0.0, 0.0
	for _, s := range learned {
		if s.res.Predicate == nil {
			continue
		}
		start := time.Now()
		engine.FilterPar(lineitem, s.res.Predicate, par)
		secs += time.Since(start).Seconds()
		rows += float64(lineitem.NumRows())
	}
	return ratio(rows/1e6, secs)
}

// probeScanFilter times SegmentTable.ScanFilter for each learned predicate
// and returns the median in milliseconds.
func probeScanFilter(st *storage.SegmentTable, learned []synthesized, par int) (float64, error) {
	var ms []float64
	for _, s := range learned {
		if s.res.Predicate == nil {
			continue
		}
		start := time.Now()
		if _, err := st.ScanFilter(s.res.Predicate, par); err != nil {
			return 0, fmt.Errorf("bench: scan probe: %w", err)
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms), nil
}
