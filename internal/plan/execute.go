package plan

import (
	"fmt"
	"time"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// ExecStats records per-run instrumentation: the Fig. 9 experiment compares
// wall-clock time of original vs rewritten plans, and the join input sizes
// explain *why* pushdown wins.
type ExecStats struct {
	// Elapsed is the total execution wall time.
	Elapsed time.Duration
	// JoinInputRows sums the row counts entering join operators.
	JoinInputRows int
	// OutputRows is the final result cardinality.
	OutputRows int
}

// ExecOptions tunes plan execution without changing its results.
type ExecOptions struct {
	// Parallelism is the engine worker count for every operator in the
	// plan; non-positive means engine.DefaultParallelism (one worker per
	// CPU). The engine guarantees byte-identical results at any setting,
	// so this is purely a performance knob.
	Parallelism int
}

// ExecuteOpts runs a logical plan against the catalog, materializing each
// operator bottom-up. The zero ExecOptions runs the engine at
// DefaultParallelism.
func ExecuteOpts(n Node, c *Catalog, opts ExecOptions) (*engine.Table, *ExecStats, error) {
	stats := &ExecStats{}
	start := time.Now()
	out, err := exec(n, c, stats, opts, nil)
	if err != nil {
		return nil, nil, err
	}
	stats.Elapsed = time.Since(start)
	stats.OutputRows = out.NumRows()
	return out, stats, nil
}

// exec runs n. need is the set of n's output columns its consumers read, nil
// meaning all of them: an Aggregate reads its group-by columns and aggregate
// inputs, a Project its columns, a Filter adds its predicate's. It is
// threaded down to the joins and the source scans, which materialize
// nothing else; every other operator may return more columns than need
// names.
func exec(n Node, c *Catalog, stats *ExecStats, opts ExecOptions, need []string) (*engine.Table, error) {
	// A filter directly over an external source hands its predicate to the
	// source's scan, which may prune whole segments before reading them and
	// reads the predicate's columns only to select.
	if src, pred, ok := c.sourceScan(n); ok {
		return src.Scan(engine.ScanSpec{Pred: pred, Cols: need}, opts.Parallelism)
	}
	switch x := n.(type) {
	case *Scan:
		return c.Table(x.TableName)
	case *Filter:
		// A filter directly over a join runs inside the join's probe, on
		// the matched pairs, before the join gathers its output columns.
		if j, ok := x.Input.(*Join); ok {
			return execJoin(j, x.Pred, c, stats, opts, need)
		}
		in, err := exec(x.Input, c, stats, opts, withColumns(need, predicate.Columns(x.Pred)...))
		if err != nil {
			return nil, err
		}
		return engine.FilterPar(in, x.Pred, opts.Parallelism), nil
	case *Join:
		return execJoin(x, nil, c, stats, opts, need)
	case *Project:
		in, err := exec(x.Input, c, stats, opts, x.Cols)
		if err != nil {
			return nil, err
		}
		return engine.ProjectPar(in, x.Cols, opts.Parallelism)
	case *Aggregate:
		inputs := append([]string{}, x.GroupBy...)
		for _, a := range x.Aggs {
			if a.Func != engine.AggCount {
				inputs = append(inputs, a.Col)
			}
		}
		in, err := exec(x.Input, c, stats, opts, inputs)
		if err != nil {
			return nil, err
		}
		return engine.AggregatePar(in, x.GroupBy, x.Aggs, opts.Parallelism)
	default:
		return nil, fmt.Errorf("plan: unknown node %T", n)
	}
}

// execJoin runs a join with the filter that sat directly on it, if any, as
// its residual. The join outputs need; its inputs must also carry the keys
// and the residual's columns.
func execJoin(x *Join, residual predicate.Predicate, c *Catalog, stats *ExecStats, opts ExecOptions, need []string) (*engine.Table, error) {
	inputNeed := withColumns(need, x.LeftKey, x.RightKey)
	if residual != nil {
		inputNeed = withColumns(inputNeed, predicate.Columns(residual)...)
	}
	l, lpred, err := execJoinInput(x.Left, c, stats, opts, inputNeed)
	if err != nil {
		return nil, err
	}
	r, rpred, err := execJoinInput(x.Right, c, stats, opts, inputNeed)
	if err != nil {
		return nil, err
	}
	out, jstats, err := engine.HashJoinWherePar(l, r, engine.JoinSpec{
		LeftKey: x.LeftKey, RightKey: x.RightKey,
		LeftPred: lpred, RightPred: rpred,
		Residual: residual, Cols: need,
	}, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	stats.JoinInputRows += jstats.LeftIn + jstats.RightIn
	return out, nil
}

// execJoinInput materializes one side of a join. A Filter directly above
// the side's child is fused into the join's selection pass: the returned
// predicate is then evaluated during the scan without materializing an
// intermediate table, the way real engines execute pushdown. A Filter on a
// Join stays where it is, as that join's residual, and one on a source
// stays in the source's scan, which reads its columns without returning
// them. need is split by side here: only the columns of this side's schema
// are asked of it.
func execJoinInput(n Node, c *Catalog, stats *ExecStats, opts ExecOptions, need []string) (*engine.Table, predicate.Predicate, error) {
	if need != nil {
		schema, side := n.Schema(), []string{}
		for _, name := range need {
			if _, ok := schema.Lookup(name); ok {
				side = append(side, name)
			}
		}
		need = side
	}
	f, fused := n.(*Filter)
	if fused {
		_, onJoin := f.Input.(*Join)
		_, _, onSource := c.sourceScan(n)
		fused = !onJoin && !onSource
	}
	if !fused {
		t, err := exec(n, c, stats, opts, need)
		return t, nil, err
	}
	t, err := exec(f.Input, c, stats, opts, withColumns(need, predicate.Columns(f.Pred)...))
	return t, f.Pred, err
}

// withColumns returns need with more columns added; nil, meaning every
// column, stays nil.
func withColumns(need []string, more ...string) []string {
	if need == nil {
		return nil
	}
	return append(append([]string{}, need...), more...)
}
