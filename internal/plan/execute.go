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
//
// Every operator that consumes exec's output calls c.release on it once it
// returns: the table a source scan built belongs to the plan and is dead
// by then, because every operator copies what it keeps.
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
		defer c.release(x.Input, in)
		return engine.FilterPar(in, x.Pred, opts.Parallelism), nil
	case *Join:
		return execJoin(x, nil, c, stats, opts, need)
	case *Project:
		in, err := exec(x.Input, c, stats, opts, x.Cols)
		if err != nil {
			return nil, err
		}
		defer c.release(x.Input, in)
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
		defer c.release(x.Input, in)
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
	ln, lpred, lneed := c.joinInput(x.Left, inputNeed)
	l, err := exec(ln, c, stats, opts, lneed)
	if err != nil {
		return nil, err
	}
	defer c.release(ln, l)
	rn, rpred, rneed := c.joinInput(x.Right, inputNeed)
	r, err := exec(rn, c, stats, opts, rneed)
	if err != nil {
		return nil, err
	}
	defer c.release(rn, r)
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

// joinInput splits one side n of a join into the node to execute, the
// predicate fused into the join's selection (nil for none) and the columns
// to ask of that node. A Filter directly above the side's child is fused:
// its predicate is evaluated during the join's selection pass without
// materializing an intermediate table, the way real engines execute
// pushdown. A Filter on a Join stays where it is, as that join's residual,
// and one on a source stays in the source's scan, which reads its columns
// without returning them. need is split by side here: only the columns of
// this side's schema are asked of it.
func (c *Catalog) joinInput(n Node, need []string) (Node, predicate.Predicate, []string) {
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
		return n, nil, need
	}
	return f.Input, f.Pred, withColumns(need, predicate.Columns(f.Pred)...)
}

// release hands t, which exec(n) returned, back to the engine's column
// pool when a source scan built it; a catalog table is never released.
// The consumer calls it once it has returned, so only the plan's result
// outlives its operator.
func (c *Catalog) release(n Node, t *engine.Table) {
	if _, _, ok := c.sourceScan(n); ok {
		engine.Release(t)
	}
}

// withColumns returns need with more columns added; nil, meaning every
// column, stays nil.
func withColumns(need []string, more ...string) []string {
	if need == nil {
		return nil
	}
	return append(append([]string{}, need...), more...)
}
