package engine

import (
	"fmt"
	"time"

	"sia/internal/predicate"
)

// FilterPar returns a new table containing the rows of t that satisfy p,
// on par workers (par <= 0 means DefaultParallelism). The acceptance bitmap
// is evaluated morsel-parallel, per-morsel survivor counts are prefix-summed
// into output offsets, and the surviving rows are gathered column-wise into
// disjoint ranges of a dense copy. Row order is preserved, so the result is
// byte-identical at any worker count.
func FilterPar(t *Table, p predicate.Predicate, par int) *Table {
	defer observeOp(opFilter, time.Now())
	rows := selectRows(t, predicate.Compile(p), par)
	out := NewTable(t.Name, t.schema)
	out.nRows = len(rows)
	gatherInto(out, t, t.order, rows, par)
	rowPool.Put(rows)
	return out
}

// SelectRows is the selection half of FilterPar for an already compiled
// predicate: the ascending indices of the rows of t that prog keeps,
// recorded as one filter invocation. A segment scan evaluates it over the
// predicate's columns alone and gathers the survivors itself.
func SelectRows(t *Table, prog *predicate.Program, par int) []int {
	defer observeOp(opFilter, time.Now())
	return selectRows(t, prog, par)
}

// CountKept records rows a predicate is proven to keep without being run,
// as a segment's zone maps can, in the filter counters as if it had run.
func CountKept(rows int) { countFiltered(rows, rows) }

// ScanSpec is what a scan of a table source returns: exactly the rows
// FilterPar keeps under Pred (every row when nil), holding only the
// columns Cols in schema order (every column when nil; an empty non-nil
// set is a table of rows without columns, as for COUNT(*)).
type ScanSpec struct {
	Pred predicate.Predicate
	Cols []string
}

// selectRows returns the ascending rows of t that prog keeps, in a list
// drawn from the row pool.
func selectRows(t *Table, prog *predicate.Program, par int) []int {
	sel := selectProgram(t, prog, par)
	rows := selectedRows(sel, par)
	nullPool.Put(sel)
	countFiltered(t.nRows, len(rows))
	return rows
}

// selectedRows converts an acceptance bitmap into the (ascending) list of
// selected row indices: per-morsel counts, an exclusive prefix sum, then a
// parallel fill of each morsel's slot range. The list comes from the row
// pool.
func selectedRows(sel []bool, par int) []int {
	n := len(sel)
	ends := rowPool.Get(morselCount(n)) // first counts, then each morsel's end offset
	defer rowPool.Put(ends)
	forEachMorsel(n, par, func(_, m, lo, hi int) {
		c := 0
		for _, ok := range sel[lo:hi] {
			if ok {
				c++
			}
		}
		ends[m] = c
	})
	total := 0
	for m, c := range ends {
		total += c
		ends[m] = total
	}
	rows := rowPool.Get(total)
	forEachMorsel(n, par, func(_, m, lo, _ int) {
		idx := 0
		if m > 0 {
			idx = ends[m-1]
		}
		// Every slot is written and the cursor advances only past a selected
		// row: no branch depends on the data, which a selective predicate
		// makes unpredictable. The morsel holds exactly ends[m]-idx selected
		// rows, so the scan ends at the last of them, inside the morsel.
		for i := lo; idx < ends[m]; i++ {
			rows[idx] = i
			step := 0
			if sel[i] {
				step = 1
			}
			idx += step
		}
	})
	return rows
}

// gatherInto materializes the named columns of src, restricted to rows (all
// rows in order when rows is nil), into the same-named columns of out,
// splitting the copy across par workers. out's row count must already be
// set; each worker writes a disjoint output range, so the result is
// independent of scheduling.
func gatherInto(out, src *Table, cols []string, rows []int, par int) {
	n := len(rows)
	if rows == nil {
		n = src.nRows
	}
	type colCopy struct {
		src, dst *colData
	}
	copies := make([]colCopy, 0, len(cols))
	for _, name := range cols {
		cd := src.cols[name]
		oc := out.cols[name]
		oc.allocLike(cd, n)
		copies = append(copies, colCopy{src: cd, dst: oc})
	}
	forEachMorsel(n, par, func(_, _, lo, hi int) {
		for _, cc := range copies {
			if rows != nil {
				cc.dst.gather(cc.src, rows, lo, hi)
				continue
			}
			if cc.src.typ.Integral() {
				copy(cc.dst.ints[lo:hi], cc.src.ints[lo:hi])
			} else {
				copy(cc.dst.reals[lo:hi], cc.src.reals[lo:hi])
			}
			if cc.src.nulls != nil {
				copy(cc.dst.nulls[lo:hi], cc.src.nulls[lo:hi])
			}
		}
	})
}

// allocLike gives dst fresh arrays for n values of src's shape.
func (dst *colData) allocLike(src *colData, n int) {
	dst.maxAbs = src.maxAbs // conservative: a subset's max cannot exceed the source's
	if src.typ.Integral() {
		dst.ints = make([]int64, n)
	} else {
		dst.reals = make([]float64, n)
	}
	if src.nulls != nil {
		dst.nulls = make([]bool, n)
	}
}

// gather copies src's value at rows[i] to position i of dst, for i in
// [lo, hi).
func (dst *colData) gather(src *colData, rows []int, lo, hi int) {
	if src.typ.Integral() {
		d, s := dst.ints, src.ints
		for i := lo; i < hi; i++ {
			d[i] = s[rows[i]]
		}
	} else {
		d, s := dst.reals, src.reals
		for i := lo; i < hi; i++ {
			d[i] = s[rows[i]]
		}
	}
	if src.nulls != nil {
		d, s := dst.nulls, src.nulls
		for i := lo; i < hi; i++ {
			d[i] = s[rows[i]]
		}
	}
}

// ProjectPar returns a table with only the named columns, on par workers
// (par <= 0 means DefaultParallelism). Projection never touches row values: it reuses the columnar gather path
// to copy each kept column's backing arrays, morsel-parallel, instead of
// materializing rows one at a time.
func ProjectPar(t *Table, cols []string, par int) (*Table, error) {
	defer observeOp(opProject, time.Now())
	var sub []predicate.Column
	for _, name := range cols {
		c, ok := t.schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown column %q in projection", name)
		}
		sub = append(sub, c)
	}
	out := NewTable(t.Name, predicate.NewSchema(sub...))
	out.nRows = t.nRows
	gatherInto(out, t, cols, nil, par)
	return out, nil
}
