// Package engine is the in-memory columnar execution engine Sia's
// evaluation runs on. The paper measures query runtimes on PostgreSQL over
// TPC-H data; this engine is the reproduction's substrate: it executes the
// same logical plans (scan, filter, hash join, aggregation) over columnar
// tables, so the *relative* cost of original vs rewritten plans — which is
// what Fig. 9 and Table 4 report — is preserved.
package engine

import (
	"fmt"

	"sia/internal/predicate"
)

// Table is a named columnar table.
type Table struct {
	Name   string
	schema *predicate.Schema
	nRows  int
	cols   map[string]*colData
	order  []string
}

type colData struct {
	typ   predicate.Type
	ints  []int64
	reals []float64
	nulls []bool // nil when the column is NOT NULL
	// maxAbs is an upper bound on |v| over the stored ints, maintained on
	// append and carried (conservatively) through columnar copies. The
	// compiled filter fast paths use it to prove Σ coefᵢ·colᵢ + k cannot
	// overflow int64 before committing to wrapping machine arithmetic.
	maxAbs uint64
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *predicate.Schema) *Table {
	t := &Table{Name: name, schema: schema, cols: map[string]*colData{}}
	for _, c := range schema.Columns() {
		cd := &colData{typ: c.Type}
		if !c.NotNull {
			cd.nulls = []bool{}
		}
		t.cols[c.Name] = cd
		t.order = append(t.order, c.Name)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *predicate.Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.nRows }

// AppendRow appends one row; vals must follow schema column order.
func (t *Table) AppendRow(vals ...predicate.Value) {
	if len(vals) != len(t.order) {
		panic(fmt.Sprintf("engine: row width %d != schema width %d", len(vals), len(t.order)))
	}
	for i, name := range t.order {
		cd := t.cols[name]
		if vals[i].Null {
			if cd.nulls == nil {
				panic(fmt.Sprintf("engine: NULL in NOT NULL column %s.%s", t.Name, name))
			}
		}
		if cd.nulls != nil {
			cd.nulls = append(cd.nulls, vals[i].Null)
		}
		if cd.typ.Integral() {
			cd.ints = append(cd.ints, vals[i].Int)
			if a := predicate.AbsUint64(vals[i].Int); a > cd.maxAbs {
				cd.maxAbs = a
			}
		} else {
			cd.reals = append(cd.reals, vals[i].Real)
		}
	}
	t.nRows++
}

// Value returns the value at (row, col).
func (t *Table) Value(row int, col string) predicate.Value {
	cd, ok := t.cols[col]
	if !ok {
		panic(fmt.Sprintf("engine: unknown column %s.%s", t.Name, col))
	}
	return cd.value(row)
}

func (cd *colData) value(row int) predicate.Value {
	switch {
	case cd.nulls != nil && cd.nulls[row]:
		return predicate.NullValue()
	case cd.typ.Integral():
		return predicate.IntVal(cd.ints[row])
	default:
		return predicate.RealVal(cd.reals[row])
	}
}

// Ints exposes the raw int64 column for integral columns (used by compiled
// filters and hash joins). The caller must not mutate the slice.
func (t *Table) Ints(col string) []int64 {
	cd := t.cols[col]
	if cd == nil || !cd.typ.Integral() {
		panic(fmt.Sprintf("engine: %s.%s is not an integral column", t.Name, col))
	}
	return cd.ints
}

// Reals exposes the raw float64 column for DOUBLE columns (used by the
// storage codec). The caller must not mutate the slice.
func (t *Table) Reals(col string) []float64 {
	cd := t.cols[col]
	if cd == nil || cd.typ.Integral() {
		panic(fmt.Sprintf("engine: %s.%s is not a DOUBLE column", t.Name, col))
	}
	return cd.reals
}

// Nulls exposes the column's NULL bitmap, or nil for a NOT NULL column
// (used by the storage codec). The caller must not mutate the slice.
func (t *Table) Nulls(col string) []bool {
	cd := t.cols[col]
	if cd == nil {
		panic(fmt.Sprintf("engine: unknown column %s.%s", t.Name, col))
	}
	return cd.nulls
}

// ColumnValues is the bulk columnar form of one column for
// NewTableFromColumns: exactly one of Ints/Reals is set (matching the
// column's type), and Nulls is nil when the column holds no NULLs (it must
// be nil for a NOT NULL column). MaxAbs is the caller's upper bound on |v|
// over Ints, which the compiled filters rely on to rule out int64
// overflow; a segment's zone maps supply it without a pass over the data.
type ColumnValues struct {
	Ints   []int64
	Reals  []float64
	Nulls  []bool
	MaxAbs uint64
}

// NewTableFromColumns builds a table directly from column arrays, cols[i]
// holding schema column i — the bulk constructor the storage layer's
// segment decoder uses instead of materializing predicate.Values row by
// row. The slices are adopted, not copied: the caller must not mutate them
// afterwards. Every column must have length nRows. Each integral column's
// overflow bound is its MaxAbs, taken as given: it is not checked against
// the values.
func NewTableFromColumns(name string, schema *predicate.Schema, nRows int, cols []ColumnValues) (*Table, error) {
	t := NewTable(name, schema)
	if len(cols) != len(t.order) {
		return nil, fmt.Errorf("engine: %d columns for the %d of %s", len(cols), len(t.order), name)
	}
	for i, sc := range schema.Columns() {
		cv := cols[i]
		cd := t.cols[sc.Name]
		if sc.Type.Integral() {
			if len(cv.Ints) != nRows {
				return nil, fmt.Errorf("engine: column %s.%s has %d values, want %d", name, sc.Name, len(cv.Ints), nRows)
			}
			cd.ints, cd.maxAbs = cv.Ints, cv.MaxAbs
		} else {
			if len(cv.Reals) != nRows {
				return nil, fmt.Errorf("engine: column %s.%s has %d values, want %d", name, sc.Name, len(cv.Reals), nRows)
			}
			cd.reals = cv.Reals
		}
		switch {
		case cv.Nulls == nil:
			if cd.nulls != nil {
				cd.nulls = make([]bool, nRows)
			}
		case sc.NotNull:
			return nil, fmt.Errorf("engine: NULL bitmap for NOT NULL column %s.%s", name, sc.Name)
		case len(cv.Nulls) != nRows:
			return nil, fmt.Errorf("engine: column %s.%s has %d null flags, want %d", name, sc.Name, len(cv.Nulls), nRows)
		default:
			cd.nulls = cv.Nulls
		}
	}
	t.nRows = nRows
	return t, nil
}

// ReorderRows returns a copy of t containing rows[i] of t at position i —
// the engine-level gather behind table sorting and slicing. Indices may
// repeat; each must be in [0, NumRows). The copy runs morsel-parallel on
// par workers and is byte-identical at any worker count.
func ReorderRows(t *Table, rows []int, par int) (*Table, error) {
	for _, r := range rows {
		if r < 0 || r >= t.nRows {
			return nil, fmt.Errorf("engine: row index %d out of range [0,%d)", r, t.nRows)
		}
	}
	out := NewTable(t.Name, t.schema)
	out.nRows = len(rows)
	gatherInto(out, t, t.order, rows, par)
	return out, nil
}

// TablesEqual reports whether two tables hold identical data: same column
// names, types and nullability in order, same row count, and identical
// values (NULLs equal NULLs) at every position. The disk-backed read path
// is required to be value-identical to the in-memory engine; this is the
// checker experiments and tests use.
func TablesEqual(a, b *Table) bool {
	ac, bc := a.schema.Columns(), b.schema.Columns()
	if len(ac) != len(bc) || a.nRows != b.nRows {
		return false
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	for _, c := range ac {
		av, bv := a.cols[c.Name], b.cols[c.Name]
		for r := 0; r < a.nRows; r++ {
			if av.value(r) != bv.value(r) {
				return false
			}
		}
	}
	return true
}

// Tuple materializes one row as a predicate tuple: the row-at-a-time path
// behind result inspection, tests, and the filter leaves only predicate.Eval
// can read.
//
// One map per row is the price of the reference evaluator; leaves
// that can avoid it bind to the column kernels instead.
func (t *Table) Tuple(row int) predicate.Tuple {
	out := predicate.Tuple{}
	for _, name := range t.order {
		out[name] = t.Value(row, name)
	}
	return out
}
