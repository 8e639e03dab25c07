package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// segFileExt is the segment file suffix; files are numbered in append
// order and scanned sorted by name, so directory order is ingestion order.
const segFileExt = ".siaseg"

// SegmentTable is a logical table stored as a directory of immutable
// segment files. Streaming ingestion appends whole segments; a scan skips
// any whose zone maps refute the pushed-down predicate and places the
// others' survivors in append order, which makes its output row order
// identical to filtering the in-memory concatenation of all segments.
type SegmentTable struct {
	dir    string
	name   string
	schema *predicate.Schema

	// appendMu serializes appenders, which number their files by the
	// segment count and publish in that order; mu guards segs only, and
	// is held just long enough to copy or extend it, never across I/O.
	appendMu sync.Mutex
	mu       sync.RWMutex
	segs     []*Segment
}

// Open opens (or initializes, when dir is empty) the segment table named
// name in dir, validating every existing segment file against schema.
func Open(dir, name string, schema *predicate.Schema) (*SegmentTable, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: reading table dir: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == segFileExt {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	st := &SegmentTable{dir: dir, name: name, schema: schema}
	for _, p := range paths {
		seg, err := OpenSegment(p)
		if err != nil {
			return nil, err
		}
		if err := matchSchema(schema, seg.Columns()); err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", p, err)
		}
		st.segs = append(st.segs, seg)
	}
	return st, nil
}

// matchSchema checks that a segment's catalog is exactly the table schema.
func matchSchema(schema *predicate.Schema, cols []predicate.Column) error {
	want := schema.Columns()
	if len(cols) != len(want) {
		return fmt.Errorf("has %d columns, table schema has %d", len(cols), len(want))
	}
	for i := range want {
		if cols[i] != want[i] {
			return fmt.Errorf("column %d is %+v, table schema has %+v", i, cols[i], want[i])
		}
	}
	return nil
}

// Name returns the logical table name.
func (st *SegmentTable) Name() string { return st.name }

// Schema returns the table schema.
func (st *SegmentTable) Schema() *predicate.Schema { return st.schema }

// NumRows returns the total row count across all segments.
func (st *SegmentTable) NumRows() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, s := range st.segs {
		n += s.NumRows()
	}
	return n
}

// NumSegments returns the number of segments currently in the table.
func (st *SegmentTable) NumSegments() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.segs)
}

// AppendRange writes rows [lo, hi) of t as one new segment file, durably
// and atomically. t's schema must equal the table schema. A failed append
// leaves the table unchanged. Scans running meanwhile are not held up by
// the encode or the fsyncs: they see the table with or without the new
// segment.
func (st *SegmentTable) AppendRange(t *engine.Table, lo, hi int) error {
	if err := matchSchema(st.schema, t.Schema().Columns()); err != nil {
		return fmt.Errorf("storage: appending to %s: %w", st.name, err)
	}
	st.appendMu.Lock()
	defer st.appendMu.Unlock()
	path := filepath.Join(st.dir, fmt.Sprintf("seg-%06d%s", st.NumSegments(), segFileExt))
	if _, err := WriteSegment(path, t, lo, hi); err != nil {
		return err
	}
	seg, err := OpenSegment(path)
	if err != nil {
		return err
	}
	st.mu.Lock()
	st.segs = append(st.segs, seg)
	st.mu.Unlock()
	return nil
}

// ScanFilter is Scan of every column.
func (st *SegmentTable) ScanFilter(p predicate.Predicate, par int) (*engine.Table, error) {
	return st.Scan(engine.ScanSpec{Pred: p}, par)
}

// Scan returns what spec asks for and reads only the pages that takes.
// Segments are the morsels, claimed whole by par workers: each is skipped
// unread when its zone maps prove no row TRUE, or else has its predicate's
// pages read and run to a selection (unless the zone maps prove every row
// TRUE), then its other needed pages read if any row survives. Once the
// survivor counts are prefix-summed into output offsets, each segment
// decodes its survivors straight into the output columns. Output order is
// segment order, so the result is byte-identical at any par. Every page
// read is verified first; a corrupt one fails the scan with ErrCorrupt.
func (st *SegmentTable) Scan(spec engine.ScanSpec, par int) (*engine.Table, error) {
	st.mu.RLock()
	segs := append([]*Segment(nil), st.segs...)
	st.mu.RUnlock()

	outCols, err := st.columnIndices(spec.Cols)
	if err != nil {
		return nil, err
	}
	var prog *predicate.Program
	var predCols []int
	if spec.Pred != nil {
		prog = predicate.Compile(spec.Pred)
		// Not nil, which would name every column.
		if predCols, err = st.columnIndices(append([]string{}, predicate.Columns(spec.Pred)...)); err != nil {
			return nil, err
		}
	}
	scans := make([]segScan, len(segs))
	engine.ForEachTask(len(segs), par, func(i int) {
		scans[i].seg = segs[i]
		scans[i].err = scans[i].selectRows(st.name, prog, predCols, outCols)
	})
	total := 0
	for i := range scans {
		if scans[i].err != nil {
			return nil, scans[i].err
		}
		scans[i].off = total
		total += scans[i].n
	}
	cols := make([]predicate.Column, len(outCols))
	values := make([]engine.ColumnValues, len(outCols))
	for j, i := range outCols {
		cols[j] = st.schema.Columns()[i]
		values[j] = engine.NewColumnValues(cols[j], total)
		for k := range scans { // the bound of the segments that contribute rows
			if scans[k].n > 0 {
				values[j].MaxAbs = max(values[j].MaxAbs, segs[k].zones[i].maxAbs())
			}
		}
	}
	engine.ForEachTask(len(segs), par, func(i int) { scans[i].gather(outCols, values) })
	return engine.NewTableFromColumns(st.name, predicate.NewSchema(cols...), total, values)
}

// columnIndices returns the schema positions of names, in schema order and
// without repeats; nil names every column.
func (st *SegmentTable) columnIndices(names []string) ([]int, error) {
	for _, name := range names {
		if _, ok := st.schema.Lookup(name); !ok {
			return nil, fmt.Errorf("storage: unknown column %s.%s", st.name, name)
		}
	}
	var idx []int
	for i, c := range st.schema.Columns() {
		if names == nil || slices.Contains(names, c.Name) {
			idx = append(idx, i)
		}
	}
	return idx, nil
}
