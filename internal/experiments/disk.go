package experiments

import (
	"fmt"
	"os"
	"sort"

	"sia/internal/engine"
	"sia/internal/plan"
	"sia/internal/storage"
	"sia/internal/tpch"
)

// DefaultSegmentRows is the ingestion batch size of the disk experiment:
// each segment file holds this many rows (except the final remainder).
const DefaultSegmentRows = 8192

// sortByColumn returns t's rows stably reordered by ascending col — the
// experiment's stand-in for time-ordered streaming ingestion, which is
// what gives date zone maps their narrow per-segment ranges.
func sortByColumn(t *engine.Table, col string) (*engine.Table, error) {
	vals := t.Ints(col)
	idx := make([]int, t.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	return engine.ReorderRows(t, idx, 0)
}

// ingest writes t into a new directory under root as segments of segRows
// rows each and returns the opened segment table.
func ingest(root string, t *engine.Table, segRows int) (*storage.SegmentTable, error) {
	dir, err := os.MkdirTemp(root, t.Name+"-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	st, err := storage.Open(dir, t.Name, t.Schema())
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < t.NumRows(); lo += segRows {
		if err := st.AppendRange(t, lo, min(lo+segRows, t.NumRows())); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Fig9Disk runs the Fig. 9 runtime experiment over disk-backed storage:
// TPC-H data is sorted by its date column (time-ordered ingestion) and
// written as zone-mapped segment files of cfg.SegmentRows rows, so the
// original plan's lineitem scan reads every segment while the Sia-rewritten
// plan's synthesized lineitem predicate prunes segments before their pages
// are read. The records carry the storage counters of both plans.
func Fig9Disk(cfg Config) ([]RuntimeRecord, error) {
	segRows := cfg.SegmentRows
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	root, err := os.MkdirTemp("", "sia-fig9-disk-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: disk experiment scratch dir: %w", err)
	}
	defer os.RemoveAll(root)

	return fig9(cfg, func(sf float64) (mem, cat *plan.Catalog, err error) {
		orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: sf})
		if orders, err = sortByColumn(orders, "o_orderdate"); err != nil {
			return nil, nil, err
		}
		if lineitem, err = sortByColumn(lineitem, "l_shipdate"); err != nil {
			return nil, nil, err
		}
		cat = plan.NewCatalog()
		for _, t := range []*engine.Table{orders, lineitem} {
			st, err := ingest(root, t, segRows)
			if err != nil {
				return nil, nil, err
			}
			cat.AddSource(st)
		}
		return memCatalog(orders, lineitem), cat, nil
	})
}
