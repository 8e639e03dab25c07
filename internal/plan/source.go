package plan

import (
	"fmt"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// TableSource is an external base table the executor reads through a
// combined scan+filter entry point instead of materializing it up front.
// internal/storage's SegmentTable is the canonical implementation: handing
// it the pushed-down predicate lets it skip whole segments via zone maps,
// which is how a Sia-synthesized single-column range predicate turns into
// I/O elimination rather than mere row filtering.
//
// ScanFilter must return exactly what engine.FilterPar over the fully
// materialized source would (all rows when p is nil), so plans over
// sources stay value-identical to plans over in-memory tables.
type TableSource interface {
	Name() string
	Schema() *predicate.Schema
	ScanFilter(p predicate.Predicate, par int) (*engine.Table, error)
}

// AddSource registers an external table source under its name.
func (c *Catalog) AddSource(s TableSource) { c.sources[s.Name()] = s }

// Source looks an external source up by name.
func (c *Catalog) Source(name string) (TableSource, error) {
	s, ok := c.sources[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown table source %q", name)
	}
	return s, nil
}

// sourceFor resolves a scan to its external source, when the scanned name
// is source-backed (in-memory tables take precedence, preserving the
// pre-source executor behavior for every existing catalog).
func (c *Catalog) sourceFor(n Node) (TableSource, bool) {
	scan, ok := n.(*Scan)
	if !ok {
		return nil, false
	}
	if _, mem := c.tables[scan.TableName]; mem {
		return nil, false
	}
	s, ok := c.sources[scan.TableName]
	return s, ok
}
