package plan

import (
	"fmt"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// TableSource is an external base table the executor reads through one
// combined scan entry point instead of materializing it up front.
// internal/storage's SegmentTable is the canonical implementation: handing
// it the pushed-down predicate lets it skip whole segments via zone maps,
// which is how a Sia-synthesized single-column range predicate turns into
// I/O elimination rather than mere row filtering, and handing it the
// needed columns lets it leave every other column unread.
//
// Scan must return exactly what engine.FilterPar over the fully
// materialized source would, projected to spec.Cols (see engine.ScanSpec),
// so plans over sources stay value-identical to plans over in-memory
// tables. The returned table belongs to the caller, and the executor hands
// its arrays to engine.Release once the operator reading it returns, so
// Scan must never return a table whose arrays anything else still holds.
type TableSource interface {
	Name() string
	Schema() *predicate.Schema
	Scan(spec engine.ScanSpec, par int) (*engine.Table, error)
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

// sourceScan resolves a scan, or a filter directly on one, to the external
// source it reads and the predicate its scan applies, when the scanned name
// is source-backed (in-memory tables take precedence, preserving the
// pre-source executor behavior for every existing catalog).
func (c *Catalog) sourceScan(n Node) (TableSource, predicate.Predicate, bool) {
	var pred predicate.Predicate
	if f, ok := n.(*Filter); ok {
		n, pred = f.Input, f.Pred
	}
	scan, ok := n.(*Scan)
	if !ok {
		return nil, nil, false
	}
	if _, mem := c.tables[scan.TableName]; mem {
		return nil, nil, false
	}
	s, ok := c.sources[scan.TableName]
	return s, pred, ok
}
