package plan

import (
	"fmt"
	"strings"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// Default selectivities, in the tradition of System R's magic numbers:
// without data statistics the optimizer guesses a third of rows survive an
// inequality and a tenth survive an equality.
const (
	selInequality = 1.0 / 3
	selEquality   = 1.0 / 10
)

// EstimateRows predicts a plan node's output cardinality from base-table
// row counts and textbook selectivity constants. It powers ExplainEstimate
// and gives the Sia rewrite a quick sanity signal (a synthesized predicate
// with estimated selectivity ~1 is unlikely to pay for its scan — the
// phenomenon Table 4 measures with real selectivities).
func EstimateRows(n Node, c *Catalog) (float64, error) {
	switch x := n.(type) {
	case *Scan:
		n, err := c.rowCount(x.TableName)
		if err != nil {
			return 0, err
		}
		return float64(n), nil
	case *Filter:
		in, err := EstimateRows(x.Input, c)
		if err != nil {
			return 0, err
		}
		return in * EstimateSelectivity(x.Pred), nil
	case *Join:
		l, err := EstimateRows(x.Left, c)
		if err != nil {
			return 0, err
		}
		r, err := EstimateRows(x.Right, c)
		if err != nil {
			return 0, err
		}
		// Key-FK assumption: output ≈ the larger side scaled by the
		// smaller side's retention fraction of its base table.
		lBase, err := baseRows(x.Left, c)
		if err != nil {
			return 0, err
		}
		rBase, err := baseRows(x.Right, c)
		if err != nil {
			return 0, err
		}
		big, small, smallBase := l, r, rBase
		if rBase > lBase {
			big, small, smallBase = r, l, lBase
		}
		if smallBase == 0 {
			return 0, nil
		}
		return big * (small / smallBase), nil
	case *Project:
		return EstimateRows(x.Input, c)
	case *Aggregate:
		in, err := EstimateRows(x.Input, c)
		if err != nil {
			return 0, err
		}
		if len(x.GroupBy) == 0 {
			return 1, nil
		}
		// Square-root group-count heuristic.
		g := 1.0
		for in > 1 && g*g < in {
			g++
		}
		return g, nil
	default:
		return 0, fmt.Errorf("plan: cannot estimate %T", n)
	}
}

// baseRows returns the underlying scan cardinality of a subtree (the
// denominator of retention fractions).
func baseRows(n Node, c *Catalog) (float64, error) {
	switch x := n.(type) {
	case *Scan:
		n, err := c.rowCount(x.TableName)
		if err != nil {
			return 0, err
		}
		return float64(n), nil
	case *Filter:
		return baseRows(x.Input, c)
	case *Project:
		return baseRows(x.Input, c)
	default:
		return EstimateRows(n, c)
	}
}

// EstimateSelectivity predicts the fraction of rows a predicate keeps,
// using independence for AND, inclusion-exclusion for OR, and complement
// for NOT.
func EstimateSelectivity(p predicate.Predicate) float64 {
	switch x := p.(type) {
	case *predicate.Literal:
		if x.B {
			return 1
		}
		return 0
	case *predicate.Compare:
		if x.Op == predicate.CmpEQ {
			return selEquality
		}
		if x.Op == predicate.CmpNE {
			return 1 - selEquality
		}
		return selInequality
	case *predicate.And:
		s := 1.0
		for _, q := range x.Preds {
			s *= EstimateSelectivity(q)
		}
		return s
	case *predicate.Or:
		s := 0.0
		for _, q := range x.Preds {
			sq := EstimateSelectivity(q)
			s = s + sq - s*sq
		}
		return s
	case *predicate.Not:
		return 1 - EstimateSelectivity(x.P)
	default:
		return selInequality
	}
}

// EstimateSelectivityWithStats is EstimateSelectivity with histogram
// statistics: a comparison of a single column against a constant is
// estimated from that column's histogram when one is provided, and every
// other shape falls back to the System-R constants. Statistics are keyed
// by column name (engine.BuildStats).
func EstimateSelectivityWithStats(p predicate.Predicate, stats map[string]*engine.ColumnStats) float64 {
	switch x := p.(type) {
	case *predicate.Compare:
		if sel, ok := compareFromStats(x, stats); ok {
			return sel
		}
		return EstimateSelectivity(x)
	case *predicate.And:
		s := 1.0
		for _, q := range x.Preds {
			s *= EstimateSelectivityWithStats(q, stats)
		}
		return s
	case *predicate.Or:
		s := 0.0
		for _, q := range x.Preds {
			sq := EstimateSelectivityWithStats(q, stats)
			s = s + sq - s*sq
		}
		return s
	case *predicate.Not:
		return 1 - EstimateSelectivityWithStats(x.P, stats)
	default:
		return EstimateSelectivity(p)
	}
}

// compareFromStats recognizes `col op const` (either orientation) and
// answers from the histogram.
func compareFromStats(c *predicate.Compare, stats map[string]*engine.ColumnStats) (float64, bool) {
	col, lok := c.Left.(*predicate.ColumnRef)
	k, rok := c.Right.(*predicate.Const)
	op := c.Op
	if !lok || !rok {
		col, lok = c.Right.(*predicate.ColumnRef)
		k, rok = c.Left.(*predicate.Const)
		op = op.Flip()
	}
	if !lok || !rok || k.Val.Null || !k.Type.Integral() {
		return 0, false
	}
	st, ok := stats[col.Name]
	if !ok {
		return 0, false
	}
	return st.EstimateCompare(op, col.Name, k.Val.Int)
}

// ExplainEstimate renders the plan like Explain, annotating every operator
// with its estimated output cardinality.
func ExplainEstimate(n Node, c *Catalog) (string, error) {
	var sb strings.Builder
	var walk func(n Node, depth int) error
	walk = func(n Node, depth int) error {
		rows, err := EstimateRows(n, c)
		if err != nil {
			return err
		}
		sb.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&sb, "%s  (est. %.0f rows)\n", n.describe(), rows)
		for _, ch := range n.Children() {
			if err := walk(ch, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n, 0); err != nil {
		return "", err
	}
	return sb.String(), nil
}
