package predicate

import (
	"fmt"
	"math"
	"math/big"
)

// ProgKind discriminates the nodes of a Program.
type ProgKind uint8

const (
	// ProgAnd is a Kleene conjunction of Kids; with no Kids it is TRUE.
	ProgAnd ProgKind = iota
	// ProgOr is a Kleene disjunction of Kids; with no Kids it is FALSE.
	ProgOr
	// ProgLinear is a comparison normalized to Σ Coefs[i]·Cols[i] + K Leaf.Op 0.
	ProgLinear
	// ProgOpaque is a comparison only Eval can read (non-linear, NULL
	// constant, division by zero, coefficients that do not clear into int64).
	ProgOpaque
)

// Program is a predicate compiled once for the read path: the engine runs
// it over column slices and storage interprets the same tree over zone-map
// intervals, so both layers share one reading of every comparison.
//
// It is in negation normal form. NOT is pushed through AND/OR by De Morgan
// (valid in Kleene logic) and into each comparison's operator, which is
// sound under Eval: a comparison is UNKNOWN exactly when an operand is NULL,
// whatever its operator, and otherwise compareNums is a total three-way
// compare, so NOT(a < b) and a >= b agree on every row. With NOT gone, the
// rows on which an AND/OR is TRUE are the intersection/union of the rows on
// which its operands are TRUE — evaluators may work on "is TRUE" bitmaps.
type Program struct {
	Kind ProgKind
	Kids []*Program // ProgAnd, ProgOr

	// Leaf is the comparison of a ProgLinear or ProgOpaque node, negation
	// already folded into its operator.
	Leaf *Compare

	// ProgLinear only. Cols are the columns with a non-zero coefficient,
	// sorted; the form is Leaf.Left − Leaf.Right scaled by a positive
	// integer, so it compares against zero exactly as Leaf does wherever
	// Leaf is not UNKNOWN. Refs is every column Leaf mentions (sorted,
	// distinct): a NULL in any of them makes Leaf UNKNOWN even when the
	// column cancels out of the linear form (0*x, x-x).
	Cols  []string
	Coefs []int64
	K     int64
	Refs  []string
}

// maxDenominatorLCM caps the scale that clears a linear form's fractional
// coefficients; beyond it the comparison stays opaque.
const maxDenominatorLCM = 1 << 20

// Compile compiles p into a Program.
func Compile(p Predicate) *Program { return compile(p, false) }

func compile(p Predicate, neg bool) *Program {
	switch x := p.(type) {
	case *Not:
		return compile(x.P, !neg)
	case *And:
		return compileKids(ProgAnd, ProgOr, x.Preds, neg)
	case *Or:
		return compileKids(ProgOr, ProgAnd, x.Preds, neg)
	case *Literal:
		if x.B != neg {
			return &Program{Kind: ProgAnd}
		}
		return &Program{Kind: ProgOr}
	case *Compare:
		if neg {
			x = Cmp(x.Op.Negate(), x.Left, x.Right)
		}
		return compileLeaf(x)
	default:
		panic(fmt.Sprintf("predicate: unknown predicate %T", p))
	}
}

func compileKids(kind, dual ProgKind, ps []Predicate, neg bool) *Program {
	if neg { // De Morgan
		kind = dual
	}
	n := &Program{Kind: kind, Kids: make([]*Program, len(ps))}
	for i, q := range ps {
		n.Kids[i] = compile(q, neg)
	}
	return n
}

func compileLeaf(c *Compare) *Program {
	leaf := &Program{Kind: ProgOpaque, Leaf: c}
	lin, err := Linearize(Sub(c.Left, c.Right))
	if err != nil {
		return leaf
	}
	// Clear denominators: scaling by a positive integer preserves every
	// comparison against zero. The LCM is a big.Int, so it cannot wrap on
	// the way to the cap.
	scale := denominatorLCM(lin)
	if !scale.IsInt64() || scale.Int64() > maxDenominatorLCM {
		return leaf
	}
	lin.Scale(new(big.Rat).SetInt(scale))
	cols := lin.Columns()
	coefs := make([]int64, len(cols))
	for i, col := range cols {
		v := lin.Coeffs[col].Num() // integral after scaling
		if !v.IsInt64() {
			return leaf
		}
		coefs[i] = v.Int64()
	}
	k := lin.Const.Num()
	if !k.IsInt64() {
		return leaf
	}
	leaf.Kind = ProgLinear
	leaf.Cols, leaf.Coefs, leaf.K = cols, coefs, k.Int64()
	leaf.Refs = Columns(c)
	return leaf
}

// FitsInt64 reports whether a ProgLinear leaf may be evaluated in wrapping
// int64 arithmetic over column values with |Cols[i]| <= maxAbs[i]: it holds
// when |K| + Σ |Coefs[i]|·maxAbs[i] + 1 fits in int64. Every partial sum of
// the form is bounded in magnitude by that total, and the extra unit covers
// an evaluator's K−1 tightening of <= into < and the negation of every
// coefficient for >/>= (|−K| = |K| except at MinInt64, which the +1
// absorbs). The engine applies it with per-column data bounds, storage with
// max(|min|,|max|) of a zone map.
func (p *Program) FitsInt64(maxAbs []uint64) bool {
	bound := addBound(AbsUint64(p.K), 1)
	for i, c := range p.Coefs {
		bound = addBound(bound, mulBound(AbsUint64(c), maxAbs[i]))
	}
	return bound <= math.MaxInt64
}

// AbsUint64 returns |v| exactly, including |math.MinInt64| = 2⁶³ which does
// not fit in int64.
func AbsUint64(v int64) uint64 {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	return u
}

// addBound adds two magnitude bounds, saturating above int64 range.
func addBound(a, b uint64) uint64 {
	s := a + b
	if s < a || s > math.MaxInt64 {
		return math.MaxInt64 + 1
	}
	return s
}

// mulBound multiplies two magnitude bounds, saturating above int64 range.
func mulBound(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/a != b || p > math.MaxInt64 {
		return math.MaxInt64 + 1
	}
	return p
}
