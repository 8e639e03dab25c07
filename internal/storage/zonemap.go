package storage

import "sia/internal/predicate"

// Zone-map pruning is a tiny abstract interpretation: each segment is
// summarized by per-column intervals (the footer's min/max over non-NULL
// values) plus NULL presence, and a predicate is evaluated over that
// summary into the *set* of three-valued truth outcomes its rows could
// produce. A scan may skip a segment exactly when TRUE is not in that set —
// SQL filters keep only TRUE rows, so a segment that can yield at most
// FALSE/UNKNOWN contributes nothing — and may keep every row unevaluated
// when the set is exactly {TRUE}.
//
// The predicate arrives as the same compiled predicate.Program the engine
// runs, so both layers read every comparison the same way. The evaluation
// is a sound over-approximation: anything it cannot bound (opaque leaves,
// DOUBLE columns, columns the segment does not carry, intervals too wide
// for int64 arithmetic) widens to "any outcome", which can only prevent
// pruning, never cause a wrong skip. Soundness is pinned by a property test
// that checks the abstract truth set against row-by-row predicate.Eval on
// random segments.

// truthSet is a bitmask over the three-valued logic outcomes a predicate
// can take on some row of a segment.
type truthSet uint8

const (
	canTrue truthSet = 1 << iota
	canFalse
	canUnknown

	truthAny = canTrue | canFalse | canUnknown
)

// truth abstractly evaluates p over the segment's zone maps, returning
// every truth value some row could produce. The program is in negation
// normal form, so only AND and OR need lifting.
func (s *Segment) truth(p *predicate.Program) truthSet {
	switch p.Kind {
	case predicate.ProgAnd:
		set := canTrue
		for _, kid := range p.Kids {
			set = combine(set, s.truth(kid), predicate.TriBool.And)
		}
		return set
	case predicate.ProgOr:
		set := canFalse
		for _, kid := range p.Kids {
			set = combine(set, s.truth(kid), predicate.TriBool.Or)
		}
		return set
	case predicate.ProgLinear:
		return s.linearTruth(p)
	default:
		return truthAny
	}
}

var triValues = [...]predicate.TriBool{predicate.True, predicate.False, predicate.Unknown}

// combine lifts a three-valued connective to truth sets pointwise: the
// result contains op(a, b) for every a in s1 and b in s2.
func combine(s1, s2 truthSet, op func(a, b predicate.TriBool) predicate.TriBool) truthSet {
	var out truthSet
	for _, a := range triValues {
		for _, b := range triValues {
			if s1&triBit(a) != 0 && s2&triBit(b) != 0 {
				out |= triBit(op(a, b))
			}
		}
	}
	return out
}

func triBit(v predicate.TriBool) truthSet {
	switch v {
	case predicate.True:
		return canTrue
	case predicate.False:
		return canFalse
	default:
		return canUnknown
	}
}

// linearTruth bounds a linear leaf's Σ coef·col + K over the column min/max
// intervals and reads the comparison's possible outcomes off the interval's
// position relative to zero. NULLs in a referenced column add UNKNOWN; an
// all-NULL referenced column forces UNKNOWN for every row. NULL handling
// walks the leaf's syntactic column set (Refs), not its coefficients: a
// column can vanish from the linear form (0*ts, ts-ts) yet still poison the
// comparison with NULL. The interval ends are computed in int64, which
// Program.FitsInt64 licenses for max(|min|,|max|) per column — the same
// bound the engine applies to its data before using the wrapping kernels.
func (s *Segment) linearTruth(p *predicate.Program) truthSet {
	hasNull := false
	for _, name := range p.Refs {
		c, zm, ok := s.column(name)
		if !ok || !c.Type.Integral() {
			return truthAny // column not summarized as an int64 interval
		}
		if !zm.HasValues {
			return canUnknown
		}
		hasNull = hasNull || zm.NullCount > 0
	}

	maxAbs := make([]uint64, len(p.Cols))
	lo, hi := p.K, p.K
	for i, name := range p.Cols {
		_, zm, _ := s.column(name) // present and integral: Cols ⊆ Refs
		maxAbs[i] = zm.maxAbs()
		// These wrap only when FitsInt64 fails below and discards them.
		atMin, atMax := p.Coefs[i]*zm.Min, p.Coefs[i]*zm.Max
		if p.Coefs[i] < 0 {
			atMin, atMax = atMax, atMin
		}
		lo += atMin
		hi += atMax
	}
	if !p.FitsInt64(maxAbs) {
		return truthAny
	}

	set := intervalOutcomes(p.Leaf.Op, lo, hi)
	if hasNull {
		set |= canUnknown
	}
	return set
}

// column looks a column up in the segment's catalog.
func (s *Segment) column(name string) (predicate.Column, ZoneMap, bool) {
	for i, c := range s.Columns() {
		if c.Name == name {
			return c, s.zones[i], true
		}
	}
	return predicate.Column{}, ZoneMap{}, false
}

// intervalOutcomes returns the outcomes of "x op 0" over x ∈ [lo, hi]: it
// can be FALSE exactly where the negated operator can be TRUE.
func intervalOutcomes(op predicate.CmpOp, lo, hi int64) truthSet {
	var s truthSet
	if holdsSomewhere(op, lo, hi) {
		s |= canTrue
	}
	if holdsSomewhere(op.Negate(), lo, hi) {
		s |= canFalse
	}
	return s
}

// holdsSomewhere reports whether "x op 0" is true for some x ∈ [lo, hi].
func holdsSomewhere(op predicate.CmpOp, lo, hi int64) bool {
	switch op {
	case predicate.CmpLT:
		return lo < 0
	case predicate.CmpLE:
		return lo <= 0
	case predicate.CmpGT:
		return hi > 0
	case predicate.CmpGE:
		return hi >= 0
	case predicate.CmpEQ:
		return lo <= 0 && hi >= 0
	case predicate.CmpNE:
		return lo != 0 || hi != 0
	default:
		return true // an operator unknown here may hold anywhere: widen
	}
}
