package smt

import (
	"context"
	"fmt"
	"math/big"
)

// EnumerateModelsCtx yields up to limit distinct models of a quantifier-free
// formula over the given variables, invoking emit for each; emit returns
// false to stop early.
//
// Unlike repeated ModelCtx calls with blocking clauses, enumeration recurses
// over candidate values per variable: at each level the remaining variables
// are projected away once (without any blocking constraints, so the
// formulas stay small), the finite candidate set of the resulting
// univariate formula is scanned, and each satisfying value is substituted
// before recursing. The candidate set covers every interval/congruence
// pattern of the univariate solution set, so enumeration finds a
// representative subset of the region — but not necessarily every point of
// an interval. Callers that must distinguish "no more points" from
// "candidates ran out" (Sia's optimality proof does) should confirm
// exhaustion with a blocked ModelCtx query. Cancelling ctx surfaces as
// ErrInterrupted within one elimination step.
func (s *Solver) EnumerateModelsCtx(ctx context.Context, f Formula, vars []Var, limit int, emit func(Model) bool) error {
	defer s.arm(ctx, opEnumerate)()
	qf, err := s.qe(f)
	if err != nil {
		return err
	}
	qf = Simplify(NNF(qf))
	if b, ok := qf.(Bool); ok && !bool(b) {
		return nil
	}
	remaining := limit
	current := Model{}
	return s.enumerateRec(qf, vars, current, &remaining, emit)
}

func (s *Solver) enumerateRec(f Formula, vars []Var, current Model, remaining *int, emit func(Model) bool) error {
	if *remaining <= 0 {
		return nil
	}
	if err := s.checkStop(); err != nil {
		return err
	}
	if len(vars) == 0 {
		if b, ok := f.(Bool); ok && bool(b) {
			out := Model{}
			for v, val := range current {
				out[v] = new(big.Rat).Set(val)
			}
			*remaining--
			if !emit(out) {
				*remaining = 0
			}
		}
		return nil
	}
	v := vars[0]
	// Project the rest away to get the univariate feasibility condition
	// for v under the current prefix.
	proj := f
	for _, w := range vars[1:] {
		proj = &Exists{V: w, F: proj}
	}
	uni, err := s.qe(proj)
	if err != nil {
		return err
	}
	uni = Simplify(NNF(uni))
	if b, ok := uni.(Bool); ok && !bool(b) {
		return nil
	}
	// Widen the scan window with demand: a single-column request for n
	// samples needs ~n integers per interval, not just the bound
	// neighborhoods.
	spread := int64(enumSpread)
	if want := int64(*remaining) + 4; len(vars) == 1 && want > spread {
		spread = want
	}
	cands, err := univariateCandidates(v, uni, spread)
	if err != nil {
		return err
	}
	for _, c := range cands {
		if *remaining <= 0 {
			return nil
		}
		ok := Simplify(Subst(uni, v, NewTerm(c)))
		if b, isB := ok.(Bool); !isB || !bool(b) {
			continue
		}
		current[v] = c
		sub := Simplify(Subst(f, v, NewTerm(c)))
		if err := s.enumerateRec(sub, vars[1:], current, remaining, emit); err != nil {
			return err
		}
		delete(current, v)
	}
	return nil
}

// enumSpread widens the integer scan window around each bound during model
// enumeration: satisfiability only needs a δ-neighborhood, but enumeration
// wants a richer harvest of points per interval.
const enumSpread = 12

// univariateCandidates returns a finite candidate set that covers every
// interval/congruence pattern of the univariate formula's solution set, in
// deterministic order. spread ≥ δ+1 widens the window scanned around each
// bound (integers only).
func univariateCandidates(v Var, f Formula, spread int64) ([]*big.Rat, error) {
	if _, ok := f.(Bool); ok {
		return []*big.Rat{new(big.Rat)}, nil
	}
	bounds, base, delta, err := readUnivariate(v, f)
	if err != nil {
		return nil, err
	}
	var candidates []*big.Rat
	seen := map[string]bool{}
	push := func(r *big.Rat) {
		if key := r.RatString(); !seen[key] {
			seen[key] = true
			candidates = append(candidates, r)
		}
	}
	if v.Sort == SortInt {
		if !delta.IsInt64() || delta.Int64() > 100000 {
			return nil, fmt.Errorf("%w: enumeration period %s too large", ErrBudget, delta)
		}
		dn := delta.Int64() + 1
		if dn < spread {
			dn = spread
		}
		if est := int64(2*len(bounds)+1) * (2*dn + 1); est > 200000 {
			return nil, fmt.Errorf("%w: %d enumeration candidates", ErrBudget, est)
		}
		// Order matters for enumeration quality: emit center-out offsets
		// (0, +1, -1, +2, -2, …) round-robin across the base points, so
		// the first models drawn sit at the bounds and near zero rather
		// than at one arbitrary end of the scan window.
		if base64, ok := intBases64(base, dn); ok {
			// Same values in the same order as the slow loop below, but
			// dedup runs on int64 keys and only kept candidates
			// materialize a big.Rat.
			seen64 := make(map[int64]bool, len(base64))
			push64 := func(n int64) {
				if !seen64[n] {
					seen64[n] = true
					candidates = append(candidates, new(big.Rat).SetInt64(n))
				}
			}
			for j := int64(0); j <= dn; j++ {
				for _, b := range base64 {
					push64(b + j)
					if j != 0 {
						push64(b - j)
					}
				}
			}
			return candidates, nil
		}
		for j := int64(0); j <= dn; j++ {
			for _, b := range base {
				push(new(big.Rat).Add(b, new(big.Rat).SetInt64(j)))
				if j != 0 {
					push(new(big.Rat).Sub(b, new(big.Rat).SetInt64(j)))
				}
			}
		}
	} else {
		push(new(big.Rat))
		for i, b := range bounds {
			push(new(big.Rat).Set(b))
			push(new(big.Rat).Sub(b, ratOne))
			push(new(big.Rat).Add(b, ratOne))
			for _, o := range bounds[i+1:] {
				mid := new(big.Rat).Add(b, o)
				mid.Quo(mid, big.NewRat(2, 1))
				push(mid)
			}
		}
	}
	return candidates, nil
}

// readUnivariate reads what both univariate scans — solveUnivariate and
// univariateCandidates — need from a quantifier-free formula whose only
// free variable is v: the distinct bound constants its atoms put on v, in
// first-seen order; δ, the lcm of the moduli of the divisibility
// constraints on v; and, for an integer v, the base points of the integer
// scan, 0 followed by ⌊b⌋ and ⌊b⌋+1 for each bound b. Each caller applies
// its own caps, window and candidate order to these.
func readUnivariate(v Var, f Formula) (bounds, base []*big.Rat, delta *big.Int, err error) {
	seen := map[string]bool{}
	delta = big.NewInt(1)
	err = walkLeaves(f, func(leaf Formula) error {
		switch x := leaf.(type) {
		case *Atom:
			c := x.T.Coeff(v)
			if c.Sign() == 0 {
				return fmt.Errorf("smt: internal: ground atom %s survived simplification", x)
			}
			rest := new(big.Rat).Set(x.T.Const())
			// bound = -rest/c
			b := rest.Neg(rest)
			b.Quo(b, c)
			if key := b.RatString(); !seen[key] {
				seen[key] = true
				bounds = append(bounds, b)
			}
		case *Div:
			if x.T.Has(v) {
				lcmInto(delta, x.M)
			}
		default:
			// walkLeaves yields only Atom and Div leaves.
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if v.Sort == SortInt {
		base = []*big.Rat{new(big.Rat)}
		for _, b := range bounds {
			fl := ratFloor(b)
			base = append(base, new(big.Rat).SetInt(fl), new(big.Rat).SetInt(new(big.Int).Add(fl, bigOne)))
		}
	}
	return bounds, base, delta, nil
}

// intBases64 extracts the base points as int64 values when every one is an
// integer far enough from the int64 edges that adding or subtracting
// offsets up to dn+1 cannot overflow. It is the gate for the allocation-
// free candidate loops in univariateCandidates and solveUnivariate.
func intBases64(base []*big.Rat, dn int64) ([]int64, bool) {
	const margin = int64(1) << 61
	if dn >= margin {
		return nil, false
	}
	out := make([]int64, len(base))
	for i, b := range base {
		if !b.IsInt() || !b.Num().IsInt64() {
			return nil, false
		}
		n := b.Num().Int64()
		if n > margin || n < -margin {
			return nil, false
		}
		out[i] = n
	}
	return out, true
}
