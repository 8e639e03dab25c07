package smt

import (
	"fmt"
	"math/big"
)

// eliminateReal eliminates an existentially quantified real variable from a
// quantifier-free NNF formula using Loos–Weispfenning virtual substitution:
//
//	∃x F  ==  ⋁_{t ∈ testpoints} F[x := t]
//
// where the test points are -∞, every lower bound value s (from atoms
// x ≥ s and x = s), and every s + ε (from atoms x > s and x ≠ s). The
// substitutions of -∞ and s + ε are virtual: each atom is rewritten into an
// equivalent ε-free condition.
//
// The procedure is sound in mixed formulas: atoms mentioning x may also
// mention integer variables, because only x's real-valued range is reasoned
// about. Divisibility atoms mentioning x are rejected (they would make x
// integer-constrained, which contradicts its sort; they are never produced
// for real variables).
func (s *Solver) eliminateReal(v Var, f Formula) (Formula, error) {
	// Collect test points.
	type testPoint struct {
		term *Term // nil for -∞
		eps  bool  // substitute term + ε
	}
	points := []testPoint{{term: nil}}
	seenExact := map[string]bool{}
	seenEps := map[string]bool{}
	err := walkLeaves(f, func(leaf Formula) error {
		switch x := leaf.(type) {
		case *Div:
			if x.T.Has(v) {
				return fmt.Errorf("smt: divisibility atom %s constrains real variable %s", x, v)
			}
			return nil
		case *Atom:
			if !x.T.Has(v) {
				return nil
			}
			a := x.T.Coeff(v)
			// Solve the atom for v: v ⋈ s with s = -rest/a.
			rest := x.T.Clone()
			rest.remove(v)
			bound := rest.Neg().Scale(new(big.Rat).Inv(a))
			key := bound.String()
			addExact := func() {
				if !seenExact[key] {
					seenExact[key] = true
					points = append(points, testPoint{term: bound})
				}
			}
			addEps := func() {
				if !seenEps[key] {
					seenEps[key] = true
					points = append(points, testPoint{term: bound, eps: true})
				}
			}
			neg := a.Sign() < 0
			switch x.Op {
			case OpLT: // a·v + r < 0: v < s if a>0, v > s if a<0.
				if neg {
					addEps()
				}
			case OpLE: // v <= s or v >= s.
				if neg {
					addExact()
				}
			case OpEQ:
				addExact()
			case OpNE:
				addEps()
			}
			return nil
		default:
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	var disjuncts []Formula
	total := 0
	for _, tp := range points {
		if err := s.checkStop(); err != nil {
			return nil, err
		}
		var g Formula
		if tp.term == nil {
			g = substRealMinusInf(f, v)
		} else if tp.eps {
			g = substRealEps(f, v, tp.term)
		} else {
			g = Subst(f, v, tp.term)
		}
		g = Simplify(g)
		if b, ok := g.(Bool); ok {
			if bool(b) {
				return Bool(true), nil
			}
			continue
		}
		disjuncts = append(disjuncts, g)
		total += CountNodes(g)
		if total > maxNodes {
			return nil, fmt.Errorf("%w: formula grew past %d nodes eliminating %s", ErrBudget, maxNodes, v)
		}
	}
	return Simplify(NewOr(disjuncts...)), nil
}

// substRealMinusInf virtually substitutes v := -∞.
func substRealMinusInf(f Formula, v Var) Formula {
	out, err := rewriteLeaves(f, func(leaf Formula) (Formula, error) {
		a, ok := leaf.(*Atom)
		if !ok || !a.T.Has(v) {
			return leaf, nil
		}
		c := a.T.Coeff(v)
		switch a.Op {
		case OpLT, OpLE:
			// a·v → -∞·sign(a): the atom holds iff the term diverges to -∞.
			return Bool(c.Sign() > 0), nil
		case OpEQ:
			return Bool(false), nil
		case OpNE:
			return Bool(true), nil
		default:
			panic("smt: bad atom op")
		}
	})
	if err != nil {
		panic("smt: internal: substRealMinusInf rewrite failed: " + err.Error()) // callback never errors
	}
	return out
}

// substRealEps virtually substitutes v := s + ε for an infinitesimal ε > 0.
// With t = a·s + r the value of atom a·v + r at s + ε is t + a·ε, so:
//
//	a > 0:  t + a·ε <  0  ==  t < 0      a < 0:  t + a·ε <  0  ==  t <= 0
//	a > 0:  t + a·ε <= 0  ==  t < 0      a < 0:  t + a·ε <= 0  ==  t <= 0
//	        t + a·ε =  0  ==  false              t + a·ε != 0  ==  true
func substRealEps(f Formula, v Var, s0 *Term) Formula {
	out, err := rewriteLeaves(f, func(leaf Formula) (Formula, error) {
		a, ok := leaf.(*Atom)
		if !ok || !a.T.Has(v) {
			return leaf, nil
		}
		c := a.T.Coeff(v)
		t := a.T.Clone().Subst(v, s0)
		switch a.Op {
		case OpLT, OpLE:
			if c.Sign() > 0 {
				return newAtom(OpLT, t), nil
			}
			return newAtom(OpLE, t), nil
		case OpEQ:
			return Bool(false), nil
		case OpNE:
			return Bool(true), nil
		default:
			panic("smt: bad atom op")
		}
	})
	if err != nil {
		panic("smt: internal: substRealEps rewrite failed: " + err.Error()) // callback never errors
	}
	return out
}
