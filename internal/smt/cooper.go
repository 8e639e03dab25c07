package smt

import (
	"fmt"
	"math/big"
)

// eliminateInt eliminates an existentially quantified integer variable from
// a quantifier-free formula in negation normal form using Cooper's
// algorithm. The formula may contain atoms over other (integer) variables;
// atoms that do not mention v pass through untouched.
//
// The algorithm:
//
//  1. Every atom mentioning v is scaled to integer coefficients, and
//     inequalities are normalized to strict form (valid because all
//     variables in such atoms are integers).
//  2. With m the LCM of |coeff(v)| across those atoms, each is re-scaled so
//     the coefficient becomes ±m, and m·v is replaced by a fresh variable y
//     constrained by m | y.
//  3. Equalities and disequalities on y are expanded into strict bounds, so
//     y appears only in atoms y < t, t < y, and d | y + t.
//  4. With δ the LCM of the divisibility moduli and B the set of lower
//     bound terms, ∃y F(y) is equivalent to
//     ⋁_{j=1..δ} F_{-∞}(j) ∨ ⋁_{j=1..δ} ⋁_{b∈B} F(b+j).
//     The dual (upper bound) form is used when it has fewer substitution
//     terms.
func (s *Solver) eliminateInt(v Var, f Formula) (Formula, error) {
	// Pass 1: validate and compute m, the LCM of |coeff(v)|.
	m := big.NewInt(1)
	var scratch big.Int
	err := walkLeaves(f, func(leaf Formula) error {
		switch x := leaf.(type) {
		case *Atom:
			if !x.T.Has(v) {
				return nil
			}
			if !x.T.AllIntVars() {
				return fmt.Errorf("smt: cannot eliminate integer %s from mixed-sort atom %s", v, x)
			}
			// Scaling the atom by its denominator LCM L makes every
			// coefficient integral; v's becomes num(c)·L/den(c). Computing
			// that number directly avoids cloning the whole term per atom.
			if a, ok := x.T.scaledCoeffAbs64(v); ok {
				lcmInto(m, scratch.SetInt64(a))
				return nil
			}
			c := x.T.at(v)
			a := c.numBig()
			a.Mul(a, x.T.DenomLCM())
			a.Quo(a, c.denomBig()).Abs(a)
			lcmInto(m, a)
		case *Div:
			if !x.T.Has(v) {
				return nil
			}
			c := x.T.at(v)
			if !c.isInt() {
				return fmt.Errorf("smt: non-integer coefficient in divisibility atom %s", x)
			}
			if n, ok := c.num64(); ok {
				if n < 0 {
					n = -n
				}
				lcmInto(m, scratch.SetInt64(n))
				return nil
			}
			a := c.numBig()
			lcmInto(m, a.Abs(a))
		default:
			// walkLeaves yields only Atom and Div leaves.
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: rewrite so v's coefficient is ±1 on the fresh variable y.
	y := s.freshVar()
	rewritten, err := rewriteLeaves(f, func(leaf Formula) (Formula, error) {
		switch x := leaf.(type) {
		case *Atom:
			if !x.T.Has(v) {
				return leaf, nil
			}
			t := x.T.Clone()
			clearDenominators(t)
			op := x.Op
			if op == OpLE {
				// Integer atoms: t <= 0  ==  t - 1 < 0.
				op = OpLT
				t.AddInt64(-1)
			}
			// Scale so coeff(v) becomes ±m, then swap m·v for y.
			if n, ok := t.at(v).num64(); ok && m.IsInt64() {
				if n < 0 {
					n = -n
				}
				var k coef
				k.setInt64(m.Int64() / n)
				t.scaleCoef(&k)
			} else {
				a := t.at(v).numBig()
				t.Scale(new(big.Rat).SetFrac(new(big.Int).Quo(m, a.Abs(a)), bigOne))
			}
			sign := t.at(v).sign()
			t.setCoefInt64(y, int64(sign))
			t.remove(v)
			return expandIntAtom(op, t, y), nil
		case *Div:
			if !x.T.Has(v) {
				return leaf, nil
			}
			t := x.T.Clone()
			a := t.at(v).numBig()
			k := new(big.Int).Quo(m, a.Abs(a))
			var kc coef
			kc.setBigInt(k)
			t.scaleCoef(&kc)
			mod := new(big.Int).Mul(x.M, k)
			sign := t.at(v).sign()
			t.setCoefInt64(y, int64(sign))
			t.remove(v)
			if sign < 0 {
				t.Neg() // d | t  ==  d | -t
			}
			return &Div{Neg: x.Neg, M: mod, T: t}, nil
		default:
			return leaf, nil
		}
	})
	if err != nil {
		return nil, err
	}
	work := rewritten
	if m.Cmp(bigOne) != 0 {
		work = NewAnd(work, &Div{M: new(big.Int).Set(m), T: VarTerm(y)})
	}

	// Collect δ, lower bound terms and upper bound terms.
	delta := big.NewInt(1)
	var lowers, uppers []*Term
	lowerSeen, upperSeen := map[string]bool{}, map[string]bool{}
	err = walkLeaves(work, func(leaf Formula) error {
		switch x := leaf.(type) {
		case *Atom:
			if !x.T.Has(y) {
				return nil
			}
			if x.Op != OpLT {
				return fmt.Errorf("smt: internal: unexpected %s atom on %s", x.Op, y)
			}
			rest := x.T.Clone()
			rest.remove(y)
			if x.T.at(y).sign() > 0 {
				// y + r < 0, i.e. y < -r: upper bound -r.
				rest.Neg()
				if key := rest.String(); !upperSeen[key] {
					upperSeen[key] = true
					uppers = append(uppers, rest)
				}
			} else {
				// -y + r < 0, i.e. r < y: lower bound r.
				if key := rest.String(); !lowerSeen[key] {
					lowerSeen[key] = true
					lowers = append(lowers, rest)
				}
			}
		case *Div:
			if x.T.Has(y) {
				lcmInto(delta, x.M)
			}
		default:
			// walkLeaves yields only Atom and Div leaves.
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if !delta.IsInt64() || delta.Int64() > maxModulus {
		return nil, fmt.Errorf("%w: divisibility period %s too large eliminating %s", ErrBudget, delta, v)
	}
	dn := delta.Int64()
	useLower := len(lowers) <= len(uppers)
	bounds := lowers
	if !useLower {
		bounds = uppers
	}
	if (int64(len(bounds))+1)*dn > maxDisjuncts {
		return nil, fmt.Errorf("%w: %d×%d substitutions eliminating %s", ErrBudget, len(bounds)+1, dn, v)
	}

	// Each bound is cloned once and shifted incrementally: entering
	// iteration j the shifted term equals b ± j — the previous iteration's
	// value ± 1 — so the per-(j, bound) deep clone of the old loop becomes a
	// single constant update. Subst only reads the replacement term, never
	// retains it, so reuse across iterations is safe.
	shifted := make([]*Term, len(bounds))
	for i, b := range bounds {
		shifted[i] = b.Clone()
	}
	step := int64(1)
	if !useLower {
		step = -1
	}
	var disjuncts []Formula
	total := 0
	for j := int64(1); j <= dn; j++ {
		if err := s.checkStop(); err != nil {
			return nil, err
		}
		inf := Simplify(substInfinity(work, y, j, useLower))
		if b, ok := inf.(Bool); ok && bool(b) {
			return Bool(true), nil
		}
		disjuncts = append(disjuncts, inf)
		total += CountNodes(inf)
		for _, repl := range shifted {
			repl.AddInt64(step)
			d := Simplify(Subst(work, y, repl))
			if bb, ok := d.(Bool); ok && bool(bb) {
				return Bool(true), nil
			}
			disjuncts = append(disjuncts, d)
			total += CountNodes(d)
			if total > maxNodes {
				return nil, fmt.Errorf("%w: formula grew past %d nodes eliminating %s", ErrBudget, maxNodes, v)
			}
		}
	}
	return Simplify(NewOr(disjuncts...)), nil
}

// expandIntAtom turns an atom whose y-coefficient is ±1 into strict bounds
// on y.
func expandIntAtom(op AtomOp, t *Term, y Var) Formula {
	switch op {
	case OpLT:
		return &Atom{Op: OpLT, T: t}
	case OpEQ, OpNE:
		// Normalize the coefficient of y to +1 (t = 0 iff -t = 0).
		if t.at(y).sign() < 0 {
			t = t.Clone().Neg()
		}
		if op == OpEQ {
			// y + r = 0  ==  y + r - 1 < 0  AND  -(y + r) - 1 < 0.
			l := t.Clone().AddInt64(-1)
			r := t.Clone().Neg().AddInt64(-1)
			return NewAnd(&Atom{Op: OpLT, T: l}, &Atom{Op: OpLT, T: r})
		}
		// y + r != 0  ==  y + r < 0  OR  -(y + r) < 0.
		return NewOr(&Atom{Op: OpLT, T: t.Clone()}, &Atom{Op: OpLT, T: t.Clone().Neg()})
	default:
		panic(fmt.Sprintf("smt: internal: unexpected op %v after normalization", op))
	}
}

// substInfinity computes F with y sent to -∞ (useLower) or +∞: bound atoms
// collapse to constants and divisibility atoms get y := ±j (any value with
// the right residue, since they are periodic).
func substInfinity(f Formula, y Var, j int64, useLower bool) Formula {
	repl := ConstTerm(j)
	if !useLower {
		repl = ConstTerm(-j)
	}
	out, err := rewriteLeaves(f, func(leaf Formula) (Formula, error) {
		switch x := leaf.(type) {
		case *Atom:
			if !x.T.Has(y) {
				return leaf, nil
			}
			if x.T.at(y).sign() > 0 {
				// Upper bound y < t: true at -∞, false at +∞.
				return Bool(useLower), nil
			}
			return Bool(!useLower), nil
		case *Div:
			if !x.T.Has(y) {
				return leaf, nil
			}
			return simplifyDiv(&Div{Neg: x.Neg, M: x.M, T: x.T.Clone().Subst(y, repl)}), nil
		default:
			return leaf, nil
		}
	})
	if err != nil {
		panic("smt: internal: substInfinity rewrite failed: " + err.Error()) // callback never errors
	}
	return out
}

// walkLeaves visits every Atom/Div leaf of a quantifier-free NNF formula.
func walkLeaves(f Formula, visit func(Formula) error) error {
	switch x := f.(type) {
	case Bool:
		return nil
	case *Atom, *Div:
		return visit(f)
	case *And:
		for _, g := range x.Fs {
			if err := walkLeaves(g, visit); err != nil {
				return err
			}
		}
		return nil
	case *Or:
		for _, g := range x.Fs {
			if err := walkLeaves(g, visit); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("smt: internal: unexpected %T in quantifier-free NNF", f)
	}
}

// rewriteLeaves rebuilds a quantifier-free NNF formula with every Atom/Div
// leaf replaced by the callback's result.
func rewriteLeaves(f Formula, repl func(Formula) (Formula, error)) (Formula, error) {
	switch x := f.(type) {
	case Bool:
		return x, nil
	case *Atom, *Div:
		return repl(f)
	case *And:
		fs := make([]Formula, 0, len(x.Fs))
		for _, g := range x.Fs {
			r, err := rewriteLeaves(g, repl)
			if err != nil {
				return nil, err
			}
			fs = append(fs, r)
		}
		return NewAnd(fs...), nil
	case *Or:
		fs := make([]Formula, 0, len(x.Fs))
		for _, g := range x.Fs {
			r, err := rewriteLeaves(g, repl)
			if err != nil {
				return nil, err
			}
			fs = append(fs, r)
		}
		return NewOr(fs...), nil
	default:
		return nil, fmt.Errorf("smt: internal: unexpected %T in quantifier-free NNF", f)
	}
}
