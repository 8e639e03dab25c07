package smt

import (
	"fmt"
	"math/big"
)

// Simplify rewrites a formula into an equivalent, usually smaller one:
// ground atoms fold to constants, atoms are put in a canonical scaled form,
// divisibility terms are reduced modulo their modulus, duplicate children of
// AND/OR collapse, and a child together with its complement collapses the
// whole connective. Simplify is applied after every quantifier-elimination
// step to keep intermediate formulas tractable.
//
// Simplified atoms and divisibility constraints are interned: structurally
// equal leaves come back as one shared, frozen node whose canonical string
// is cached, which is what makes the dedup keys below cheap.
func Simplify(f Formula) Formula {
	switch x := f.(type) {
	case Bool:
		return x
	case *Atom:
		if x.frozen {
			// Published by a canonicalizer: already a Simplify fixed point.
			return x
		}
		return canonAtom(x.Op, x.T.Clone())
	case *Div:
		if x.frozen {
			// Published by a canonicalizer: already a Simplify fixed point.
			return x
		}
		return canonDiv(x)
	case *And:
		return simplifyJunction(x.Fs, true)
	case *Or:
		return simplifyJunction(x.Fs, false)
	case *Not:
		inner := Simplify(x.F)
		if a, ok := inner.(*Atom); ok {
			n := negAtom(a)
			if na, ok := n.(*Atom); ok {
				return canonAtom(na.Op, na.T.Clone())
			}
			return n
		}
		if d, ok := inner.(*Div); ok {
			return internLeaf(&Div{Neg: !d.Neg, M: d.M, T: d.T})
		}
		return NewNot(inner)
	case *Exists:
		inner := Simplify(x.F)
		if b, ok := inner.(Bool); ok {
			return b
		}
		if !occurs(x.V, inner) {
			return inner
		}
		return &Exists{V: x.V, F: inner}
	case *ForAll:
		inner := Simplify(x.F)
		if b, ok := inner.(Bool); ok {
			return b
		}
		if !occurs(x.V, inner) {
			return inner
		}
		return &ForAll{V: x.V, F: inner}
	default:
		panic(fmt.Sprintf("smt: unknown formula %T", f))
	}
}

// occurs reports whether v occurs free in f.
func occurs(v Var, f Formula) bool {
	switch x := f.(type) {
	case Bool:
		return false
	case *Atom:
		return x.T.Has(v)
	case *Div:
		return x.T.Has(v)
	case *And:
		for _, g := range x.Fs {
			if occurs(v, g) {
				return true
			}
		}
		return false
	case *Or:
		for _, g := range x.Fs {
			if occurs(v, g) {
				return true
			}
		}
		return false
	case *Not:
		return occurs(v, x.F)
	case *Exists:
		return x.V != v && occurs(v, x.F)
	case *ForAll:
		return x.V != v && occurs(v, x.F)
	default:
		panic(fmt.Sprintf("smt: unknown formula %T", f))
	}
}

// canonAtom scales the term to a canonical representative: denominators are
// cleared, the coefficient content is divided out, and for sign-symmetric
// relations (=, !=) the first variable's coefficient is made positive. All
// scalings are by positive rationals, so the relation is preserved. If the
// term has integer variables only and integer coefficients, a strict
// inequality t < 0 is tightened to t + 1 <= 0. The result is interned.
func canonAtom(op AtomOp, t *Term) Formula {
	return internLeaf(canonAtomRaw(op, t))
}

// canonAtomRaw is canonAtom without the interning step; negAtomKey uses it
// to render a complement's canonical form without publishing a node (doing
// so from inside the interner would re-enter it).
func canonAtomRaw(op AtomOp, t *Term) Formula {
	if t.IsConst() {
		return Bool(evalAtomSign(op, t.konst.sign()))
	}
	clearDenominators(t)
	divideContent(t)
	// For =, != flip sign so the lexicographically first variable has a
	// positive coefficient, giving syntactically equal canonical forms.
	if op == OpEQ || op == OpNE {
		vars := t.Vars(nil)
		if len(vars) > 0 && t.at(vars[0]).sign() < 0 {
			t.Neg()
		}
	}
	// Integer tightening: over all-integer terms, strict bounds become
	// non-strict, bounds round down through the variable-coefficient GCD,
	// and fractional equalities fold to constants.
	if t.AllIntVars() && intCoeffs(t) {
		switch op {
		case OpLT:
			// t < 0 with integer t  ==  t <= -1  ==  t+1 <= 0.
			op = OpLE
			t.AddInt64(1)
			t = tightenIntLE(t)
		case OpLE:
			t = tightenIntLE(t)
		case OpEQ, OpNE:
			divideVarGCD(t)
			if !t.konst.isInt() {
				// Integer combination can never equal a fraction.
				return Bool(op == OpNE)
			}
		}
	}
	return newAtom(op, t)
}

// clearDenominators scales t by the LCM of its denominators so every
// coefficient and the constant become integers. No-op for the common
// all-integer case.
func clearDenominators(t *Term) {
	if allIntRat(t) {
		return
	}
	if l, ok := t.denomLCM64(); ok {
		var k coef
		k.setInt64(l)
		t.scaleCoef(&k)
		return
	}
	t.Scale(new(big.Rat).SetInt(t.DenomLCM()))
}

// divideContent divides t by the GCD of the numerators of all coefficients
// and the constant (denominators already cleared).
func divideContent(t *Term) {
	if g, ok := contentGCD64(t); ok {
		if g > 1 {
			var k coef
			k.setFrac64(1, g)
			t.scaleCoef(&k)
		}
		return
	}
	content := contentGCDBig(t)
	if content.Cmp(bigOne) != 0 {
		t.Scale(new(big.Rat).SetFrac(bigOne, content))
	}
}

// contentGCD64 is divideContent's fast path: the GCD of all numerators when
// every one fits int64. GCD is commutative, so map iteration order cannot
// reach the result.
func contentGCD64(t *Term) (int64, bool) {
	var g int64
	for i := range t.cells {
		n, ok := t.cells[i].c.num64()
		if !ok {
			return 0, false
		}
		g = gcd64(g, n)
	}
	n, ok := t.konst.num64()
	if !ok {
		return 0, false
	}
	if g = gcd64(g, n); g == 0 {
		g = 1
	}
	return g, true
}

// contentGCDBig is the arbitrary-precision fallback of divideContent.
func contentGCDBig(t *Term) *big.Int {
	g := new(big.Int)
	acc := func(n *big.Int) {
		// numBig hands over a fresh big.Int; Abs mutates that
		// caller-owned scratch value only.
		n.Abs(n)
		if n.Sign() != 0 {
			if g.Sign() == 0 {
				g.Set(n)
			} else {
				g.GCD(nil, nil, g, n)
			}
		}
	}
	for i := range t.cells {
		acc(t.cells[i].c.numBig())
	}
	acc(t.konst.numBig())
	if g.Sign() == 0 {
		g.SetInt64(1)
	}
	return g
}

// divideVarGCD divides t by the GCD of its (integer) variable coefficients.
func divideVarGCD(t *Term) {
	if g, ok := varCoeffGCD64(t); ok {
		if g > 1 {
			var k coef
			k.setFrac64(1, g)
			t.scaleCoef(&k)
		}
		return
	}
	g := varCoeffGCDBig(t)
	if g.Cmp(bigOne) > 0 {
		t.Scale(new(big.Rat).SetFrac(bigOne, g))
	}
}

// varCoeffGCD64 is divideVarGCD's fast path over int64 numerators.
func varCoeffGCD64(t *Term) (int64, bool) {
	var g int64
	for i := range t.cells {
		n, ok := t.cells[i].c.num64()
		if !ok {
			return 0, false
		}
		g = gcd64(g, n)
	}
	if g == 0 {
		g = 1
	}
	return g, true
}

// varCoeffGCDBig is the arbitrary-precision fallback of divideVarGCD.
func varCoeffGCDBig(t *Term) *big.Int {
	g := new(big.Int)
	for i := range t.cells {
		n := t.cells[i].c.numBig()
		n.Abs(n)
		if g.Sign() == 0 {
			g.Set(n)
		} else {
			g.GCD(nil, nil, g, n)
		}
	}
	if g.Sign() == 0 {
		g.SetInt64(1)
	}
	return g
}

// tightenIntLE rewrites g·s + c <= 0 (integer-valued s, integer coefficient
// GCD g) as s - floor(-c/g) <= 0, the tightest integer bound.
func tightenIntLE(t *Term) *Term {
	divideVarGCD(t)
	return roundIntAtomLE(t)
}

// intCoeffs reports whether every variable coefficient is an integer (the
// constant may still be fractional).
func intCoeffs(t *Term) bool {
	for i := range t.cells {
		if !t.cells[i].c.isInt() {
			return false
		}
	}
	return true
}

// floorDiv64 returns floor(a/b) for b > 0.
func floorDiv64(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// roundIntAtomLE tightens t <= 0 where all variable parts are integral:
// sum + c <= 0  ==  sum <= floor(-c)  ==  sum - floor(-c) <= 0.
func roundIntAtomLE(t *Term) *Term {
	if t.konst.isInt() {
		return t
	}
	if n, okN := t.konst.num64(); okN {
		if d, okD := t.konst.den64(); okD {
			t.konst.setInt64(-floorDiv64(-n, d))
			return t
		}
	}
	negC := new(big.Rat).Neg(t.konst.rat())
	fl := new(big.Int).Quo(negC.Num(), negC.Denom())
	// big.Int Quo truncates toward zero; adjust to floor for negatives.
	if negC.Sign() < 0 {
		r := new(big.Int).Rem(negC.Num(), negC.Denom())
		if r.Sign() != 0 {
			fl.Sub(fl, bigOne)
		}
	}
	t.konst.setBigInt(fl.Neg(fl))
	return t
}

// canonDiv canonicalizes a divisibility atom: the term's coefficients and
// constant are reduced modulo M, and ground instances fold to Bool. The
// result is interned.
func canonDiv(d *Div) Formula {
	if d.M.Cmp(bigOne) == 0 {
		return Bool(!d.Neg)
	}
	t := d.T.Clone()
	if !allIntRat(t) {
		// Non-integer coefficients: leave untouched (only produced by
		// pathological inputs; correctness is preserved).
		return internLeaf(&Div{Neg: d.Neg, M: d.M, T: t})
	}
	m, mFast := d.M.Int64(), d.M.IsInt64() && fastOK(d.M.Int64())
	// modCoef reduces c modulo M in place; reports whether it became zero.
	modCoef := func(c *coef) bool {
		if n, ok := c.num64(); ok && mFast {
			r := n % m
			if r < 0 {
				r += m
			}
			if r == 0 {
				return true
			}
			// c is a coefficient of the locally cloned term t, so
			// reducing it in place is safe (here and below)
			c.setInt64(r)
			return false
		}
		mod := new(big.Int).Mod(c.numBig(), d.M)
		if mod.Sign() == 0 {
			return true
		}
		c.setBigInt(mod)
		return false
	}
	kept := t.cells[:0]
	for i := range t.cells {
		if !modCoef(&t.cells[i].c) {
			kept = append(kept, t.cells[i])
		}
	}
	t.cells = kept
	if modCoef(&t.konst) {
		t.konst.setInt64(0)
	}
	return internLeaf(simplifyDiv(&Div{Neg: d.Neg, M: d.M, T: t}))
}

// allIntRat reports whether the constant and every coefficient are integers.
func allIntRat(t *Term) bool {
	if !t.konst.isInt() {
		return false
	}
	for i := range t.cells {
		if !t.cells[i].c.isInt() {
			return false
		}
	}
	return true
}

// simplifyJunction simplifies the children of an AND (isAnd) or OR,
// deduplicates them syntactically, and detects complementary atom pairs.
// Children coming out of Simplify are interned leaves or rebuilt
// connectives, so the String() dedup keys are cached for the leaves that
// dominate junction width.
func simplifyJunction(fs []Formula, isAnd bool) Formula {
	var out []Formula
	seen := map[string]bool{}
	var visit func(g Formula) bool // returns false to abort (absorbing elt)
	visit = func(g Formula) bool {
		g = Simplify(g)
		switch x := g.(type) {
		case Bool:
			if bool(x) == isAnd {
				return true // identity element, drop
			}
			return false // absorbing element
		case *And:
			if isAnd {
				for _, c := range x.Fs {
					if !visit(c) {
						return false
					}
				}
				return true
			}
		case *Or:
			if !isAnd {
				for _, c := range x.Fs {
					if !visit(c) {
						return false
					}
				}
				return true
			}
		default:
			// Every other node is kept as an opaque child below.
		}
		key := g.String()
		if seen[key] {
			return true
		}
		// Complement detection for atoms: an AND containing both an atom
		// and its negation is false; dually for OR.
		if a, ok := g.(*Atom); ok {
			if seen[negAtomKey(a)] {
				return false
			}
		}
		if d, ok := g.(*Div); ok {
			if seen[(&Div{Neg: !d.Neg, M: d.M, T: d.T}).String()] {
				return false
			}
		}
		seen[key] = true
		out = append(out, g)
		return true
	}
	for _, g := range fs {
		if !visit(g) {
			return Bool(!isAnd)
		}
	}
	if isAnd {
		return NewAnd(out...)
	}
	return NewOr(out...)
}

// negAtomKey returns the canonical string of the atom's complement, so that
// complement detection works against already-canonicalized siblings.
// Interned atoms carry the complement key cached.
func negAtomKey(a *Atom) string {
	if a.frozen {
		return a.negKey
	}
	return computeNegAtomKey(a)
}

// computeNegAtomKey canonicalizes and renders the atom's complement. It
// must not publish interned nodes: internAtom calls it while interning the
// complement's complement, so going through the interning canonAtom here
// would recurse without end.
func computeNegAtomKey(a *Atom) string {
	n := negAtom(a)
	if na, ok := n.(*Atom); ok {
		n = canonAtomRaw(na.Op, na.T.Clone())
	}
	return n.String()
}

var bigOne = big.NewInt(1)
