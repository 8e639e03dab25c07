package smt

import (
	"math/big"
	"testing"
)

// The eliminators build formulas, so they allocate; these tests pin how
// much at one fixed formula each. The bounds are the counts measured when
// they were written: a clone or a scratch value added inside a per-atom or
// per-substitution loop raises the count and fails the test. Lower a bound
// when a change makes an eliminator cheaper.
const (
	eliminateIntAllocs  = 1707
	eliminateRealAllocs = 301
)

// eliminateIntFormula is ∃x over 2x > a, 2x > c, 3x < b, 3x < d, x ≠ a + c:
// five atoms in pass 1 and m = lcm(2, 3) = 6, so δ = 6 and the substitution
// loop runs six times over three lower bounds (3a, 3c and, from the
// disequality, 6a + 6c).
func eliminateIntFormula() (Var, Formula) {
	x := IntVar("x")
	a, b, c, d := VarTerm(IntVar("a")), VarTerm(IntVar("b")), VarTerm(IntVar("c")), VarTerm(IntVar("d"))
	scaled := func(k int64) *Term { return VarTerm(x).Scale(big.NewRat(k, 1)) }
	return x, NewAnd(
		GT(scaled(2), a),
		GT(scaled(2), c),
		LT(scaled(3), b),
		LT(scaled(3), d),
		NE(VarTerm(x), a.Clone().Add(c)),
	)
}

// eliminateRealFormula is ∃x over x > a, x ≥ b, 2x < c, x = a + b + d,
// x ≠ d: an ε test point, exact ones, and the -∞ point.
func eliminateRealFormula() (Var, Formula) {
	x := RealVar("x")
	a, b, c, d := VarTerm(RealVar("a")), VarTerm(RealVar("b")), VarTerm(RealVar("c")), VarTerm(RealVar("d"))
	return x, NewAnd(
		GT(VarTerm(x), a),
		GE(VarTerm(x), b),
		LT(VarTerm(x).Scale(big.NewRat(2, 1)), c),
		EQ(VarTerm(x), a.Clone().Add(b).Add(d)),
		NE(VarTerm(x), d),
	)
}

func TestEliminateIntAllocs(t *testing.T) {
	v, f := eliminateIntFormula()
	s := New()
	got := testing.AllocsPerRun(20, func() {
		if _, err := s.eliminateInt(v, f); err != nil {
			t.Fatal(err)
		}
	})
	if got > eliminateIntAllocs {
		t.Errorf("eliminateInt: %v allocs/op, want ≤ %d", got, eliminateIntAllocs)
	}
}

func TestEliminateRealAllocs(t *testing.T) {
	v, f := eliminateRealFormula()
	s := New()
	got := testing.AllocsPerRun(20, func() {
		if _, err := s.eliminateReal(v, f); err != nil {
			t.Fatal(err)
		}
	})
	if got > eliminateRealAllocs {
		t.Errorf("eliminateReal: %v allocs/op, want ≤ %d", got, eliminateRealAllocs)
	}
}
