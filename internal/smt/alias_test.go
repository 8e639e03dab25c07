package smt

import (
	"math/big"
	"testing"
)

// The Term constructors and accessors must never retain or hand out
// big.Rat values that alias caller- or term-owned storage: a caller
// mutating a rational it passed in (or got back) must not corrupt the
// term. These tests mutate on both sides of every boundary and check the
// term's rendering stays fixed.

func TestNewTermDoesNotAliasInput(t *testing.T) {
	c := big.NewRat(3, 2)
	tm := NewTerm(c)
	want := tm.String()
	c.SetInt64(999)
	if got := tm.String(); got != want {
		t.Fatalf("mutating NewTerm input changed the term: %q -> %q", want, got)
	}
}

func TestAddVarDoesNotAliasInput(t *testing.T) {
	x := IntVar("x")
	c := big.NewRat(5, 3)
	tm := NewTerm(new(big.Rat)).AddVar(x, c)
	want := tm.String()
	c.SetFrac64(-7, 11)
	if got := tm.String(); got != want {
		t.Fatalf("mutating AddVar input changed the term: %q -> %q", want, got)
	}
	// Adding to an existing coefficient must not capture the input either.
	c2 := big.NewRat(1, 3)
	tm.AddVar(x, c2)
	want = tm.String()
	c2.SetInt64(123)
	if got := tm.String(); got != want {
		t.Fatalf("mutating second AddVar input changed the term: %q -> %q", want, got)
	}
}

func TestScaleDoesNotAliasInput(t *testing.T) {
	x := IntVar("x")
	k := big.NewRat(2, 7)
	tm := VarTerm(x).Scale(k)
	want := tm.String()
	k.SetInt64(0)
	if got := tm.String(); got != want {
		t.Fatalf("mutating Scale input changed the term: %q -> %q", want, got)
	}
}

func TestCoeffAndConstReturnCopies(t *testing.T) {
	x := IntVar("x")
	tm := NewTerm(big.NewRat(1, 2)).AddVar(x, big.NewRat(4, 3))
	want := tm.String()
	tm.Coeff(x).SetInt64(77)
	tm.Const().SetInt64(-77)
	if got := tm.String(); got != want {
		t.Fatalf("mutating Coeff/Const results changed the term: %q -> %q", want, got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	orig := NewTerm(big.NewRat(1, 5)).AddVar(x, big.NewRat(1, 1)).AddVar(y, big.NewRat(3, 1))
	cl := orig.Clone()
	wantOrig, wantClone := orig.String(), cl.String()
	if wantOrig != wantClone {
		t.Fatalf("clone differs: %q vs %q", wantOrig, wantClone)
	}
	// Mutate the clone through every mutator; the original must not move.
	cl.AddVar(x, big.NewRat(10, 1)).Add(NewTerm(big.NewRat(1, 1))).Scale(big.NewRat(2, 1)).Neg()
	cl.AddInt64(3)
	if got := orig.String(); got != wantOrig {
		t.Fatalf("mutating a clone changed the original: %q -> %q", wantOrig, got)
	}
	// And a clone of a frozen (interned) term must be mutable while the
	// canonical term stays fixed.
	canon := InternTerm(orig)
	wantCanon := canon.String()
	cl2 := canon.Clone()
	cl2.AddInt64(42)
	if got := canon.String(); got != wantCanon {
		t.Fatalf("mutating a clone changed the interned term: %q -> %q", wantCanon, got)
	}
}

func TestFrozenTermMutationPanics(t *testing.T) {
	x := IntVar("x")
	canon := InternTerm(VarTerm(x))
	defer func() {
		if recover() == nil {
			t.Fatal("mutating an interned term did not panic")
		}
	}()
	canon.AddInt64(1)
}
