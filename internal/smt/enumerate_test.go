package smt

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

func TestEnumerateModelsFiniteRegion(t *testing.T) {
	// 0 <= x <= 5, 0 <= y <= 3, x < y has exactly (0,1..3),(1,2..3),(2,3):
	// 6 integer points; enumeration must find them all, each satisfying.
	x, y := IntVar("x"), IntVar("y")
	f := NewAnd(
		GE(VarTerm(x), ConstTerm(0)), LE(VarTerm(x), ConstTerm(5)),
		GE(VarTerm(y), ConstTerm(0)), LE(VarTerm(y), ConstTerm(3)),
		LT(VarTerm(x), VarTerm(y)),
	)
	s := New()
	got := map[string]bool{}
	err := s.EnumerateModelsCtx(context.Background(), f, []Var{x, y}, 100, func(m Model) bool {
		if !evalFormula(t, f, m) {
			t.Fatalf("emitted non-model %v", m)
		}
		key := m[x].RatString() + "," + m[y].RatString()
		if got[key] {
			t.Fatalf("duplicate model %s", key)
		}
		got[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("found %d models, want 6: %v", len(got), got)
	}
}

func TestEnumerateModelsLimit(t *testing.T) {
	x := IntVar("x")
	f := GE(VarTerm(x), ConstTerm(0)) // infinite region
	s := New()
	count := 0
	if err := s.EnumerateModelsCtx(context.Background(), f, []Var{x}, 7, func(Model) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Fatalf("limit not respected: %d", count)
	}
	// emit returning false stops early.
	count = 0
	if err := s.EnumerateModelsCtx(context.Background(), f, []Var{x}, 100, func(Model) bool { count++; return count < 3 }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("early stop failed: %d", count)
	}
}

func TestEnumerateModelsUnsat(t *testing.T) {
	x := IntVar("x")
	f := NewAnd(GT(VarTerm(x), ConstTerm(0)), LT(VarTerm(x), ConstTerm(0)))
	s := New()
	count := 0
	if err := s.EnumerateModelsCtx(context.Background(), f, []Var{x}, 10, func(Model) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("unsat formula yielded %d models", count)
	}
}

func TestEnumerateModelsBoundaryFirst(t *testing.T) {
	// The candidate order is center-out around zero and the bounds, so an
	// interval far from zero must surface its boundary points among the
	// first few models.
	x := IntVar("x")
	f := NewAnd(GE(VarTerm(x), ConstTerm(500)), LE(VarTerm(x), ConstTerm(600)))
	s := New()
	var first []string
	if err := s.EnumerateModelsCtx(context.Background(), f, []Var{x}, 4, func(m Model) bool {
		first = append(first, m[x].RatString())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, v := range first {
		seen[v] = true
	}
	if !seen["500"] || !seen["600"] {
		t.Fatalf("boundary points not among the first models: %v", first)
	}
}

func TestEnumerateModelsMatchesBruteForce(t *testing.T) {
	// Property: for random formulas with a bounded box conjoined, the
	// enumerated model set equals the brute-force solution set.
	r := rand.New(rand.NewSource(4242))
	x, y := IntVar("x"), IntVar("y")
	vars := []Var{x, y}
	for trial := 0; trial < 60; trial++ {
		inner := randQF(r, vars, 2, false)
		box := NewAnd(
			GE(VarTerm(x), ConstTerm(-4)), LE(VarTerm(x), ConstTerm(4)),
			GE(VarTerm(y), ConstTerm(-4)), LE(VarTerm(y), ConstTerm(4)),
		)
		f := NewAnd(box, inner)
		want := map[string]bool{}
		for xv := int64(-4); xv <= 4; xv++ {
			for yv := int64(-4); yv <= 4; yv++ {
				m := Model{x: ratInt(xv), y: ratInt(yv)}
				if evalFormula(t, f, m) {
					want[fmt.Sprintf("%d,%d", xv, yv)] = true
				}
			}
		}
		s := New()
		got := map[string]bool{}
		err := s.EnumerateModelsCtx(context.Background(), f, vars, 200, func(m Model) bool {
			got[m[x].RatString()+","+m[y].RatString()] = true
			return true
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s): got %d models, want %d\ngot: %v\nwant: %v", trial, inner, len(got), len(want), got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing model %s", trial, k)
			}
		}
	}
}

func ratInt(v int64) *big.Rat { return new(big.Rat).SetInt64(v) }
