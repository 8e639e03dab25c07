package smt

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// bruteExistsInt decides ∃v f for a formula univariate in v (all other
// variables already substituted) by scanning an integer range wide enough
// to cover every interval boundary of the formula's atoms. The test
// formulas contain no divisibility atoms, so the solution set is a finite
// union of intervals with endpoints among the atom bounds; scanning
// [-span, span] with span beyond every bound is complete.
func bruteExistsInt(t *testing.T, f Formula, v Var, span int64) bool {
	t.Helper()
	for k := -span; k <= span; k++ {
		if evalFormula(t, f, Model{v: new(big.Rat).SetInt64(k)}) {
			return true
		}
	}
	return false
}

// bruteExistsReal decides ∃v f for a univariate real formula by testing
// all bound points, midpoints and outer points.
func bruteExistsReal(t *testing.T, f Formula, v Var) bool {
	t.Helper()
	var bounds []*big.Rat
	err := walkLeaves(NNF(f), func(leaf Formula) error {
		if a, ok := leaf.(*Atom); ok && a.T.Has(v) {
			c := a.T.Coeff(v)
			rest := new(big.Rat).Set(a.T.Const())
			bounds = append(bounds, rest.Neg(rest).Quo(rest, c))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cands := []*big.Rat{new(big.Rat)}
	for i, b := range bounds {
		cands = append(cands, b,
			new(big.Rat).Sub(b, big.NewRat(1, 1)),
			new(big.Rat).Add(b, big.NewRat(1, 1)))
		for _, o := range bounds[i+1:] {
			mid := new(big.Rat).Add(b, o)
			mid.Quo(mid, big.NewRat(2, 1))
			cands = append(cands, mid)
		}
	}
	for _, c := range cands {
		if evalFormula(t, f, Model{v: c}) {
			return true
		}
	}
	return false
}

func substAll(f Formula, m Model) Formula {
	for v, val := range m {
		f = Subst(f, v, NewTerm(val))
	}
	return f
}

func TestCooperDifferential(t *testing.T) {
	// Property: QE(∃x f), evaluated under random assignments to the
	// remaining variables, agrees with brute-force search over x.
	r := rand.New(rand.NewSource(777))
	x, y, z := IntVar("x"), IntVar("y"), IntVar("z")
	vars := []Var{x, y, z}
	s := New()
	for i := 0; i < 250; i++ {
		f := randQF(r, vars, 3, false)
		g, err := s.QECtx(context.Background(), &Exists{V: x, F: f})
		if err != nil {
			t.Fatalf("QE failed on %s: %v", f, err)
		}
		for j := 0; j < 12; j++ {
			m := randModel(r, []Var{y, z}, 12)
			got := Simplify(substAll(g, m))
			gb, ok := got.(Bool)
			if !ok {
				t.Fatalf("QE result not ground after substitution: %s", got)
			}
			want := bruteExistsInt(t, substAll(f, m), x, 600)
			if bool(gb) != want {
				t.Fatalf("Cooper mismatch on %s with %v: QE=%v brute=%v\nQE formula: %s", f, m, gb, want, g)
			}
		}
	}
}

func TestCooperForAllDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(778))
	x, y := IntVar("x"), IntVar("y")
	s := New()
	for i := 0; i < 120; i++ {
		f := randQF(r, []Var{x, y}, 2, false)
		g, err := s.QECtx(context.Background(), &ForAll{V: x, F: f})
		if err != nil {
			t.Fatalf("QE failed on %s: %v", f, err)
		}
		for j := 0; j < 10; j++ {
			m := randModel(r, []Var{y}, 12)
			got := Simplify(substAll(g, m))
			gb, ok := got.(Bool)
			if !ok {
				t.Fatalf("not ground: %s", got)
			}
			// ∀x f == ¬∃x ¬f.
			want := !bruteExistsInt(t, substAll(NNF(NewNot(f)), m), x, 600)
			if bool(gb) != want {
				t.Fatalf("ForAll mismatch on %s with %v: QE=%v brute=%v", f, m, gb, want)
			}
		}
	}
}

func TestRealDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(779))
	x, y, z := RealVar("x"), RealVar("y"), RealVar("z")
	vars := []Var{x, y, z}
	s := New()
	for i := 0; i < 250; i++ {
		f := randQF(r, vars, 3, true)
		g, err := s.QECtx(context.Background(), &Exists{V: x, F: f})
		if err != nil {
			t.Fatalf("QE failed on %s: %v", f, err)
		}
		for j := 0; j < 12; j++ {
			m := randModel(r, []Var{y, z}, 12)
			got := Simplify(substAll(g, m))
			gb, ok := got.(Bool)
			if !ok {
				t.Fatalf("not ground: %s", got)
			}
			want := bruteExistsReal(t, substAll(f, m), x)
			if bool(gb) != want {
				t.Fatalf("LW mismatch on %s with %v: QE=%v brute=%v\nQE: %s", f, m, gb, want, g)
			}
		}
	}
}

func TestSatisfiableBasics(t *testing.T) {
	s := New()
	x, y := IntVar("x"), IntVar("y")
	cases := []struct {
		f    Formula
		want bool
	}{
		{LT(VarTerm(x), ConstTerm(0)), true},
		{NewAnd(LT(VarTerm(x), ConstTerm(0)), GT(VarTerm(x), ConstTerm(0))), false},
		{NewAnd(LT(VarTerm(x), VarTerm(y)), LT(VarTerm(y), VarTerm(x))), false},
		// x < y < x+1 has no integer solution.
		{NewAnd(LT(VarTerm(x), VarTerm(y)), LT(VarTerm(y), VarTerm(x).Clone().AddInt64(1))), false},
		{EQ(VarTerm(x).Clone().Scale(big.NewRat(2, 1)), ConstTerm(7)), false}, // 2x=7 over Z
		{EQ(VarTerm(x).Clone().Scale(big.NewRat(2, 1)), ConstTerm(8)), true},
		{Bool(true), true},
		{Bool(false), false},
	}
	for _, c := range cases {
		got, err := s.SatisfiableCtx(context.Background(), c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if got != c.want {
			t.Errorf("Satisfiable(%s) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestSatisfiableRealDensity(t *testing.T) {
	s := New()
	x, y := RealVar("x"), RealVar("y")
	// x < y < x+1 has real solutions (unlike the integer case).
	f := NewAnd(LT(VarTerm(x), VarTerm(y)), LT(VarTerm(y), VarTerm(x).Clone().AddInt64(1)))
	got, err := s.SatisfiableCtx(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("dense order: x < y < x+1 must be satisfiable over reals")
	}
	// 2x = 7 over reals is satisfiable.
	g, err := s.SatisfiableCtx(context.Background(), EQ(VarTerm(x).Clone().Scale(big.NewRat(2, 1)), ConstTerm(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !g {
		t.Fatal("2x=7 over R must be satisfiable")
	}
}

func TestValid(t *testing.T) {
	s := New()
	x := IntVar("x")
	// x <= x is valid (its negation is unsatisfiable); x < 10 is not.
	sat, err := s.SatisfiableCtx(context.Background(), NewNot(LE(VarTerm(x), VarTerm(x).Clone())))
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Fatal("x <= x should be valid")
	}
	sat, err = s.SatisfiableCtx(context.Background(), NewNot(LT(VarTerm(x), ConstTerm(10))))
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Fatal("x < 10 should not be valid")
	}
}

func TestAlternatingQuantifiers(t *testing.T) {
	s := New()
	a, b := IntVar("a"), IntVar("b")
	// ∀b ∃a (a > b): true over integers.
	f := &ForAll{V: b, F: &Exists{V: a, F: GT(VarTerm(a), VarTerm(b))}}
	got, err := s.SatisfiableCtx(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("∀b ∃a (a > b) should hold")
	}
	// ∃a ∀b (a > b): false.
	g := &Exists{V: a, F: &ForAll{V: b, F: GT(VarTerm(a), VarTerm(b))}}
	got, err = s.SatisfiableCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("∃a ∀b (a > b) should not hold")
	}
}

func TestPaperUnsatisfactionTuples(t *testing.T) {
	// Fig. 2 of the paper: p = (a1 - a2 < b1) AND (b1 + 5 < 10).
	// A pair (a1, a2) is an unsatisfaction tuple iff no b1 makes p hold:
	// we need b1 with a1 - a2 < b1 < 5, i.e. it exists iff a1 - a2 < 4.
	s := New()
	a1, a2, b1 := IntVar("a1"), IntVar("a2"), IntVar("b1")
	p := NewAnd(
		LT(VarTerm(a1).Clone().AddScaled(VarTerm(a2), big.NewRat(-1, 1)), VarTerm(b1)),
		LT(VarTerm(b1).Clone().AddInt64(5), ConstTerm(10)),
	)
	unsat := func(v1, v2 int64) bool {
		f := &ForAll{V: b1, F: NewNot(p)}
		g := substAll(f, Model{a1: new(big.Rat).SetInt64(v1), a2: new(big.Rat).SetInt64(v2)})
		ok, err := s.SatisfiableCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	// The paper's FALSE samples: (17,4), (14,2) — unsatisfaction tuples.
	if !unsat(17, 4) || !unsat(14, 2) {
		t.Fatal("paper FALSE samples should be unsatisfaction tuples")
	}
	// The paper's TRUE samples: (5,4), (7,5) — satisfiable restrictions.
	if unsat(5, 4) || unsat(7, 5) {
		t.Fatal("paper TRUE samples should not be unsatisfaction tuples")
	}
}

func TestModelBasic(t *testing.T) {
	s := New()
	x, y := IntVar("x"), IntVar("y")
	f := NewAnd(GT(VarTerm(x), ConstTerm(3)), LT(VarTerm(x), ConstTerm(6)), EQ(VarTerm(y), VarTerm(x).Clone().AddInt64(10)))
	m, err := s.ModelCtx(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !evalFormula(t, f, m) {
		t.Fatalf("model %v does not satisfy %s", m, f)
	}
	if !m[x].IsInt() || !m[y].IsInt() {
		t.Fatalf("integer variables must get integer values: %v", m)
	}
}

func TestModelUnsat(t *testing.T) {
	s := New()
	x := IntVar("x")
	f := NewAnd(GT(VarTerm(x), ConstTerm(3)), LT(VarTerm(x), ConstTerm(4)))
	_, err := s.ModelCtx(context.Background(), f)
	if !errors.Is(err, ErrUnsat) {
		t.Fatalf("expected ErrUnsat, got %v", err)
	}
}

func TestModelDifferential(t *testing.T) {
	// Property: whenever Satisfiable says yes, Model returns an
	// assignment that actually satisfies the formula.
	r := rand.New(rand.NewSource(991))
	x, y, z := IntVar("x"), IntVar("y"), IntVar("z")
	vars := []Var{x, y, z}
	s := New()
	sats := 0
	for i := 0; i < 150; i++ {
		f := randQF(r, vars, 3, false)
		sat, err := s.SatisfiableCtx(context.Background(), f)
		if errors.Is(err, ErrBudget) {
			// Cooper's worst case is exponential; a budget refusal is the
			// honest analogue of a Z3 timeout and is acceptable on random
			// adversarial inputs.
			continue
		}
		if err != nil {
			t.Fatalf("sat: %v", err)
		}
		m, err := s.ModelCtx(context.Background(), f)
		if errors.Is(err, ErrBudget) {
			continue
		}
		if sat {
			sats++
			if err != nil {
				t.Fatalf("Model failed on satisfiable %s: %v", f, err)
			}
			if !evalFormula(t, f, m) {
				t.Fatalf("model %v does not satisfy %s", m, f)
			}
			for _, v := range vars {
				if val, ok := m[v]; ok && !val.IsInt() {
					t.Fatalf("non-integral value %s for %s", val, v)
				}
			}
		} else if !errors.Is(err, ErrUnsat) {
			t.Fatalf("Model on unsat %s: %v", f, err)
		}
	}
	if sats < 30 {
		t.Fatalf("test generator too weak: only %d satisfiable formulas", sats)
	}
}

func TestModelRealDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(992))
	x, y := RealVar("x"), RealVar("y")
	vars := []Var{x, y}
	s := New()
	for i := 0; i < 100; i++ {
		f := randQF(r, vars, 2, true)
		sat, err := s.SatisfiableCtx(context.Background(), f)
		if err != nil {
			t.Fatalf("sat: %v", err)
		}
		if !sat {
			continue
		}
		m, err := s.ModelCtx(context.Background(), f)
		if err != nil {
			t.Fatalf("Model failed on %s: %v", f, err)
		}
		if !evalFormula(t, f, m) {
			t.Fatalf("model %v does not satisfy %s", m, f)
		}
	}
}

func TestModelWithBlocking(t *testing.T) {
	// Enumerate distinct models the way GenerateSamples does: add a
	// blocking constraint per found model and re-solve.
	s := New()
	x := IntVar("x")
	f := Formula(NewAnd(GE(VarTerm(x), ConstTerm(0)), LE(VarTerm(x), ConstTerm(4))))
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		m, err := s.ModelCtx(context.Background(), f)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		key := m[x].RatString()
		if seen[key] {
			t.Fatalf("duplicate model %s", key)
		}
		seen[key] = true
		f = NewAnd(f, NE(VarTerm(x), NewTerm(m[x])))
	}
	// All five values are exhausted now.
	if _, err := s.ModelCtx(context.Background(), f); !errors.Is(err, ErrUnsat) {
		t.Fatalf("expected exhaustion, got %v", err)
	}
}

func TestBudgetExceeded(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	// A coefficient past maxModulus forces a divisibility period that
	// large.
	tm := VarTerm(x)
	tm.Scale(big.NewRat(maxModulus+3, 1))
	tm.AddVar(y, big.NewRat(1, 1))
	f := &Exists{V: x, F: EQ(tm, ConstTerm(5))}
	_, err := New().QECtx(context.Background(), f)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestMixedSortRejected(t *testing.T) {
	s := New()
	x, r := IntVar("x"), RealVar("r")
	f := &Exists{V: x, F: LT(VarTerm(x), VarTerm(r))}
	if _, err := s.QECtx(context.Background(), f); err == nil {
		t.Fatal("eliminating an integer from a mixed atom should error")
	}
	// The reverse — eliminating the real — is fine.
	g := &Exists{V: r, F: LT(VarTerm(x), VarTerm(r))}
	out, err := s.QECtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got := Simplify(out); got != Bool(true) {
		t.Fatalf("∃r (x < r) should be true, got %s", got)
	}
}

func TestQEStatsAccumulate(t *testing.T) {
	x := IntVar("x")
	before := Snapshot()
	if _, err := New().SatisfiableCtx(context.Background(), &Exists{V: x, F: GT(VarTerm(x), ConstTerm(0))}); err != nil {
		t.Fatal(err)
	}
	after := Snapshot()
	sat, elims := after.SatQueries-before.SatQueries, after.Eliminations-before.Eliminations
	if sat != 1 || elims == 0 {
		t.Fatalf("counters not tracked: %d sat queries, %d eliminations", sat, elims)
	}
}
