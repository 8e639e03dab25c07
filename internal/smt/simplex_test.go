package smt

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
)

func TestSimplexBasics(t *testing.T) {
	x, y := RealVar("x"), RealVar("y")
	feasible := NewAnd(
		LE(VarTerm(x), ConstTerm(10)),
		GE(VarTerm(x), ConstTerm(0)),
		LE(VarTerm(y), VarTerm(x)),
	)
	if got := simplexCheck(Simplify(NNF(feasible))); got != simplexFeasible {
		t.Fatalf("feasible system judged %v", got)
	}
	infeasible := NewAnd(
		LE(VarTerm(x), ConstTerm(0)),
		GE(VarTerm(x), ConstTerm(1)),
	)
	if got := simplexCheck(Simplify(NNF(infeasible))); got != simplexInfeasible {
		t.Fatalf("infeasible system judged %v", got)
	}
	// x = y, x + y = 1, x - y = 1 is infeasible (forces y = 0 and x = 1 ≠ y).
	eqs := NewAnd(
		EQ(VarTerm(x), VarTerm(y)),
		EQ(VarTerm(x).Clone().AddVar(y, big.NewRat(1, 1)), ConstTerm(1)),
		EQ(VarTerm(x).Clone().AddVar(y, big.NewRat(-1, 1)), ConstTerm(1)),
	)
	if got := simplexCheck(Simplify(NNF(eqs))); got != simplexInfeasible {
		t.Fatalf("inconsistent equalities judged %v", got)
	}
}

func TestSimplexInapplicableShapes(t *testing.T) {
	x := IntVar("x")
	or := NewOr(LE(VarTerm(x), ConstTerm(0)), GE(VarTerm(x), ConstTerm(5)))
	if got := simplexCheck(or); got != simplexInapplicable {
		t.Fatalf("disjunction judged %v", got)
	}
	q := &Exists{V: x, F: LE(VarTerm(x), ConstTerm(0))}
	if got := simplexCheck(q); got != simplexInapplicable {
		t.Fatalf("quantified formula judged %v", got)
	}
	// An OR nested under an AND is also out of scope.
	mixed := NewAnd(LE(VarTerm(x), ConstTerm(3)), or)
	if got := simplexCheck(mixed); got != simplexInapplicable {
		t.Fatalf("mixed shape judged %v", got)
	}
}

func TestSimplexRelaxationIsSound(t *testing.T) {
	// Integer-only infeasibility must NOT be reported: 2x = 7 is
	// ℚ-feasible, and ≠/divisibility content is dropped.
	x := IntVar("x")
	frac := EQ(VarTerm(x).Clone().Scale(big.NewRat(2, 1)), ConstTerm(7))
	if got := simplexCheck(frac); got == simplexInfeasible {
		t.Fatal("2x=7 is rational-feasible; simplex must not claim UNSAT")
	}
	// For a REAL variable the strict gap 0 < r < 1 is genuinely feasible
	// and the ≤-relaxation must agree. (For an integer variable the
	// canonicalizer tightens the bounds to x ≤ 0 ∧ x ≥ 1 first, so the
	// simplex correctly proves UNSAT there — integer tightening composes
	// with the rational relaxation.)
	rv := RealVar("r")
	gap := NewAnd(LT(VarTerm(rv), ConstTerm(1)), GT(VarTerm(rv), ConstTerm(0)))
	if got := simplexCheck(Simplify(NNF(gap))); got == simplexInfeasible {
		t.Fatal("0 < r < 1 is rational-feasible; the strict relaxation must not claim UNSAT")
	}
	intGap := NewAnd(LT(VarTerm(x), ConstTerm(1)), GT(VarTerm(x), ConstTerm(0)))
	if got := simplexCheck(Simplify(NNF(intGap))); got != simplexInfeasible {
		t.Fatalf("integer gap 0 < x < 1 should be settled by tightening + simplex, got %v", got)
	}
}

func TestSimplexDifferentialAgainstSolver(t *testing.T) {
	// Property: on random conjunctions over REAL variables with ≤/≥/=
	// atoms only, the simplex verdict must equal full satisfiability
	// (over the reals the relaxation is exact for these shapes).
	r := rand.New(rand.NewSource(2024))
	vars := []Var{RealVar("x"), RealVar("y"), RealVar("z")}
	for trial := 0; trial < 150; trial++ {
		var fs []Formula
		n := 2 + r.Intn(5)
		for i := 0; i < n; i++ {
			tm := randTerm(r, vars, true)
			if tm.IsConst() {
				tm.AddVar(vars[r.Intn(len(vars))], big.NewRat(1, 1))
			}
			switch r.Intn(3) {
			case 0:
				fs = append(fs, &Atom{Op: OpLE, T: tm})
			case 1:
				fs = append(fs, &Atom{Op: OpLE, T: tm.Clone().Neg()})
			default:
				fs = append(fs, &Atom{Op: OpEQ, T: tm})
			}
		}
		f := NewAnd(fs...)
		verdict := simplexCheck(Simplify(NNF(f)))
		if verdict == simplexInapplicable {
			t.Fatalf("trial %d: conjunction judged inapplicable", trial)
		}
		s := &Solver{}
		// Bypass the fast path to get the independent answer.
		closed := Formula(f)
		for _, v := range FreeVars(f) {
			closed = &Exists{V: v, F: closed}
		}
		qf, err := s.QECtx(context.Background(), closed)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, ok := Simplify(qf).(Bool)
		if !ok {
			t.Fatalf("trial %d: not ground", trial)
		}
		want := simplexFeasible
		if !bool(b) {
			want = simplexInfeasible
		}
		if verdict != want {
			t.Fatalf("trial %d: simplex %v, solver %v for %s", trial, verdict, want, f)
		}
	}
}

func TestSatisfiableUsesSimplexCut(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	f := NewAnd(
		LE(VarTerm(x).Clone().AddVar(y, big.NewRat(1, 1)), ConstTerm(0)),
		GE(VarTerm(x), ConstTerm(5)),
		GE(VarTerm(y), ConstTerm(5)),
	)
	before := Snapshot()
	sat, err := New().SatisfiableCtx(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	after := Snapshot()
	if sat {
		t.Fatal("x+y<=0 with x,y>=5 should be UNSAT")
	}
	if after.SimplexCuts-before.SimplexCuts != 1 {
		t.Fatal("the simplex fast path should have settled this query")
	}
	if d := after.Eliminations - before.Eliminations; d != 0 {
		t.Fatalf("no eliminations expected on the fast path, got %d", d)
	}
}
