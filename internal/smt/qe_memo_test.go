package smt

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"
)

// qeMemoTestFormula needs enough elimination structure that a cancellation
// can land mid-way through nested eliminate calls.
func qeMemoTestFormula() Formula {
	x, y, z := IntVar("mx"), IntVar("my"), IntVar("mz")
	conj := func(fs ...Formula) Formula { return NewAnd(fs...) }
	two := func(v Var) *Term { return VarTerm(v).Scale(big.NewRat(2, 1)) }
	three := func(v Var) *Term { return VarTerm(v).Scale(big.NewRat(3, 1)) }
	return NewOr(
		conj(LT(two(x).Add(three(y)), ConstTerm(7)), EQ(VarTerm(x).AddScaled(VarTerm(y), big.NewRat(-1, 1)), ConstTerm(1)), LE(VarTerm(z), VarTerm(x))),
		conj(LE(three(x), VarTerm(y)), LT(VarTerm(y), two(z)), LT(VarTerm(z), ConstTerm(5))),
		conj(EQ(two(y), three(z)), LT(VarTerm(x), VarTerm(z)), LT(ConstTerm(-3), VarTerm(x))),
		conj(LE(VarTerm(x).Add(VarTerm(y)).Add(VarTerm(z)), ConstTerm(0)), LT(ConstTerm(0), VarTerm(x))),
	)
}

// TestQEMemoCancellationSweep is the poisoned-entry regression: a result
// assembled while the context was dying must never be cached, so after
// every cancelled call of TestCancellationSweep's sweep a rerun on a
// fresh context answers as the clean run did.
func TestQEMemoCancellationSweep(t *testing.T) {
	sweepCancellation(t, func(ctx context.Context) (string, error) {
		ok, err := New().SatisfiableCtx(ctx, qeMemoTestFormula())
		return fmt.Sprint(ok), err
	})
}

// TestQEMemoBudgetErrorNotCached drives an elimination into ErrBudget
// mid-way: the disjuncts of qeMemoTestFormula eliminate cleanly and are
// stored, then one more disjunct needs a divisibility period past
// maxModulus. The aborted disjunction must not be stored — a rerun aborts
// again instead of being served a partial answer — and the sub-results
// stored before the abort must answer as a clean run does.
func TestQEMemoBudgetErrorNotCached(t *testing.T) {
	ctx := context.Background()
	clean := qeMemoTestFormula()
	qeMemo.Purge()
	want, err := New().SatisfiableCtx(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}
	qeMemo.Purge()
	x, y := IntVar("mx"), IntVar("my")
	over := NewOr(clean, EQ(VarTerm(x).Scale(big.NewRat(maxModulus+3, 1)).Add(VarTerm(y)), ConstTerm(5)))
	for run := 0; run < 2; run++ {
		if _, err := New().SatisfiableCtx(ctx, over); !errors.Is(err, ErrBudget) {
			t.Fatalf("run %d: want ErrBudget, got %v", run, err)
		}
		if run == 0 && qeMemo.Len() == 0 {
			t.Fatal("the abort came before any sub-result was stored")
		}
	}
	got, err := New().SatisfiableCtx(ctx, clean)
	if err != nil {
		t.Fatalf("rerun after budget abort failed: %v", err)
	}
	if got != want {
		t.Fatalf("rerun after budget abort answered %v, clean run answered %v", got, want)
	}
}

// TestQEMemoHitsServeSameAnswer checks the memo actually fires across
// solver instances and that a hit reproduces the miss's answer.
func TestQEMemoHitsServeSameAnswer(t *testing.T) {
	f := qeMemoTestFormula()
	qeMemo.Purge()
	first, err := New().SatisfiableCtx(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := mQEMemoHits.Value()
	second, err := New().SatisfiableCtx(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("memo-served run answered %v, first run answered %v", second, first)
	}
	if mQEMemoHits.Value() == hitsBefore {
		t.Fatal("second identical query produced no memo hits")
	}
}
