package smt

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"time"
)

func TestSolverTimeout(t *testing.T) {
	// An adversarial nested formula with large coefficients grinds Cooper
	// into its worst case; a tiny timeout must surface as ErrBudget, not
	// a hang.
	s := &Solver{Timeout: time.Millisecond}
	vars := []Var{IntVar("a"), IntVar("b"), IntVar("c"), IntVar("d")}
	var fs []Formula
	for i, v := range vars {
		tm := VarTerm(v)
		tm.Scale(big.NewRat(int64(17+10*i), 1))
		for j, w := range vars {
			if j != i {
				tm.AddVar(w, big.NewRat(int64(3+j), 1))
			}
		}
		fs = append(fs, NE(tm, ConstTerm(int64(5+i))))
	}
	f := NewAnd(fs...)
	start := time.Now()
	_, err := s.SatisfiableCtx(context.Background(), f)
	elapsed := time.Since(start)
	if err == nil {
		// Fast machines may finish inside the window; only a hang or a
		// wrong error type is a failure.
		t.Logf("formula solved within the timeout (%v)", elapsed)
		return
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the call: took %v", elapsed)
	}
}

func TestSolverTimeoutResets(t *testing.T) {
	// After a timed-out call, the solver must stay usable: the deadline
	// is per-call, not sticky.
	s := &Solver{Timeout: 200 * time.Millisecond}
	x := IntVar("x")
	ok, err := s.SatisfiableCtx(context.Background(), GT(VarTerm(x), ConstTerm(0)))
	if err != nil || !ok {
		t.Fatalf("simple query failed: %v %v", err, ok)
	}
	m, err := s.ModelCtx(context.Background(), GT(VarTerm(x), ConstTerm(41)))
	if err != nil {
		t.Fatal(err)
	}
	if m[x].Cmp(big.NewRat(42, 1)) < 0 {
		t.Fatalf("model %v violates x > 41", m)
	}
}
