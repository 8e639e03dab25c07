package smt

import (
	"context"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"
	"time"
)

// adversarial returns a formula whose Cooper elimination polls for
// cancellation many times, so a cancellation can land mid-call.
func adversarial() Formula {
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
	return NewAnd(fs...)
}

func TestSolverContextPreCancelled(t *testing.T) {
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.SatisfiableCtx(ctx, adversarial())
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected ErrInterrupted, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not expose context.Canceled", err)
	}
	// Cancellation is the caller's doing, not a structural budget failure.
	if errors.Is(err, ErrBudget) {
		t.Fatalf("interruption %v must not look like budget exhaustion", err)
	}
}

// cancelAfterErrs is a context whose Err() starts failing from the k-th
// call onward, which lets a test land a cancellation deterministically on
// every checkStop poll point in turn.
type cancelAfterErrs struct {
	context.Context
	k     int32
	calls atomic.Int32
}

func (c *cancelAfterErrs) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return c.Context.Err()
}

// pauseAtPoll is a context whose k-th Err() call blocks until the wrapped
// context is cancelled, so a cancellation from another goroutine is known
// to arrive while the solver is inside the call, not before or after it.
type pauseAtPoll struct {
	context.Context
	k       int32
	calls   atomic.Int32
	reached chan struct{}
}

func (c *pauseAtPoll) Err() error {
	if c.calls.Add(1) == c.k {
		close(c.reached)
		<-c.Context.Done()
	}
	return c.Context.Err()
}

func TestSolverContextCancelMidCall(t *testing.T) {
	// A clean run on a cold memo counts the solver's checkStop polls; the
	// cancelled run then pauses halfway through them. Purging keeps a memo
	// hit from answering the call before it reaches the elimination loop.
	qeMemo.Purge()
	probe := &cancelAfterErrs{Context: context.Background(), k: 1 << 30}
	if _, err := New().SatisfiableCtx(probe, adversarial()); err != nil {
		t.Fatal(err)
	}
	polls := probe.calls.Load()
	if polls < 8 {
		t.Fatalf("formula too shallow: only %d polls", polls)
	}
	qeMemo.Purge()

	s := New()
	s.Timeout = 0 // only ctx may stop this call
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	paused := &pauseAtPoll{Context: ctx, k: polls / 2, reached: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := s.SatisfiableCtx(paused, adversarial())
		done <- err
	}()
	select {
	case <-paused.reached:
	case err := <-done:
		t.Fatalf("solver call returned %v before poll %d of %d", err, polls/2, polls)
	case <-time.After(10 * time.Second):
		t.Fatalf("solver never reached poll %d of %d", polls/2, polls)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("expected ErrInterrupted, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v does not expose context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled solver call did not return")
	}
}

func TestSolverContextDisarmsAfterCall(t *testing.T) {
	// A cancelled ctx from a previous call must not leak into the next one.
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := IntVar("x")
	if _, err := s.SatisfiableCtx(ctx, GT(VarTerm(x), ConstTerm(0))); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected ErrInterrupted, got %v", err)
	}
	ok, err := s.SatisfiableCtx(context.Background(), GT(VarTerm(x), ConstTerm(0)))
	if err != nil || !ok {
		t.Fatalf("solver unusable after cancelled call: ok=%v err=%v", ok, err)
	}
	m, err := s.ModelCtx(context.Background(), GT(VarTerm(x), ConstTerm(41)))
	if err != nil {
		t.Fatal(err)
	}
	if m[x].Cmp(big.NewRat(42, 1)) < 0 {
		t.Fatalf("model %v violates x > 41", m)
	}
}
