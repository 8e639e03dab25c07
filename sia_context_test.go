package sia_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"sia"
	"sia/internal/smt"
)

func quickstartPredicate(t *testing.T) (sia.Predicate, *sia.Schema) {
	t.Helper()
	schema := sia.NewSchema(
		sia.Date("l_shipdate"), sia.Date("l_commitdate"), sia.Date("o_orderdate"),
	)
	pred, err := sia.ParsePredicate(`l_shipdate - o_orderdate < 20
		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10
		AND o_orderdate < DATE '1993-06-01'`, schema)
	if err != nil {
		t.Fatal(err)
	}
	return pred, schema
}

// solverCalls counts the public solver calls completed so far. Each call
// records its wall time on the way out, so the count moves as a call
// returns.
func solverCalls() int64 {
	var n int64
	for kind, q := range smt.Snapshot().Query {
		if kind != "elimination" {
			n += int64(q.Count)
		}
	}
	return n
}

// cancelAtCall is a context cancelled once solverCalls reaches at.
type cancelAtCall struct {
	context.Context
	at int64
}

func (c *cancelAtCall) Err() error {
	if solverCalls() >= c.at {
		return context.Canceled
	}
	return nil
}

// TestSynthesizeContextCancellation is the acceptance check: cancelling ctx
// during synthesis returns an ErrTimeout-compatible error promptly and
// leaks no goroutines. The context is cancelled as the first verification
// returns. A run whose loop ends on its first check of a 1 ns Timeout makes
// exactly the solver calls that come before the loop, and the loop's first
// solver call is the verification.
func TestSynthesizeContextCancellation(t *testing.T) {
	pred, schema := quickstartPredicate(t)
	cols := []string{"l_commitdate", "l_shipdate"}
	base := solverCalls()
	if _, err := sia.SynthesizeContext(context.Background(), pred, cols, schema, sia.Options{Timeout: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	firstVerify := solverCalls() - base + 1
	ctx := &cancelAtCall{Context: context.Background(), at: solverCalls() + firstVerify}
	baseline := runtime.NumGoroutine()

	start := time.Now()
	res, err := sia.SynthesizeContext(ctx, pred, cols, schema, sia.Options{})
	if res != nil {
		t.Fatalf("cancelled synthesis returned a result: %+v", res)
	}
	if !errors.Is(err, sia.ErrTimeout) {
		t.Fatalf("error %v does not match sia.ErrTimeout", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not expose context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// Synthesis runs on the caller's goroutine; cancellation must leave
	// nothing behind.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

func TestSentinelErrors(t *testing.T) {
	pred, schema := quickstartPredicate(t)

	// Invalid options surface ErrInvalidOptions.
	_, err := sia.SynthesizeContext(context.Background(), pred, []string{"l_shipdate"}, schema, sia.Options{MaxIterations: -1})
	if !errors.Is(err, sia.ErrInvalidOptions) {
		t.Fatalf("negative options: %v does not match ErrInvalidOptions", err)
	}
	// So do bad arguments.
	_, err = sia.SynthesizeContext(context.Background(), pred, []string{"no_such_column"}, schema, sia.Options{})
	if !errors.Is(err, sia.ErrInvalidOptions) {
		t.Fatalf("unknown column: %v does not match ErrInvalidOptions", err)
	}
	// The sentinels are distinct.
	if errors.Is(sia.ErrTimeout, sia.ErrBudget) || errors.Is(sia.ErrBudget, sia.ErrInvalidOptions) {
		t.Fatal("sentinel errors are not distinct")
	}
}
