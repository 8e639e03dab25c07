package sia_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sia"
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

// TestSynthesizeContextCancellation is the acceptance check: cancelling ctx
// during synthesis returns an ErrTimeout-compatible error promptly and
// leaks no goroutines.
func TestSynthesizeContextCancellation(t *testing.T) {
	pred, schema := quickstartPredicate(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	opts := sia.Options{Trace: func(int, fmt.Stringer, bool) {
		if !fired {
			fired = true
			cancel()
		}
	}}
	start := time.Now()
	res, err := sia.SynthesizeContext(ctx, pred, []string{"l_commitdate", "l_shipdate"}, schema, opts)
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
