package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sia/internal/predtest"
)

func TestSynthesizeContextPreCancelled(t *testing.T) {
	s := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SynthesizeContext(ctx, p, []string{"a"}, s, Options{})
	if res != nil {
		t.Fatalf("cancelled synthesis returned a result: %+v", res)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error %v does not match ErrTimeout", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not expose context.Canceled", err)
	}
}

// TestSynthesizeContextCancelMidLoop cancels from inside the Trace hook —
// i.e. between iterations, with solver work still pending — and asserts the
// loop notices within one solver call rather than running its remaining
// iterations.
func TestSynthesizeContextCancelMidLoop(t *testing.T) {
	s := intSchema("a1", "a2", "b1")
	p := predtest.MustParse("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", s)

	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	iterations := 0
	opts := Options{Trace: func(int, fmt.Stringer, bool) {
		iterations++
		if iterations == 1 {
			cancelled = time.Now()
			cancel()
		}
	}}
	res, err := SynthesizeContext(ctx, p, []string{"a1", "a2"}, s, opts)
	if res != nil || !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-loop cancel: res=%v err=%v", res, err)
	}
	if iterations != 1 {
		t.Fatalf("loop ran %d iterations after cancellation, want 1", iterations)
	}
	// "Promptly": a single solver call on this problem takes microseconds;
	// a second's grace keeps the bound unflaky while still catching a loop
	// that ignores ctx until its iteration budget runs out.
	if waited := time.Since(cancelled); waited > time.Second {
		t.Fatalf("cancellation took %v to propagate", waited)
	}
}

func TestSynthesizeContextDeadline(t *testing.T) {
	s := intSchema("a1", "a2", "b1")
	p := predtest.MustParse("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", s)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, err := SynthesizeContext(ctx, p, []string{"a1", "a2"}, s, Options{})
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error %v should match ErrTimeout and DeadlineExceeded", err)
	}
}

func TestVerifyReductionContextCancelled(t *testing.T) {
	s := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", s)
	cand := predtest.MustParse("a < 20", s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VerifyReductionContext(ctx, p, cand, s); !errors.Is(err, ErrTimeout) {
		t.Fatalf("error %v does not match ErrTimeout", err)
	}
}

func TestSymbolicallyRelevantCancelled(t *testing.T) {
	s := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SymbolicallyRelevant(ctx, p, []string{"a"}, s); !errors.Is(err, ErrTimeout) {
		t.Fatalf("error %v does not match ErrTimeout", err)
	}
}
