package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sia/internal/obs"
	"sia/internal/predicate"
	"sia/internal/predtest"
	"sia/internal/smt"
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

// TestSynthesizeContextCancelMidLoop cancels as the first verification
// returns — i.e. between iterations, with solver work still pending — and
// asserts the loop notices within one solver call rather than running its
// remaining iterations.
func TestSynthesizeContextCancelMidLoop(t *testing.T) {
	s := intSchema("a1", "a2", "b1")
	p := predtest.MustParse("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", s)
	cols := []string{"a1", "a2"}

	k := firstVerifyCall(t, p, cols, s)
	ctx := &cancelAtCall{Context: context.Background(), at: solverCalls() + k}
	var trace bytes.Buffer
	tr := obs.NewTracer(&trace)
	res, err := SynthesizeContext(ctx, p, cols, s, Options{Tracer: tr})
	returned := time.Now()
	if cerr := tr.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if res != nil || !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-loop cancel: res=%v err=%v", res, err)
	}
	if iterations := strings.Count(trace.String(), `"event":"verify"`); iterations != 1 {
		t.Fatalf("loop ran %d iterations after cancellation, want 1", iterations)
	}
	// "Promptly": a single solver call on this problem takes microseconds;
	// a second's grace keeps the bound unflaky while still catching a loop
	// that ignores ctx until its iteration budget runs out.
	if waited := returned.Sub(ctx.noticed); waited > time.Second {
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

// solverCalls is the sweep's clock: public solver calls completed so
// far. Each call records its wall time on the way out, so the count moves
// as a call returns.
func solverCalls() int64 {
	var n int64
	for kind, q := range smt.Snapshot().Query {
		if kind != "elimination" {
			n += int64(q.Count)
		}
	}
	return n
}

// cancelAtCall is a context cancelled once the clock reaches at, that is,
// as a solver call returns. The run learns of it only at its next poll;
// noticed is the time of that poll.
type cancelAtCall struct {
	context.Context
	at      int64
	noticed time.Time
}

func (c *cancelAtCall) Err() error {
	if solverCalls() >= c.at {
		if c.noticed.IsZero() {
			c.noticed = time.Now()
		}
		return context.Canceled
	}
	return nil
}

// firstVerifyCall returns how many solver calls a run of p makes up to and
// including its first verification. A run whose loop ends on its first
// check of a 1 ns Timeout makes exactly the calls that come before the
// loop, and the loop's first solver call is the verification: learning
// makes none.
func firstVerifyCall(t *testing.T, p predicate.Predicate, cols []string, s *predicate.Schema) int64 {
	t.Helper()
	base := solverCalls()
	if _, err := SynthesizeContext(context.Background(), p, cols, s, Options{Timeout: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	return solverCalls() - base + 1
}

// maxCallsAfterCancel bounds the solver calls that complete after the
// cancellation: the one whose poll notices it.
const maxCallsAfterCancel = 1

// TestSynthesizeContextCancellationSweep cancels a synthesis run as each
// of its solver calls returns, in turn. Every cancelled run must end in
// ErrTimeout wrapping context.Canceled, never a completed Result, and stop
// within maxCallsAfterCancel further solver calls. A run that makes no
// solver call after the cancellation may finish; polled says whether the
// run still polls ctx after its last solver call.
//
//   - "sampler" asks for more TRUE samples than enumeration yields, so 25
//     of them come from the blocked ModelCtx loop (samples.go's slow path)
//     before its UNSAT proves the region exhausted.
//   - "loop" gives the run no time budget: the loop ends on its first
//     check of Options.Timeout, and only its poll of ctx, made first,
//     turns a cancellation after the last solver call into an error.
//   - "cegis" runs the loop to its optimal result, which prune's solver
//     calls end.
func TestSynthesizeContextCancellationSweep(t *testing.T) {
	cases := []struct {
		name, pred string
		cols       []string
		opts       Options
		polled     bool
	}{
		{"sampler", "a + b = 50 AND a >= 0 AND b >= 0 AND c > a", []string{"a", "b"}, Options{InitialTrue: 80}, false},
		{"loop", "a - b < 20 AND b < 0 AND c > a", []string{"a", "b"}, Options{Timeout: time.Nanosecond}, true},
		{"cegis", "a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", []string{"a1", "a2"}, Options{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := intSchema("a", "b", "c", "a1", "a2", "b1")
			p := predtest.MustParse(c.pred, s)
			base := solverCalls()
			if _, err := SynthesizeContext(context.Background(), p, c.cols, s, c.opts); err != nil {
				t.Fatal(err)
			}
			last := solverCalls() - base - 1
			if c.polled {
				last++
			}
			for k := int64(0); k <= last; k += last/100 + 1 {
				ctx := &cancelAtCall{Context: context.Background(), at: solverCalls() + k}
				res, err := SynthesizeContext(ctx, p, c.cols, s, c.opts)
				if res != nil || !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled after solver call %d: res=%v err=%v", k, res, err)
				}
				if after := solverCalls() - ctx.at; after > maxCallsAfterCancel {
					t.Fatalf("cancelled after solver call %d: %d more completed, want at most %d", k, after, maxCallsAfterCancel)
				}
			}
		})
	}
}
