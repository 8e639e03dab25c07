package cache

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sia/internal/core"
	"sia/internal/obs"
	"sia/internal/predicate"
	"sia/internal/predtest"
)

func intSchema(names ...string) *predicate.Schema {
	cols := make([]predicate.Column, len(names))
	for i, n := range names {
		cols[i] = predicate.Column{Name: n, Type: predicate.TypeInteger, NotNull: true}
	}
	return predicate.NewSchema(cols...)
}

func result(tag int) *core.Result {
	return &core.Result{Valid: true, Iterations: tag}
}

func TestDoCachesAndHits(t *testing.T) {
	c := NewSynthesizer(8)
	calls := 0
	fn := func(context.Context) (*core.Result, error) {
		calls++
		return result(1), nil
	}
	r1, cached, err := c.do(context.Background(), "k", fn)
	if err != nil || cached {
		t.Fatalf("first do: res=%v cached=%v err=%v", r1, cached, err)
	}
	r2, cached, err := c.do(context.Background(), "k", fn)
	if err != nil || !cached {
		t.Fatalf("second do: cached=%v err=%v", cached, err)
	}
	if r1 != r2 {
		t.Fatalf("hit returned a different Result pointer")
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Coalesced != 0 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDoDoesNotCacheErrors(t *testing.T) {
	c := NewSynthesizer(8)
	calls := 0
	fail := errors.New("boom")
	fn := func(context.Context) (*core.Result, error) {
		calls++
		if calls == 1 {
			return nil, fail
		}
		return result(2), nil
	}
	if _, _, err := c.do(context.Background(), "k", fn); !errors.Is(err, fail) {
		t.Fatalf("want boom, got %v", err)
	}
	r, cached, err := c.do(context.Background(), "k", fn)
	if err != nil || cached || r.Iterations != 2 {
		t.Fatalf("retry after error: res=%+v cached=%v err=%v", r, cached, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

// TestSingleflight is the acceptance check: N concurrent identical requests
// run fn exactly once; everyone gets the same pointer; the counters prove
// the coalescing.
func TestSingleflight(t *testing.T) {
	c := NewSynthesizer(8)
	const n = 32
	var calls atomic.Int64
	release := make(chan struct{})
	fn := func(context.Context) (*core.Result, error) {
		calls.Add(1)
		<-release
		return result(7), nil
	}
	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			r, _, err := c.do(context.Background(), "k", fn)
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[i] = r
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// All n goroutines have entered do; let the one leader finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("result %d differs", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (stats %+v)", s.Misses, s)
	}
	if s.Coalesced+s.Hits != n-1 {
		t.Fatalf("coalesced+hits = %d, want %d (stats %+v)", s.Coalesced+s.Hits, n-1, s)
	}
	if s.InFlight != 0 {
		t.Fatalf("inflight = %d after completion", s.InFlight)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewSynthesizer(2)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.do(context.Background(), key, func(context.Context) (*core.Result, error) {
			return result(i), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries 1 eviction", s)
	}
	// k0 was evicted; k2 (most recent) must still hit.
	_, cached, err := c.do(context.Background(), "k2", func(context.Context) (*core.Result, error) {
		t.Fatal("k2 recomputed")
		return nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("k2: cached=%v err=%v", cached, err)
	}
	if _, cached, _ = c.do(context.Background(), "k0", func(context.Context) (*core.Result, error) {
		return result(0), nil
	}); cached {
		t.Fatal("k0 should have been evicted")
	}
}

// TestWaiterCancellation: a waiter whose context expires leaves promptly
// with an ErrTimeout-compatible error while the computation continues for
// the patient waiter.
func TestWaiterCancellation(t *testing.T) {
	c := NewSynthesizer(8)
	release := make(chan struct{})
	fn := func(context.Context) (*core.Result, error) {
		<-release
		return result(1), nil
	}

	patientDone := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), "k", fn)
		patientDone <- err
	}()
	// Give the patient goroutine time to become the leader.
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	impatient := make(chan error, 1)
	go func() {
		_, _, err := c.do(ctx, "k", fn)
		impatient <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-impatient:
		if !errors.Is(err, core.ErrTimeout) || !errors.Is(err, context.Canceled) {
			t.Fatalf("impatient waiter error = %v, want ErrTimeout+Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}

	close(release)
	if err := <-patientDone; err != nil {
		t.Fatalf("patient waiter: %v", err)
	}
}

// TestSynthesizeDeadContext: a caller whose context is already cancelled
// gets an error matching both core.ErrTimeout and context.Canceled, on a
// cached key as on an uncached one, and no computation starts.
func TestSynthesizeDeadContext(t *testing.T) {
	schema := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", schema)
	s := NewSynthesizer(8)
	if _, _, err := s.Synthesize(context.Background(), p, []string{"a"}, schema, core.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, cols := range map[string][]string{"cached": {"a"}, "uncached": {"b"}} {
		res, _, err := s.Synthesize(ctx, p, cols, schema, core.Options{})
		if res != nil || !errors.Is(err, core.ErrTimeout) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s key: res=%v err=%v, want ErrTimeout wrapping context.Canceled", name, res, err)
		}
	}
	if st := s.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("a dead context reached the cache: %+v", st)
	}
}

// TestAbandonedComputationCancelled: when every waiter gives up, the
// runner's context is cancelled so the computation stops, and a later
// request starts fresh rather than inheriting the cancelled run.
func TestAbandonedComputationCancelled(t *testing.T) {
	c := NewSynthesizer(8)
	runnerCancelled := make(chan struct{})
	started := make(chan struct{})
	first := true
	fn := func(ctx context.Context) (*core.Result, error) {
		if first {
			first = false
			close(started)
			<-ctx.Done()
			close(runnerCancelled)
			return nil, fmt.Errorf("%w: %w", core.ErrTimeout, ctx.Err())
		}
		return result(9), nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.do(ctx, "k", fn)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("abandoning caller error = %v", err)
	}
	select {
	case <-runnerCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned runner was never cancelled")
	}

	// A fresh request must run a fresh computation and succeed.
	r, cached, err := c.do(context.Background(), "k", fn)
	if err != nil || r == nil || r.Iterations != 9 {
		t.Fatalf("fresh request: res=%+v cached=%v err=%v", r, cached, err)
	}
}

// TestCacheHitIdenticalToColdRun is the acceptance check that a hit returns
// a Result byte-equal to a cold run: same pointer, and an independent cold
// cache produces a structurally identical Result for the same key.
func TestCacheHitIdenticalToColdRun(t *testing.T) {
	schema := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", schema)

	cold, err := core.SynthesizeContext(context.Background(), p, []string{"a"}, schema, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	s := NewSynthesizer(8)
	warm1, cached1, err := s.Synthesize(context.Background(), p, []string{"a"}, schema, core.Options{})
	if err != nil || cached1 {
		t.Fatalf("first: cached=%v err=%v", cached1, err)
	}
	warm2, cached2, err := s.Synthesize(context.Background(), p, []string{"a"}, schema, core.Options{})
	if err != nil || !cached2 {
		t.Fatalf("second: cached=%v err=%v", cached2, err)
	}
	if warm1 != warm2 {
		t.Fatal("hit returned a different pointer than the miss")
	}
	if cold.Predicate.String() != warm2.Predicate.String() ||
		cold.Valid != warm2.Valid || cold.Optimal != warm2.Optimal ||
		cold.Iterations != warm2.Iterations ||
		cold.TrueSamples != warm2.TrueSamples || cold.FalseSamples != warm2.FalseSamples ||
		cold.GaveUp != warm2.GaveUp {
		t.Fatalf("cached result differs from cold run:\ncold: %+v\nwarm: %+v", cold, warm2)
	}
}

func TestKeyFor(t *testing.T) {
	schema := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", schema)
	q := predtest.MustParse("a - b < 21 AND b < 0", schema)

	k1, ok := KeyFor(p, []string{"a", "b"}, schema, core.Options{})
	if !ok {
		t.Fatal("cacheable request reported uncacheable")
	}
	// Column order must not matter.
	k2, _ := KeyFor(p, []string{"b", "a"}, schema, core.Options{})
	if k1 != k2 {
		t.Fatal("column order changed the key")
	}
	// Predicate text must matter.
	k3, _ := KeyFor(q, []string{"a", "b"}, schema, core.Options{})
	if k3 == k1 {
		t.Fatal("different predicates share a key")
	}
	// Zero options and explicit defaults must agree.
	k4, _ := KeyFor(p, []string{"a", "b"}, schema, core.PresetSIA())
	if k4 != k1 {
		t.Fatalf("zero options and PresetSIA disagree")
	}
	// Different options must differ.
	k5, _ := KeyFor(p, []string{"a", "b"}, schema, core.Options{MaxIterations: 7})
	if k5 == k1 {
		t.Fatal("different options share a key")
	}
	// A tracer ⇒ uncacheable.
	tr := obs.NewTracer(io.Discard)
	defer tr.Close()
	if _, ok := KeyFor(p, []string{"a"}, schema, core.Options{Tracer: tr}); ok {
		t.Fatal("a traced request should be uncacheable")
	}
}

// TestNoGoroutineLeaks: after a storm of hits, coalesced waits, and
// abandoned computations, the goroutine count returns to baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewSynthesizer(4)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*time.Millisecond)
			defer cancel()
			key := fmt.Sprintf("k%d", i%8)
			_, _, _ = c.do(ctx, key, func(runCtx context.Context) (*core.Result, error) {
				select {
				case <-time.After(time.Duration(i%3) * time.Millisecond):
					return result(i), nil
				case <-runCtx.Done():
					return nil, runCtx.Err()
				}
			})
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
}
