package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sia/internal/cache/memo"
	"sia/internal/core"
	"sia/internal/obs"
	"sia/internal/predicate"
)

// DefaultCapacity bounds the entry count of a zero-configured cache.
const DefaultCapacity = 4096

// Stats is a point-in-time snapshot of the cache's counters. Hits, Misses,
// Coalesced and Evictions are monotone; Entries and InFlight are gauges.
type Stats struct {
	// Hits counts requests answered from a stored entry.
	Hits uint64 `json:"hits"`
	// Misses counts requests that started a new computation (one CEGIS
	// loop each).
	Misses uint64 `json:"misses"`
	// Coalesced counts requests that joined an in-flight computation
	// instead of starting their own — the singleflight savings.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of stored results.
	Entries int `json:"entries"`
	// InFlight is the current number of running computations.
	InFlight int `json:"in_flight"`
}

// Synthesizer is core.SynthesizeContext memoized under canonical keys
// (KeyFor), with LRU bounding and singleflight deduplication. All methods
// are safe for concurrent use.
//
// Stored results are shared: a hit returns the same *core.Result pointer
// the original computation produced, so callers must treat Results as
// immutable (every field is write-once metadata or an immutable predicate
// tree, so ordinary use never mutates one).
type Synthesizer struct {
	// mu guards inflight. do looks a key up in results and inflight under
	// it, and run stores a result and clears its inflight slot under it,
	// so a request never misses both.
	mu       sync.Mutex
	results  *memo.Cache[string, *core.Result]
	inflight map[string]*call

	// The monotone counters are obs instruments so a registry can read
	// them live; Stats() is a snapshot view over the same values.
	hits, misses, coalesced, evictions obs.Counter

	// tracer is read by traceOutcome on every request, concurrently with
	// SetTracer; the atomic pointer keeps that pair race-free without
	// widening c.mu over trace emission.
	tracer atomic.Pointer[obs.Tracer]
}

// call is one in-flight computation. Its lifecycle: created by the first
// requester (the leader), joined by coalescing waiters, completed exactly
// once by the detached runner goroutine, which closes done. If every
// waiter's context expires first, the call is marked abandoned and its
// runner cancelled — a later identical request then starts a fresh call
// rather than inheriting a cancelled one.
type call struct {
	done      chan struct{}
	res       *core.Result
	err       error
	waiters   int
	completed bool
	abandoned bool
	cancel    context.CancelFunc
}

// NewSynthesizer returns a cached synthesizer bounded to capacity results
// (DefaultCapacity when capacity is <= 0).
func NewSynthesizer(capacity int) *Synthesizer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Synthesizer{
		results:  memo.New[string, *core.Result](capacity),
		inflight: map[string]*call{},
	}
}

// Synthesize is core.SynthesizeContext memoized through the cache. cached
// reports whether the result was served without running a CEGIS loop for
// this call. Uncacheable requests (a Tracer — see KeyFor)
// bypass the cache entirely.
func (c *Synthesizer) Synthesize(ctx context.Context, p predicate.Predicate, cols []string, schema *predicate.Schema, opts core.Options) (res *core.Result, cached bool, err error) {
	key, ok := KeyFor(p, cols, schema, opts)
	if !ok {
		res, err := core.SynthesizeContext(ctx, p, cols, schema, opts)
		return res, false, err
	}
	return c.do(ctx, key, func(runCtx context.Context) (*core.Result, error) {
		return core.SynthesizeContext(runCtx, p, cols, schema, opts)
	})
}

// do returns the cached result for key, computing it with fn on a miss.
// Concurrent calls with the same key share a single fn invocation; cached
// reports whether the result was served without running fn in this call
// (an LRU hit or a coalesced join).
//
// fn runs on a goroutine whose context is detached from ctx's
// cancellation: the computation belongs to every waiter, not to whichever
// request happened to arrive first, so one impatient client cannot kill
// the work for the others. When ctx expires while fn is still running, do
// returns an error matching core.ErrTimeout (and ctx.Err()) immediately;
// the computation keeps running for the remaining waiters and is cancelled
// only when the last waiter is gone. An expired ctx always yields that
// error — even when the entry is already stored or the computation lands
// in the same instant — so a caller's deadline is honored
// deterministically. Successful results are stored; errors are not (the
// next request retries).
func (c *Synthesizer) do(ctx context.Context, key string, fn func(context.Context) (*core.Result, error)) (res *core.Result, cached bool, err error) {
	for {
		// A dead context fails fast even on what would be a cache hit:
		// the caller's budget is spent, and cancelled means cancelled.
		if cerr := ctx.Err(); cerr != nil {
			return nil, false, fmt.Errorf("%w: %w", core.ErrTimeout, cerr)
		}
		c.mu.Lock()
		if res, ok := c.results.Get(key); ok {
			c.hits.Inc()
			c.mu.Unlock()
			c.traceOutcome("hit")
			return res, true, nil
		}
		if cl, ok := c.inflight[key]; ok && !cl.abandoned {
			cl.waiters++
			c.coalesced.Inc()
			c.mu.Unlock()
			c.traceOutcome("coalesced")
			res, err, retry := c.wait(ctx, cl)
			if retry {
				continue
			}
			return res, err == nil, err
		}
		// Miss: become the leader. The runner's context inherits ctx's
		// values but not its cancellation; it is cancelled only when the
		// last waiter abandons the call.
		c.misses.Inc()
		runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		cl := &call{done: make(chan struct{}), cancel: cancel, waiters: 1}
		c.inflight[key] = cl
		c.mu.Unlock()
		c.traceOutcome("miss")
		go c.run(key, cl, runCtx, fn)
		res, err, retry := c.wait(ctx, cl)
		if retry {
			continue
		}
		return res, false, err
	}
}

// wait blocks until the call completes or ctx expires. retry is set when
// the call was abandoned under the waiter (its result is a cancellation
// artifact, not an answer) while the waiter's own context is still live.
func (c *Synthesizer) wait(ctx context.Context, cl *call) (res *core.Result, err error, retry bool) {
	select {
	case <-cl.done:
		c.mu.Lock()
		abandoned := cl.abandoned
		c.mu.Unlock()
		if abandoned && cl.err != nil && ctx.Err() == nil {
			return nil, nil, true
		}
		// The computation can land in the same instant the waiter's
		// context expires, leaving both select arms ready. Deadline
		// expiry wins, so the caller's budget is honored
		// deterministically; the result is still stored for later
		// callers.
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("%w: %w", core.ErrTimeout, cerr), false
		}
		return cl.res, cl.err, false
	case <-ctx.Done():
		c.mu.Lock()
		cl.waiters--
		if cl.waiters == 0 && !cl.completed {
			cl.abandoned = true
			cl.cancel()
		}
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", core.ErrTimeout, ctx.Err()), false
	}
}

// run executes one computation and publishes its outcome.
func (c *Synthesizer) run(key string, cl *call, runCtx context.Context, fn func(context.Context) (*core.Result, error)) {
	res, err := fn(runCtx)
	c.mu.Lock()
	cl.res, cl.err = res, err
	cl.completed = true
	// A fresh call may have replaced an abandoned one; only the owner
	// clears the slot.
	if c.inflight[key] == cl {
		delete(c.inflight, key)
	}
	if err == nil {
		c.store(key, res)
	}
	c.mu.Unlock()
	close(cl.done)
	cl.cancel()
}

// store keeps res under key, counting the entry the LRU bound drops.
func (c *Synthesizer) store(key string, res *core.Result) {
	if c.results.Add(key, res) {
		c.evictions.Inc()
	}
}

// Peek returns the stored result for key without computing on a miss. A
// found entry is refreshed in the LRU and counted as a hit (it served a
// request); an absent key is not counted as a miss, so Stats.Misses keeps
// meaning "CEGIS loops started". The serving tier uses Peek as the local
// fast path before forwarding a peer-owned key: a positive lookup skips
// the network hop, a negative one proxies.
func (c *Synthesizer) Peek(key string) (*core.Result, bool) {
	res, ok := c.results.Get(key)
	if ok {
		c.hits.Inc()
	}
	return res, ok
}

// Put stores res under key without counting a miss, evicting past
// capacity. It backs snapshot restore (warming a rebooted replica) and
// batched group runs (one grouped result stored under each member's key);
// ordinary synthesis results should flow through Synthesize.
func (c *Synthesizer) Put(key string, res *core.Result) {
	c.store(key, res)
}

// Entry is one exported cache entry.
type Entry struct {
	Key string
	Res *core.Result
}

// Export returns the stored entries, most recently used first. The slice
// is a snapshot: later cache mutations do not affect it. Snapshot writers
// use the MRU order so a capacity-truncated restore keeps the hottest
// keys.
func (c *Synthesizer) Export() []Entry {
	out := make([]Entry, 0, c.results.Len())
	c.results.Each(func(key string, res *core.Result) {
		out = append(out, Entry{Key: key, Res: res})
	})
	return out
}

// Stats returns a snapshot of the cache's counters and gauges.
func (c *Synthesizer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Coalesced: c.coalesced.Value(),
		Evictions: c.evictions.Value(),
		Entries:   c.results.Len(),
		InFlight:  len(c.inflight),
	}
}

// SetTracer attaches a tracer whose EvCache spans record the outcome of
// every request (hit, miss, coalesced). A nil tracer (the default)
// disables emission at zero cost. Safe to call concurrently with Synthesize;
// requests already past their outcome point keep the tracer they loaded.
func (c *Synthesizer) SetTracer(t *obs.Tracer) { c.tracer.Store(t) }

// traceOutcome emits one cache-outcome span. Nil-safe and free when no
// tracer is attached.
func (c *Synthesizer) traceOutcome(outcome string) {
	c.tracer.Load().Emit(obs.Span{Event: obs.EvCache, Outcome: outcome})
}

// RegisterMetrics exposes this cache instance's counters and gauges in reg
// under the sia_cache_* names. Each instance can register with at most one
// registry (a second registration of the same names fails with an
// error wrapping obs.ErrAlreadyRegistered).
func (c *Synthesizer) RegisterMetrics(reg *obs.Registry) error {
	type metric struct {
		name, help string
		fn         func() float64
		gauge      bool
	}
	inflight := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.inflight)
	}
	metrics := []metric{
		{"sia_cache_hits_total", "Requests answered from a stored entry.",
			func() float64 { return float64(c.hits.Value()) }, false},
		{"sia_cache_misses_total", "Requests that started a new CEGIS computation.",
			func() float64 { return float64(c.misses.Value()) }, false},
		{"sia_cache_coalesced_total", "Requests that joined an in-flight computation (singleflight savings).",
			func() float64 { return float64(c.coalesced.Value()) }, false},
		{"sia_cache_evictions_total", "Entries dropped by the LRU bound.",
			func() float64 { return float64(c.evictions.Value()) }, false},
		{"sia_cache_entries", "Current number of stored results.",
			func() float64 { return float64(c.results.Len()) }, true},
		{"sia_cache_inflight", "Current number of running computations.",
			func() float64 { return float64(inflight()) }, true},
	}
	for _, m := range metrics {
		var err error
		if m.gauge {
			err = reg.GaugeFunc(m.name, m.help, m.fn)
		} else {
			err = reg.CounterFunc(m.name, m.help, m.fn)
		}
		if err != nil {
			return fmt.Errorf("cache: register %s: %w", m.name, err)
		}
	}
	return nil
}
