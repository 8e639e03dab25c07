package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Trace event names. One synthesis run emits one EvSynthesisStart, then per
// CEGIS iteration one EvIteration (fit stats), one EvVerify (verdict) and
// usually one EvCounterexamples (sample generation), and finally one
// EvSynthesisDone carrying the outcome and the Table-3 timing breakdown.
// EvSamples covers the initial sample generation before the loop;
// EvCache is emitted by the result cache for hit/miss/coalesce outcomes.
// EvQEMemo is emitted by the SMT solver's quantifier-elimination memo for
// each outermost elimination, with Outcome "hit" or "miss".
const (
	EvSynthesisStart  = "synthesis_start"
	EvSamples         = "samples"
	EvIteration       = "iteration"
	EvVerify          = "verify"
	EvCounterexamples = "counterexamples"
	EvSynthesisDone   = "synthesis_done"
	EvCache           = "cache"
	EvQEMemo          = "qe_memo"
)

// Span is one trace event. Event is required; every other field is emitted
// only when non-zero, so each event kind pays for exactly the fields it
// sets. Emit stamps the monotonic timestamp and sequence number.
type Span struct {
	// Event is the event name (one of the Ev constants).
	Event string
	// Iter is the 1-based CEGIS iteration, when the event belongs to one.
	Iter int
	// TrueSamples and FalseSamples are training-set sizes.
	TrueSamples, FalseSamples int
	// Planes is the number of half-planes in the fitted SVM disjunction.
	Planes int
	// Verdict is "valid" or "invalid" for verify events, and the final
	// validity for synthesis_done.
	Verdict string
	// Kind distinguishes sample kinds: "true" or "false".
	Kind string
	// Count is a generated-sample count.
	Count int
	// Exhausted marks a sample space proven fully enumerated.
	Exhausted bool
	// Optimal marks a synthesis_done whose predicate was proven optimal.
	Optimal bool
	// GaveUp is the core.GiveUpReason string for early termination.
	GaveUp string
	// Outcome is the cache outcome: "hit", "miss" or "coalesced".
	Outcome string
	// Pred is a predicate in SQL syntax (candidate or result). Callers
	// should build it only when Enabled() — String() allocates.
	Pred string
	// Cols is the comma-joined target column set.
	Cols string
	// Err is an error message.
	Err string
	// Dur is the duration of the step the event describes.
	Dur time.Duration
	// Gen, Learn and Validate are the Table-3 phase totals, on
	// synthesis_done events.
	Gen, Learn, Validate time.Duration
}

// Tracer records Spans as JSON lines on an io.Writer: one object per line,
// timestamps in microseconds measured on the monotonic clock since the
// tracer was created, and a per-tracer sequence number so merged traces
// remain sortable. All methods are nil-safe and safe for concurrent use;
// a nil *Tracer is the canonical "tracing off" value and its Emit performs
// no work and no allocations.
//
// Writes are buffered. A background goroutine flushes the buffer every
// flushInterval so a long-running trace is readable while the process
// lives; Close stops that goroutine, flushes, and reports the first write
// error. Close does not close the underlying writer.
type Tracer struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	buf   []byte
	seq   uint64
	err   error
	start time.Time

	done chan struct{}
	wg   sync.WaitGroup
}

const flushInterval = 500 * time.Millisecond

// NewTracer returns a tracer writing JSONL spans to w.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{
		bw:    bufio.NewWriterSize(w, 1<<16),
		buf:   make([]byte, 0, 512),
		start: time.Now(),
		done:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.flushLoop()
	return t
}

// flushLoop periodically flushes the write buffer until Close.
func (t *Tracer) flushLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-ticker.C:
			t.mu.Lock()
			if ferr := t.bw.Flush(); ferr != nil && t.err == nil {
				t.err = ferr
			}
			t.mu.Unlock()
		}
	}
}

// Enabled reports whether spans are being recorded. Call it before
// building expensive span fields (predicate strings, joined column lists).
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one span. On a nil tracer it is a no-op that performs zero
// allocations, so call sites on hot paths need no separate guard.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	us := time.Since(t.start).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	b := t.buf[:0]
	b = append(b, `{"event":`...)
	b = appendJSONString(b, s.Event)
	b = appendIntField(b, "seq", int64(t.seq))
	b = appendIntField(b, "t_us", us)
	if s.Iter != 0 {
		b = appendIntField(b, "iter", int64(s.Iter))
	}
	if s.TrueSamples != 0 {
		b = appendIntField(b, "true_samples", int64(s.TrueSamples))
	}
	if s.FalseSamples != 0 {
		b = appendIntField(b, "false_samples", int64(s.FalseSamples))
	}
	if s.Planes != 0 {
		b = appendIntField(b, "planes", int64(s.Planes))
	}
	if s.Verdict != "" {
		b = appendStringField(b, "verdict", s.Verdict)
	}
	if s.Kind != "" {
		b = appendStringField(b, "kind", s.Kind)
	}
	if s.Count != 0 {
		b = appendIntField(b, "count", int64(s.Count))
	}
	if s.Exhausted {
		b = append(b, `,"exhausted":true`...)
	}
	if s.Optimal {
		b = append(b, `,"optimal":true`...)
	}
	if s.GaveUp != "" {
		b = appendStringField(b, "gave_up", s.GaveUp)
	}
	if s.Outcome != "" {
		b = appendStringField(b, "outcome", s.Outcome)
	}
	if s.Pred != "" {
		b = appendStringField(b, "pred", s.Pred)
	}
	if s.Cols != "" {
		b = appendStringField(b, "cols", s.Cols)
	}
	if s.Err != "" {
		b = appendStringField(b, "err", s.Err)
	}
	if s.Dur != 0 {
		b = appendIntField(b, "dur_us", s.Dur.Microseconds())
	}
	if s.Gen != 0 {
		b = appendIntField(b, "gen_us", s.Gen.Microseconds())
	}
	if s.Learn != 0 {
		b = appendIntField(b, "learn_us", s.Learn.Microseconds())
	}
	if s.Validate != 0 {
		b = appendIntField(b, "validate_us", s.Validate.Microseconds())
	}
	b = append(b, '}', '\n')
	t.buf = b
	if _, werr := t.bw.Write(b); werr != nil && t.err == nil {
		t.err = werr
	}
}

// Flush forces buffered spans to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ferr := t.bw.Flush(); ferr != nil && t.err == nil {
		t.err = ferr
	}
	return t.err
}

// Close stops the background flusher, flushes buffered spans, and returns
// the first write error encountered over the tracer's lifetime. It does
// not close the underlying writer. Close is idempotent on a nil tracer
// only; a non-nil tracer must be closed once.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	close(t.done)
	t.wg.Wait()
	return t.Flush()
}

// appendIntField appends `,"key":v`.
func appendIntField(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

// appendStringField appends `,"key":"escaped v"`.
func appendStringField(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return appendJSONString(b, v)
}

// appendJSONString appends v as a JSON string literal, escaping quotes,
// backslashes and control characters. Valid UTF-8 passes through.
func appendJSONString(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); {
		c := v[i]
		switch {
		case c == '"':
			b = append(b, '\\', '"')
			i++
		case c == '\\':
			b = append(b, '\\', '\\')
			i++
		case c == '\n':
			b = append(b, '\\', 'n')
			i++
		case c == '\r':
			b = append(b, '\\', 'r')
			i++
		case c == '\t':
			b = append(b, '\\', 't')
			i++
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			i++
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(v[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
				i++
				break
			}
			b = append(b, v[i:i+size]...)
			i += size
		}
	}
	return append(b, '"')
}
