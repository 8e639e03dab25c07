// Package solver is the known-bad corpus for the cancel-poll analyzer:
// while-style loops with at least one poll-free cycle.
package solver

import "context"

// S mimics the SMT solver's stop plumbing.
type S struct{ stopped bool }

func (s *S) checkStop() error {
	if s.stopped {
		return context.Canceled
	}
	return nil
}

func step(n int) int { return n / 2 }

// NeverPolls has no poll anywhere. Must be flagged.
func NeverPolls(n int) int {
	for n > 1 {
		n = step(n)
	}
	return n
}

// PollsOnOnePathOnly polls only when n is even: the odd cycle is poll-free,
// which is exactly the path-sensitive case a lexical scan would miss. Must
// be flagged.
func PollsOnOnePathOnly(s *S, n int) error {
	for {
		if n%2 == 0 {
			if err := s.checkStop(); err != nil {
				return err
			}
		}
		n = step(n) + 1
		if n == 1 {
			return nil
		}
	}
}

// PollInClosureDoesNotCount queues the poll in a closure that this loop
// never runs. Must be flagged.
func PollInClosureDoesNotCount(s *S, n int) func() error {
	var poll func() error
	for n > 1 {
		poll = func() error { return s.checkStop() }
		n = step(n)
	}
	return poll
}

// Tracer mimics internal/obs: Emit records a span and is NOT a poll.
type Tracer struct{ n int }

func (t *Tracer) Emit(event string) { t.n++ }

// TracesButNeverPolls emits a span every cycle but never polls: observing
// a loop is not the same as being able to stop it. Must be flagged.
func TracesButNeverPolls(t *Tracer, n int) int {
	for n > 1 {
		t.Emit("iteration")
		n = step(n)
	}
	return n
}

// MentionsMarkerMidSentence has a comment that merely contains "cancel:"
// inside a sentence. An escape must lead its comment line; this one
// justifies nothing. Must be flagged.
func MentionsMarkerMidSentence(n int) int {
	// TODO: make the caller cancel: this loop can run long
	for n > 1 {
		n = step(n)
	}
	return n
}

// BareMarker writes the marker with no reason after it. Escapes are forced
// articulations, not silencers. Must be flagged.
func BareMarker(n int) int {
	// cancel:
	for n > 1 {
		n = step(n)
	}
	return n
}
