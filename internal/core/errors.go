package core

import (
	"errors"
	"fmt"

	"sia/internal/smt"
)

// Sentinel errors of the synthesis API. Every error returned by the public
// surface either is nil or matches (errors.Is) one of these, ErrUnsupported
// (see encode.go), or wraps a lower-layer failure that is a genuine bug.
var (
	// ErrTimeout is returned when the caller's context is cancelled or its
	// deadline passes during synthesis. The concrete error also wraps the
	// context's own error, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) work too. Note the internal
	// wall-clock budget (Options.Timeout) does NOT produce this error: its
	// expiry returns the best valid predicate found so far with
	// Result.GaveUp == ReasonTimeout and a nil error.
	ErrTimeout = errors.New("sia: synthesis cancelled")

	// ErrBudget is returned when the SMT solver's per-call budget is
	// exhausted in a phase that cannot recover by giving up gracefully
	// (e.g. VerifyReductionContext). It wraps smt.ErrBudget, so callers holding
	// only the internal solver error still match.
	ErrBudget = fmt.Errorf("sia: solver budget exhausted: %w", smt.ErrBudget)

	// ErrInvalidOptions is returned for a nonsensical request: negative
	// Options fields, a MaxDenominator above MaxDenominatorLimit, an empty
	// target column set, or target columns that do not occur in the
	// predicate.
	ErrInvalidOptions = errors.New("sia: invalid options")
)

// publicErr converts internal solver errors into the public sentinels:
// context cancellation becomes ErrTimeout, budget exhaustion becomes
// ErrBudget. Other errors pass through unchanged.
func publicErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, smt.ErrInterrupted):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	case errors.Is(err, ErrBudget):
		return err
	case errors.Is(err, smt.ErrBudget):
		return fmt.Errorf("%w: %s", ErrBudget, err)
	default:
		return err
	}
}
