package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sia/internal/predtest"
)

func TestSynthesisTimeout(t *testing.T) {
	s := intSchema("a1", "a2", "b1")
	p := predtest.MustParse("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", s)
	opts := Options{Timeout: time.Nanosecond}
	res, err := SynthesizeContext(context.Background(), p, []string{"a1", "a2"}, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.GaveUp != ReasonTimeout {
		t.Fatalf("expected timeout give-up, got %q (optimal=%v)", res.GaveUp, res.Optimal)
	}
	if res.Optimal {
		t.Fatal("a timed-out run cannot be optimal")
	}
}

// The loop's solver must get Options.SolverTimeout: with a 1 ns budget the
// first quantifier elimination is already past its deadline.
func TestSolverTimeoutWired(t *testing.T) {
	s := intSchema("a1", "a2", "b1")
	p := predtest.MustParse("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", s)
	opts := Options{SolverTimeout: time.Nanosecond}
	res, err := SynthesizeContext(context.Background(), p, []string{"a1", "a2"}, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.GaveUp != ReasonSolverBudget {
		t.Fatalf("expected solver-budget give-up, got %q (predicate=%v)", res.GaveUp, res.Predicate)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.normalized()
	if o.MaxIterations != 41 || o.InitialTrue != 10 || o.InitialFalse != 10 || o.SamplesPerIteration != 5 {
		t.Fatalf("paper defaults wrong: %+v", o)
	}
	if o.SolverTimeout != 2*time.Second || o.Timeout != 30*time.Second {
		t.Fatalf("timeout defaults wrong: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{MaxIterations: 7, InitialTrue: 3, InitialFalse: 4, SamplesPerIteration: 2}.normalized()
	if o2.MaxIterations != 7 || o2.InitialTrue != 3 || o2.InitialFalse != 4 || o2.SamplesPerIteration != 2 {
		t.Fatalf("explicit options overridden: %+v", o2)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options invalid: %v", err)
	}
	if err := (Options{MaxIterations: 10, Timeout: time.Second}).Validate(); err != nil {
		t.Fatalf("positive options invalid: %v", err)
	}
	bad := Options{MaxIterations: -1, InitialFalse: -3, SolverTimeout: -time.Second}
	err := bad.Validate()
	if err == nil {
		t.Fatal("negative options accepted")
	}
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("error %v does not match ErrInvalidOptions", err)
	}
	// One error names every offending field.
	for _, field := range []string{"MaxIterations", "InitialFalse", "SolverTimeout"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("error %q does not name %s", err, field)
		}
	}
	// MaxDenominator is capped as well as non-negative: 1024 is accepted,
	// and anything above it is rejected without running synthesis.
	if err := (Options{MaxDenominator: 1024}).Validate(); err != nil {
		t.Fatalf("MaxDenominator at the cap rejected: %v", err)
	}
	for _, md := range []int64{1025, 1 << 40} {
		if err := (Options{MaxDenominator: md}).Validate(); !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), "MaxDenominator") {
			t.Errorf("MaxDenominator %d: Validate = %v, want ErrInvalidOptions naming MaxDenominator", md, err)
		}
	}
	// SynthesizeContext rejects them before doing any work.
	s := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", s)
	if _, serr := SynthesizeContext(context.Background(), p, []string{"a"}, s, bad); !errors.Is(serr, ErrInvalidOptions) {
		t.Fatalf("SynthesizeContext error %v does not match ErrInvalidOptions", serr)
	}
}

func TestOptionsFingerprint(t *testing.T) {
	// Zero options and the explicit paper preset must agree: defaults are
	// applied before fingerprinting.
	if (Options{}).Fingerprint() != PresetSIA().Fingerprint() {
		t.Fatalf("zero vs preset fingerprints differ:\n%s\n%s",
			Options{}.Fingerprint(), PresetSIA().Fingerprint())
	}
	// Any numeric field must show up.
	if (Options{MaxIterations: 7}).Fingerprint() == (Options{}).Fingerprint() {
		t.Fatal("MaxIterations not fingerprinted")
	}
	// A zero SolverTimeout means the 2 s default.
	if (Options{SolverTimeout: 2 * time.Second}).Fingerprint() != (Options{}).Fingerprint() {
		t.Fatal("zero and explicit 2s SolverTimeout fingerprint differently")
	}
	// Cache keys embed the fingerprint, so its rendering must not drift.
	const presetSIA = "iters=41|t0=10|f0=10|per=5|maxden=8|nonzero=false|solvertimeout=2s|timeout=30s"
	if got := PresetSIA().Fingerprint(); got != presetSIA {
		t.Fatalf("PresetSIA fingerprint = %q, want %q", got, presetSIA)
	}
}

func TestTimingAccumulation(t *testing.T) {
	var tt Timing
	tt.Add(Timing{Generation: time.Second, Learning: 2 * time.Second, Validation: 3 * time.Second})
	tt.Add(Timing{Generation: time.Second})
	if tt.Generation != 2*time.Second || tt.Learning != 2*time.Second || tt.Validation != 3*time.Second {
		t.Fatalf("Add wrong: %+v", tt)
	}
	if tt.Total() != 7*time.Second {
		t.Fatalf("Total = %v", tt.Total())
	}
}
