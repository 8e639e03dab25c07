// Package core implements Sia's counter-example guided predicate synthesis
// (SIGMOD '21, §3 and §5): given a predicate p over columns Cols and a
// subset Cols' ⊆ Cols, it learns a predicate p₁ over only Cols' such that
// p ⟹ p₁ (a valid dimensionality reduction, Def. 2) and, when the loop
// converges, p₁ rejects every unsatisfaction tuple of p (optimal, Def. 3).
//
// The loop alternates:
//
//  1. sample generation — an SMT solver produces satisfaction tuples (TRUE
//     samples: restrictions to Cols' that extend to a p-satisfying tuple)
//     and unsatisfaction tuples (FALSE samples: restrictions no extension
//     of which satisfies p);
//  2. learning — a linear SVM separates the samples; the disjunction of as
//     many hyperplanes as needed classifies every TRUE sample correctly
//     (Alg. 2);
//  3. verification — the solver checks p ∧ ¬p₁ unsatisfiable under
//     three-valued logic; and
//  4. counter-example generation — TRUE counter-examples when p₁ is
//     invalid, FALSE counter-examples when p₁ is valid but possibly
//     sub-optimal.
package core

import (
	"fmt"
	"strings"
	"time"

	"sia/internal/obs"
)

// Options configures the synthesis loop. The zero value uses the paper's
// SIA configuration (Table 1).
type Options struct {
	// MaxIterations bounds the learning loop (paper: 41).
	MaxIterations int
	// InitialTrue and InitialFalse are the initial sample counts
	// (paper: 10 each).
	InitialTrue, InitialFalse int
	// SamplesPerIteration is the number of counter-examples added per
	// loop iteration (paper: 5).
	SamplesPerIteration int
	// MaxDenominator bounds the integer coefficient magnitudes used when
	// converting SVM weights to exact half-planes. Smaller values give
	// simpler predicates and much cheaper verification (Cooper's
	// elimination cost grows with coefficient LCMs). Default 8; at most
	// MaxDenominatorLimit.
	MaxDenominator int64
	// NonZeroSamples applies the paper's sampling heuristic that forces
	// generated values away from zero, which improves SVM conditioning
	// (§5.3 "Additional Heuristics"). If the heuristic makes sampling
	// infeasible it is dropped automatically.
	NonZeroSamples bool
	// SolverTimeout bounds each individual solver call; an expired call
	// behaves like a Z3 timeout (§6.2 recommends running Sia "with an
	// explicit timeout"). Default 2s.
	SolverTimeout time.Duration
	// Timeout bounds the whole synthesis; on expiry the best valid
	// predicate found so far is returned. Default 30s.
	Timeout time.Duration
	// Tracer, when set, records structured JSONL spans for every CEGIS
	// event (iterations, verify verdicts, counter-example batches, the
	// final outcome). A nil Tracer is free: the hot path performs no
	// allocations and no work. A non-nil Tracer makes a run uncacheable
	// (cache.KeyFor detects it).
	Tracer *obs.Tracer
}

// MaxDenominatorLimit is the largest MaxDenominator Validate accepts. Every
// SVM fit turns into 3 candidate planes per scale k = 1..MaxDenominator
// (svm.IntegerizePlane), each scored against every sample, with no solver
// call and so no poll of the context in between: the limit keeps one fit
// at 3 072 planes. It also keeps the learner's bound on plane constants,
// MaxDenominator·(len(cols)+2), far inside int64.
const MaxDenominatorLimit = 1024

// normalized fills in the defaults. The synthesis loop and Fingerprint both
// read options through it, so the two can never disagree on what the zero
// value means.
func (o Options) normalized() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 41
	}
	if o.InitialTrue == 0 {
		o.InitialTrue = 10
	}
	if o.InitialFalse == 0 {
		o.InitialFalse = 10
	}
	if o.SamplesPerIteration == 0 {
		o.SamplesPerIteration = 5
	}
	if o.MaxDenominator == 0 {
		o.MaxDenominator = 8
	}
	if o.SolverTimeout == 0 {
		o.SolverTimeout = 2 * time.Second
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// Validate rejects nonsensical configurations: any negative field, and a
// MaxDenominator above MaxDenominatorLimit. It returns nil or a single error
// matching ErrInvalidOptions that names every offending field. The zero
// value (and any field left zero) is always valid — zero means "use the
// default".
func (o Options) Validate() error {
	var bad []string
	if o.MaxIterations < 0 {
		bad = append(bad, "MaxIterations")
	}
	if o.InitialTrue < 0 {
		bad = append(bad, "InitialTrue")
	}
	if o.InitialFalse < 0 {
		bad = append(bad, "InitialFalse")
	}
	if o.SamplesPerIteration < 0 {
		bad = append(bad, "SamplesPerIteration")
	}
	if o.MaxDenominator < 0 {
		bad = append(bad, "MaxDenominator")
	}
	if o.SolverTimeout < 0 {
		bad = append(bad, "SolverTimeout")
	}
	if o.Timeout < 0 {
		bad = append(bad, "Timeout")
	}
	var problems []string
	if len(bad) > 0 {
		problems = append(problems, "negative "+strings.Join(bad, ", "))
	}
	if o.MaxDenominator > MaxDenominatorLimit {
		problems = append(problems, fmt.Sprintf("MaxDenominator %d above %d", o.MaxDenominator, MaxDenominatorLimit))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w: %s", ErrInvalidOptions, strings.Join(problems, "; "))
	}
	return nil
}

// Fingerprint returns a canonical string identifying every option that can
// influence a synthesis result, with defaults applied — two Options with
// equal fingerprints produce identical Results for the same (predicate,
// cols, schema) input. Tracer is deliberately excluded: a tracer makes a
// run uncacheable, which cache.KeyFor detects separately.
func (o Options) Fingerprint() string {
	n := o.normalized()
	return fmt.Sprintf("iters=%d|t0=%d|f0=%d|per=%d|maxden=%d|nonzero=%t|solvertimeout=%s|timeout=%s",
		n.MaxIterations, n.InitialTrue, n.InitialFalse, n.SamplesPerIteration,
		n.MaxDenominator, n.NonZeroSamples, n.SolverTimeout, n.Timeout)
}

// The paper's baseline configurations (Table 1).

// PresetSIA is the full counter-example guided configuration: at most 41
// iterations, 10+10 initial samples, 5 samples per iteration.
func PresetSIA() Options {
	return Options{MaxIterations: 41, InitialTrue: 10, InitialFalse: 10, SamplesPerIteration: 5}
}

// PresetSIAV1 is the non-iterative baseline with 110+110 initial samples —
// the same total sample budget SIA reaches at its final iteration.
func PresetSIAV1() Options {
	return Options{MaxIterations: 1, InitialTrue: 110, InitialFalse: 110, SamplesPerIteration: 5}
}

// PresetSIAV2 is the non-iterative baseline with twice SIA_v1's samples.
func PresetSIAV2() Options {
	return Options{MaxIterations: 1, InitialTrue: 220, InitialFalse: 220, SamplesPerIteration: 5}
}

// Timing breaks down where synthesis time went, mirroring Table 3's
// categories.
type Timing struct {
	// Generation is time spent obtaining initial samples and
	// counter-examples from the solver.
	Generation time.Duration
	// Learning is time spent training SVM models.
	Learning time.Duration
	// Validation is time spent verifying candidate predicates and
	// checking optimality.
	Validation time.Duration
}

// Add accumulates another timing into t.
func (t *Timing) Add(o Timing) {
	t.Generation += o.Generation
	t.Learning += o.Learning
	t.Validation += o.Validation
}

// Total returns the sum of all phases.
func (t Timing) Total() time.Duration { return t.Generation + t.Learning + t.Validation }
