package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"sia/internal/obs"
	"sia/internal/predicate"
	"sia/internal/smt"
)

// GiveUpReason explains why synthesis stopped before proving optimality.
type GiveUpReason string

const (
	// ReasonNone: the loop converged to an optimal predicate.
	ReasonNone GiveUpReason = ""
	// ReasonNoUnsatTuples: no unsatisfaction tuple exists, so the only
	// valid optimal reduction is the trivial TRUE — nothing to push down.
	ReasonNoUnsatTuples GiveUpReason = "no-unsat-tuples"
	// ReasonMaxIterations: the iteration budget ran out (§5.1, line 3).
	ReasonMaxIterations GiveUpReason = "max-iterations"
	// ReasonNotSeparable: the samples are not separable by a disjunction
	// of half-planes the learner can find (§6.7's limitation).
	ReasonNotSeparable GiveUpReason = "not-separable"
	// ReasonSolverBudget: the solver exceeded its elimination budget (the
	// analogue of a Z3 timeout).
	ReasonSolverBudget GiveUpReason = "solver-budget"
	// ReasonNullCounterexamples: the candidate fails validation only on
	// tuples containing NULLs, which cannot become training samples.
	ReasonNullCounterexamples GiveUpReason = "null-only-counterexamples"
	// ReasonTimeout: the synthesis wall-clock budget (Options.Timeout)
	// expired; the best valid predicate found so far is returned.
	ReasonTimeout GiveUpReason = "timeout"
)

// Result is the outcome of one synthesis run.
type Result struct {
	// Predicate is the synthesized valid predicate over the target
	// columns, or nil when only the trivial TRUE predicate is valid
	// (the paper's "returns NULL" case).
	Predicate predicate.Predicate
	// Valid reports whether Predicate is a proven valid reduction.
	Valid bool
	// Optimal reports whether Predicate was proven optimal (no remaining
	// unsatisfaction tuple is accepted, Lemma 4).
	Optimal bool
	// Iterations is the number of learning-loop iterations executed.
	Iterations int
	// TrueSamples and FalseSamples are the final training-set sizes.
	TrueSamples, FalseSamples int
	// Timing breaks down synthesis time (Table 3's categories).
	Timing Timing
	// GaveUp explains early termination (empty when Optimal).
	GaveUp GiveUpReason
}

// SymbolicallyRelevant reports whether an unsatisfaction tuple exists for p
// with respect to cols — the §6.2 case-study test: only then can a
// non-trivial valid reduction exist (Lemma 4), making the query worth
// handing to the full synthesis loop. Cancelling ctx aborts the check with
// an error matching ErrTimeout.
func SymbolicallyRelevant(ctx context.Context, p predicate.Predicate, cols []string, schema *predicate.Schema) (bool, error) {
	enc := newEncoder(schema)
	rewritten, err := enc.rewriteNonLinear(p)
	if err != nil {
		return false, err
	}
	pf, err := enc.Encode(rewritten)
	if err != nil {
		return false, err
	}
	smp, err := newSampler(ctx, smt.New(), enc, pf, cols, Options{}.normalized())
	if err != nil {
		return false, publicErr(err)
	}
	ok, err := smp.hasUnsatTuple(ctx)
	return ok, publicErr(err)
}

// SynthesizeContext runs Alg. 1: it learns a valid (and, when the loop
// converges, optimal) predicate over cols that is implied by p. The schema
// supplies column types and nullability; cols must be a subset of p's
// columns.
//
// Cancelling ctx (or passing a context whose deadline expires) aborts
// synthesis within one solver call and returns an error matching ErrTimeout
// — distinct from the internal Options.Timeout budget, whose expiry returns
// the best predicate found so far with a nil error.
func SynthesizeContext(ctx context.Context, p predicate.Predicate, cols []string, schema *predicate.Schema, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	mRuns.Inc()
	start := time.Now()
	if opts.Tracer.Enabled() {
		opts.Tracer.Emit(obs.Span{Event: obs.EvSynthesisStart, Pred: p.String(), Cols: strings.Join(cols, ",")})
	}
	res, err := synthesizeContext(ctx, p, cols, schema, opts)
	recordRun(res, time.Since(start), err)
	traceDone(opts.Tracer, res, err)
	return res, err
}

// synthesizeContext is SynthesizeContext after option validation and
// instrumentation: the actual Alg. 1 driver.
func synthesizeContext(ctx context.Context, p predicate.Predicate, cols []string, schema *predicate.Schema, opts Options) (*Result, error) {
	opts = opts.normalized()
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: no target columns given", ErrInvalidOptions)
	}
	pcols := map[string]bool{}
	for _, c := range predicate.Columns(p) {
		pcols[c] = true
	}
	for _, c := range cols {
		if !pcols[c] {
			return nil, fmt.Errorf("%w: column %q does not occur in the predicate", ErrInvalidOptions, c)
		}
	}

	enc := newEncoder(schema)
	rewritten, err := enc.rewriteNonLinear(p)
	if err != nil {
		return nil, err
	}
	// A requested column absorbed into a virtual column cannot appear in
	// the synthesized predicate.
	for _, c := range cols {
		if enc.virtualCols[c] {
			return nil, fmt.Errorf("%w: column %q only occurs inside a non-linear term", ErrUnsupported, c)
		}
	}
	pf, err := enc.Encode(rewritten)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	start := time.Now()
	// Tracing flows through to the solver so qe_memo hit/miss spans land in
	// the same trace as the CEGIS events.
	solver := &smt.Solver{Timeout: opts.SolverTimeout, Tracer: opts.Tracer}
	smp, err := newSampler(ctx, solver, enc, pf, cols, opts)
	res.Timing.Generation += time.Since(start)
	if err != nil {
		if errors.Is(err, smt.ErrBudget) {
			res.GaveUp = ReasonSolverBudget
			return res, nil
		}
		return nil, publicErr(err)
	}

	loop := &synthesisLoop{
		ctx:     ctx,
		opts:    opts,
		enc:     enc,
		schema:  schema,
		sampler: smp,
		learner: &learner{space: smp.space, schema: schema, opts: opts, sampler: smp},
		res:     res,
	}
	if err := loop.run(rewritten); err != nil {
		return nil, publicErr(err)
	}
	return res, nil
}

// verdictString renders a verification verdict without allocating.
func verdictString(valid bool) string {
	if valid {
		return "valid"
	}
	return "invalid"
}

// traceDone emits the synthesis_done span summarizing a finished run.
func traceDone(t *obs.Tracer, res *Result, err error) {
	if !t.Enabled() {
		return
	}
	s := obs.Span{Event: obs.EvSynthesisDone}
	if err != nil {
		s.Err = err.Error()
		t.Emit(s)
		return
	}
	s.Iter = res.Iterations
	s.TrueSamples = res.TrueSamples
	s.FalseSamples = res.FalseSamples
	s.Verdict = verdictString(res.Valid)
	s.Optimal = res.Optimal
	s.GaveUp = string(res.GaveUp)
	s.Gen = res.Timing.Generation
	s.Learn = res.Timing.Learning
	s.Validate = res.Timing.Validation
	if res.Predicate != nil {
		s.Pred = res.Predicate.String()
	}
	t.Emit(s)
}

type synthesisLoop struct {
	ctx     context.Context
	opts    Options
	enc     *encoder
	schema  *predicate.Schema
	sampler *sampler
	learner *learner
	res     *Result

	ts, fs []Sample
}

// The trace helpers below are nil-safe and allocation-free when tracing is
// off: they build the span from values already at hand and never format
// strings. Predicate rendering stays behind Enabled() at the call sites.

// traceSamples records an initial sample-generation batch.
func (l *synthesisLoop) traceSamples(kind string, count int, exhausted bool, dur time.Duration) {
	l.opts.Tracer.Emit(obs.Span{Event: obs.EvSamples, Kind: kind, Count: count, Exhausted: exhausted, Dur: dur})
}

// traceIteration records one SVM fit: training-set sizes and plane count.
func (l *synthesisLoop) traceIteration(iter, planes int, dur time.Duration) {
	l.opts.Tracer.Emit(obs.Span{Event: obs.EvIteration, Iter: iter,
		TrueSamples: len(l.ts), FalseSamples: len(l.fs), Planes: planes, Dur: dur})
}

// traceVerify records a verification verdict for one candidate.
func (l *synthesisLoop) traceVerify(iter int, valid bool, dur time.Duration) {
	l.opts.Tracer.Emit(obs.Span{Event: obs.EvVerify, Iter: iter, Verdict: verdictString(valid), Dur: dur})
}

// traceCounterexamples records a counter-example batch of the given kind.
func (l *synthesisLoop) traceCounterexamples(iter int, kind string, count int, exhausted bool, dur time.Duration) {
	l.opts.Tracer.Emit(obs.Span{Event: obs.EvCounterexamples, Iter: iter,
		Kind: kind, Count: count, Exhausted: exhausted, Dur: dur})
}

func (l *synthesisLoop) run(p predicate.Predicate) error {
	res := l.res

	// Symbolic relevance check: without an unsatisfaction tuple there is
	// nothing a non-trivial valid predicate could reject (Lemma 4).
	start := time.Now()
	relevant, err := l.sampler.hasUnsatTuple(l.ctx)
	res.Timing.Generation += time.Since(start)
	if err != nil {
		return l.giveUp(err)
	}
	if !relevant {
		res.GaveUp = ReasonNoUnsatTuples
		return nil
	}

	// Initial samples (§5.3).
	start = time.Now()
	ts, tExhausted, err := l.sampler.trueSamples(l.ctx, l.opts.InitialTrue, nil)
	dur := time.Since(start)
	res.Timing.Generation += dur
	if err != nil {
		return l.giveUp(err)
	}
	l.traceSamples("true", len(ts), tExhausted, dur)
	if tExhausted {
		// The satisfaction tuples over cols form a finite set that has
		// been fully enumerated: the strongest valid predicate is the
		// disjunction of equalities with the TRUE samples (§5.3).
		res.Predicate = l.equalityDisjunction(ts, false)
		res.Valid, res.Optimal = true, true
		res.TrueSamples = len(ts)
		return nil
	}
	l.ts = ts

	start = time.Now()
	fs, fExhausted, err := l.sampler.falseSamples(l.ctx, l.opts.InitialFalse, nil)
	dur = time.Since(start)
	res.Timing.Generation += dur
	if err != nil {
		return l.giveUp(err)
	}
	l.traceSamples("false", len(fs), fExhausted, dur)
	if fExhausted {
		// All unsatisfaction tuples are known: their complement is
		// exactly the set of feasible restrictions, i.e. the optimal
		// valid predicate (Lemmas 3 and 4).
		res.Predicate = l.equalityDisjunction(fs, true)
		res.Valid, res.Optimal = true, true
		res.TrueSamples, res.FalseSamples = len(ts), len(fs)
		return nil
	}
	l.fs = fs

	start = time.Now()
	ver, err := newVerifier(l.sampler.solver, l.enc, p)
	res.Timing.Validation += time.Since(start)
	if err != nil {
		return err
	}

	// The accumulated valid predicate is a conjunction of proven-valid
	// candidates (Lemma 2), kept as separate conjuncts so that a tighter
	// plane learned later can evict the looser planes it subsumes.
	type validConjunct struct {
		pred predicate.Predicate
		f    smt.Formula
	}
	var conjuncts []validConjunct
	validPred := func() predicate.Predicate {
		ps := make([]predicate.Predicate, len(conjuncts))
		for i, c := range conjuncts {
			ps[i] = c.pred
		}
		return predicate.NewAnd(ps...)
	}
	validFormula := func() smt.Formula {
		fs := make([]smt.Formula, len(conjuncts))
		for i, c := range conjuncts {
			fs[i] = c.f
		}
		return smt.NewAnd(fs...)
	}

	// prune drops every conjunct implied by the conjunction of the
	// others, so the final predicate is minimal (pairwise eviction during
	// the loop cannot catch conjuncts subsumed by a *combination* of
	// later ones, e.g. a1 < 71 once a1 - a2 < 29 and a2 < 19 both hold).
	prune := func() error {
		for i := 0; i < len(conjuncts); i++ {
			rest := make([]smt.Formula, 0, len(conjuncts)-1)
			for j, c := range conjuncts {
				if j != i {
					rest = append(rest, c.f)
				}
			}
			needed, err := l.sampler.solver.SatisfiableCtx(l.ctx, smt.NewAnd(smt.NewAnd(rest...), smt.NewNot(conjuncts[i].f)))
			if errors.Is(err, smt.ErrInterrupted) {
				return err
			}
			if err == nil && !needed {
				conjuncts = append(conjuncts[:i], conjuncts[i+1:]...)
				i--
			}
		}
		return nil
	}

	// finish ends the run with the best predicate found so far. Its error
	// is prune's: the caller walked away while the predicate was pruned.
	finish := func(reason GiveUpReason) error {
		res.GaveUp = reason
		if len(conjuncts) > 0 {
			if err := prune(); err != nil {
				return err
			}
			res.Predicate = validPred()
			res.Valid = true
		}
		res.TrueSamples, res.FalseSamples = len(l.ts), len(l.fs)
		return nil
	}

	loopStart := time.Now()
	for iter := 0; iter < l.opts.MaxIterations; iter++ {
		// The caller walking away is an error (ErrTimeout); the internal
		// wall-clock budget expiring is a graceful partial result.
		if err := l.ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrTimeout, err)
		}
		if time.Since(loopStart) > l.opts.Timeout {
			return finish(ReasonTimeout)
		}
		res.Iterations = iter + 1

		start = time.Now()
		lr, err := l.learner.Learn(l.ts, l.fs)
		dur = time.Since(start)
		res.Timing.Learning += dur
		if errors.Is(err, errNotSeparable) {
			return finish(ReasonNotSeparable)
		}
		if err != nil {
			return err
		}
		l.traceIteration(iter+1, len(lr.planes), dur)
		candidate := lr.predicate(l.sampler.space, l.schema)

		start = time.Now()
		valid, err := ver.Verify(l.ctx, candidate)
		dur = time.Since(start)
		res.Timing.Validation += dur
		if err != nil {
			return l.giveUpWith(err, finish)
		}
		l.traceVerify(iter+1, valid, dur)

		candFormula, err := l.enc.Encode(candidate)
		if err != nil {
			return err
		}

		if valid {
			// Strengthen: conjoin with everything proven valid so far
			// (Lemma 2: validity is closed under conjunction) — unless the
			// accumulated predicate already implies the candidate, in
			// which case conjoining would only bloat the result and every
			// downstream solver query. Symmetrically, a new candidate that
			// implies an existing conjunct makes that conjunct redundant,
			// so it is evicted.
			start = time.Now()
			useful, err := l.sampler.solver.SatisfiableCtx(l.ctx, smt.NewAnd(validFormula(), smt.NewNot(candFormula)))
			if err == nil && useful {
				kept := conjuncts[:0]
				for _, c := range conjuncts {
					redundant, cerr := l.sampler.solver.SatisfiableCtx(l.ctx, smt.NewAnd(candFormula, smt.NewNot(c.f)))
					if cerr != nil {
						err = cerr
						break
					}
					if redundant {
						kept = append(kept, c)
					}
				}
				if err == nil {
					conjuncts = append(kept, validConjunct{pred: candidate, f: candFormula})
				}
			}
			res.Timing.Validation += time.Since(start)
			if err != nil {
				return l.giveUpWith(err, finish)
			}

			start = time.Now()
			fs1, exhausted, err := l.sampler.counterFalse(l.ctx, validFormula(), l.opts.SamplesPerIteration, l.fs)
			dur = time.Since(start)
			res.Timing.Generation += dur
			if err != nil {
				return l.giveUpWith(err, finish)
			}
			l.traceCounterexamples(iter+1, "false", len(fs1), exhausted, dur)
			if len(fs1) == 0 && exhausted {
				// No unsatisfaction tuple is accepted: optimal (Lemma 4).
				if err := prune(); err != nil {
					return err
				}
				res.Predicate = validPred()
				res.Valid, res.Optimal = true, true
				res.TrueSamples, res.FalseSamples = len(l.ts), len(l.fs)
				return nil
			}
			l.fs = append(l.fs, fs1...)
		} else {
			start = time.Now()
			l.learner.noteInvalid(l.ctx, lr)
			ts1, err := l.sampler.counterTrue(l.ctx, candFormula, l.opts.SamplesPerIteration, l.ts)
			dur = time.Since(start)
			res.Timing.Generation += dur
			if err != nil {
				return l.giveUpWith(err, finish)
			}
			l.traceCounterexamples(iter+1, "true", len(ts1), false, dur)
			if len(ts1) == 0 {
				// Validation failed, yet no concrete (NULL-free)
				// counter-example exists: the candidate only misbehaves
				// on NULL-carrying tuples, which cannot be encoded as
				// training samples.
				return finish(ReasonNullCounterexamples)
			}
			l.ts = append(l.ts, ts1...)
		}
	}
	return finish(ReasonMaxIterations)
}

// giveUp converts solver budget exhaustion into a clean non-result.
func (l *synthesisLoop) giveUp(err error) error {
	if errors.Is(err, smt.ErrBudget) {
		l.res.GaveUp = ReasonSolverBudget
		l.res.TrueSamples, l.res.FalseSamples = len(l.ts), len(l.fs)
		return nil
	}
	return err
}

// giveUpWith additionally preserves the best valid predicate found so far.
func (l *synthesisLoop) giveUpWith(err error, finish func(GiveUpReason) error) error {
	if errors.Is(err, smt.ErrBudget) {
		return finish(ReasonSolverBudget)
	}
	return err
}

// equalityDisjunction builds ⋁ over samples of (col₁ = v₁ ∧ … ∧ colₖ = vₖ),
// negated when negate is set (used for the finite FALSE-set case).
func (l *synthesisLoop) equalityDisjunction(samples []Sample, negate bool) predicate.Predicate {
	var disjuncts []predicate.Predicate
	for _, s := range samples {
		var eqs []predicate.Predicate
		for i, col := range l.sampler.space.Cols {
			typ := predicate.TypeInteger
			if l.schema != nil {
				if c, ok := l.schema.Lookup(col); ok {
					typ = c.Type
				}
			}
			val := ratToValue(s.Vals[i], typ)
			eqs = append(eqs, predicate.Cmp(predicate.CmpEQ, predicate.Col(col, typ), &predicate.Const{Val: val, Type: typ}))
		}
		disjuncts = append(disjuncts, predicate.NewAnd(eqs...))
	}
	d := predicate.NewOr(disjuncts...)
	if negate {
		return predicate.NewNot(d)
	}
	return d
}
