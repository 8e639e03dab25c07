package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"sia/internal/smt"
)

// Sample is one training tuple: concrete values for the target column set,
// in the order of sampleSpace.Cols.
type Sample struct {
	Vals []*big.Rat
}

// Key returns a canonical string identity for deduplication.
func (s Sample) Key() string {
	key := ""
	for _, v := range s.Vals {
		key += v.RatString() + "|"
	}
	return key
}

// Features converts the sample to an SVM feature vector.
func (s Sample) Features() []float64 {
	out := make([]float64, len(s.Vals))
	for i, v := range s.Vals {
		out[i], _ = v.Float64()
	}
	return out
}

// sampleSpace fixes the target column set (sorted) and the SMT variables
// standing for those columns.
type sampleSpace struct {
	Cols []string
	Vars []smt.Var
}

func newSampleSpace(e *encoder, cols []string) sampleSpace {
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	vars := make([]smt.Var, len(sorted))
	for i, c := range sorted {
		vars[i] = e.colVar(c)
	}
	return sampleSpace{Cols: sorted, Vars: vars}
}

// blockSample returns the weak (tuple-level) NotOld clause for one sample:
// ¬(col₁ = v₁ ∧ … ∧ colₖ = vₖ), which forces the solver to produce a model
// differing from the sample in at least one column.
func (sp sampleSpace) blockSample(s Sample) smt.Formula {
	eqs := make([]smt.Formula, len(sp.Vars))
	for i, v := range sp.Vars {
		eqs[i] = smt.EQ(smt.VarTerm(v), smt.NewTerm(s.Vals[i]))
	}
	return smt.NewNot(smt.NewAnd(eqs...))
}

// notOld conjoins tuple-level blocking clauses for every known sample. The
// paper's strong per-column NotOld (§5.3) is applied in code instead, by
// enumerate's fresh filter, so it never enters a solver query.
func (sp sampleSpace) notOld(samples []Sample) smt.Formula {
	fs := make([]smt.Formula, len(samples))
	for i, s := range samples {
		fs[i] = sp.blockSample(s)
	}
	return smt.NewAnd(fs...)
}

// nonZeroHeuristic is the paper's sampling heuristic: generated values are
// pushed away from zero, which keeps the SVM's training samples informative.
func (sp sampleSpace) nonZeroHeuristic() smt.Formula {
	fs := make([]smt.Formula, len(sp.Vars))
	for i, v := range sp.Vars {
		fs[i] = smt.NE(smt.VarTerm(v), smt.ConstTerm(0))
	}
	return smt.NewAnd(fs...)
}

// extractSample reads the sample-space values out of a solver model.
func (sp sampleSpace) extractSample(m smt.Model) Sample {
	vals := make([]*big.Rat, len(sp.Vars))
	for i, v := range sp.Vars {
		if r, ok := m[v]; ok {
			vals[i] = new(big.Rat).Set(r)
		} else {
			vals[i] = new(big.Rat)
		}
	}
	return Sample{Vals: vals}
}

// sampler generates satisfaction and unsatisfaction tuples for a predicate
// and a target column set using the solver (§5.3).
type sampler struct {
	solver *smt.Solver
	space  sampleSpace
	// satBase is ∃(other columns). p, quantifier-eliminated once; its
	// models over Cols' are exactly the feasible restrictions (Def. 4),
	// i.e. the TRUE samples. Projecting once keeps every subsequent model
	// query over only |Cols'| variables.
	satBase smt.Formula
	// unsatBase is ∀(other columns). ¬p, quantifier-eliminated once; its
	// models are FALSE samples (unsatisfaction tuples).
	unsatBase smt.Formula
	// heuristic is conjoined when enabled and dropped on infeasibility.
	heuristic smt.Formula
}

// newSampler builds a sampler for predicate formula pf whose free variables
// are p's columns; cols is the target subset.
func newSampler(ctx context.Context, solver *smt.Solver, e *encoder, pf smt.Formula, cols []string, opts Options) (*sampler, error) {
	space := newSampleSpace(e, cols)
	inCols := map[smt.Var]bool{}
	for _, v := range space.Vars {
		inCols[v] = true
	}
	// ∀ col ∉ Cols'. ¬p — the unsatisfaction-tuple condition (Def. 4) —
	// and its complement ∃ col ∉ Cols'. p, the feasible restrictions.
	unsat := smt.Formula(smt.NewNot(pf))
	sat := pf
	for _, v := range smt.FreeVars(pf) {
		if !inCols[v] {
			unsat = &smt.ForAll{V: v, F: unsat}
			sat = &smt.Exists{V: v, F: sat}
		}
	}
	unsatQF, err := solver.QECtx(ctx, unsat)
	if err != nil {
		return nil, fmt.Errorf("sia: eliminating quantifiers for unsatisfaction tuples: %w", err)
	}
	satQF, err := solver.QECtx(ctx, sat)
	if err != nil {
		return nil, fmt.Errorf("sia: projecting the predicate onto %v: %w", cols, err)
	}
	s := &sampler{
		solver:    solver,
		space:     space,
		satBase:   smt.Simplify(satQF),
		unsatBase: smt.Simplify(unsatQF),
		heuristic: smt.Bool(true),
	}
	if opts.NonZeroSamples {
		s.heuristic = space.nonZeroHeuristic()
	}
	return s, nil
}

// hasUnsatTuple reports whether any unsatisfaction tuple exists at all. If
// none does, the only valid optimal reduction is TRUE and synthesis is
// pointless (the query is not "symbolically relevant", §6.2).
func (s *sampler) hasUnsatTuple(ctx context.Context) (bool, error) {
	return s.solver.SatisfiableCtx(ctx, s.unsatBase)
}

// trueSamples generates up to n new TRUE samples distinct from known. The
// returned exhausted flag is set when every satisfaction tuple has been
// enumerated (§5.3: the satisfying region of Cols' is finite). Initial
// sampling uses the strong per-column NotOld, which spreads samples widely.
func (s *sampler) trueSamples(ctx context.Context, n int, known []Sample) (out []Sample, exhausted bool, err error) {
	return s.enumerate(ctx, s.satBase, n, known, true)
}

// falseSamples generates up to n new FALSE samples (unsatisfaction tuples)
// distinct from known.
func (s *sampler) falseSamples(ctx context.Context, n int, known []Sample) (out []Sample, exhausted bool, err error) {
	return s.enumerate(ctx, s.unsatBase, n, known, true)
}

// counterTrue generates up to n TRUE counter-examples: tuples that satisfy
// p but are rejected by the (invalid) learned predicate (§5.5).
// Counter-examples use weak (tuple-level) blocking: they live near the
// decision boundary, and per-column blocking would exile later samples
// from exactly the region the learner needs to refine.
func (s *sampler) counterTrue(ctx context.Context, learned smt.Formula, n int, known []Sample) ([]Sample, error) {
	out, _, err := s.enumerate(ctx, smt.NewAnd(s.satBase, smt.NewNot(learned)), n, known, false)
	return out, err
}

// counterFalse generates up to n FALSE counter-examples: unsatisfaction
// tuples that the (valid) learned predicate wrongly accepts. An empty
// result with exhausted=true proves the learned predicate optimal
// (Lemma 4).
func (s *sampler) counterFalse(ctx context.Context, learned smt.Formula, n int, known []Sample) (out []Sample, exhausted bool, err error) {
	return s.enumerate(ctx, smt.NewAnd(s.unsatBase, learned), n, known, false)
}

// enumerate produces up to n fresh samples from the models of base.
//
// The fast path enumerates candidate points of the (blocking-free) formula
// by recursive projection, applying the NotOld policy in code: in diversify
// mode, the strong per-column rule of §5.3 (every column takes an unseen
// value — this spreads the initial samples); otherwise tuple-level
// distinctness (counter-examples must stay near the decision boundary).
// Keeping blocking out of the formula keeps every quantifier-elimination
// call small, which is where the bulk of synthesis time goes.
//
// Candidate enumeration visits a complete set of interval/congruence
// representatives but not every point of a dense region, so a shortfall
// does not yet prove exhaustion; the slow path then resumes the classic
// loop — Model(base ∧ NotOld) with tuple-level blocking clauses — whose
// UNSAT answer is a real exhaustion proof (§5.3).
func (s *sampler) enumerate(ctx context.Context, base smt.Formula, n int, known []Sample, diversify bool) (out []Sample, exhausted bool, err error) {
	seenTuples := map[string]bool{}
	seenCols := make([]map[string]bool, len(s.space.Vars))
	for i := range seenCols {
		seenCols[i] = map[string]bool{}
	}
	note := func(sm Sample) {
		seenTuples[sm.Key()] = true
		for i, v := range sm.Vals {
			seenCols[i][v.RatString()] = true
		}
	}
	for _, sm := range known {
		note(sm)
	}

	fresh := func(sm Sample, strong bool) bool {
		if seenTuples[sm.Key()] {
			return false
		}
		if strong {
			for i, v := range sm.Vals {
				if seenCols[i][v.RatString()] {
					return false
				}
			}
		}
		return true
	}

	// Fast path: blocking-free enumeration, two passes in diversify mode
	// (strong per-column rule with the non-zero heuristic first, then
	// tuple-level) and one pass otherwise.
	passes := []bool{false}
	if diversify {
		passes = []bool{true, false}
	}
	for _, strong := range passes {
		if len(out) >= n {
			break
		}
		query := base
		if strong {
			query = smt.NewAnd(base, s.heuristic)
		}
		// Scan more candidates than needed: many will be duplicates of
		// known samples or rejected by the strong rule.
		budget := 4*n + 4*len(known) + 16
		err := s.solver.EnumerateModelsCtx(ctx, query, s.space.Vars, budget, func(m smt.Model) bool {
			sm := s.space.extractSample(m)
			if fresh(sm, strong) {
				note(sm)
				out = append(out, sm)
			}
			return len(out) < n
		})
		if err != nil && !errors.Is(err, smt.ErrBudget) {
			return out, false, err
		}
	}
	if len(out) >= n {
		return out, false, nil
	}

	// Slow path: classic blocked enumeration; its UNSAT proves exhaustion.
	for len(out) < n {
		all := append(append([]Sample(nil), known...), out...)
		query := smt.NewAnd(base, s.space.notOld(all))
		m, err := s.solver.ModelCtx(ctx, query)
		if errors.Is(err, smt.ErrUnsat) {
			return out, true, nil
		}
		if err != nil {
			return out, false, err
		}
		sm := s.space.extractSample(m)
		note(sm)
		out = append(out, sm)
	}
	return out, false, nil
}
