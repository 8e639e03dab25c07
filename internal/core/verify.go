package core

import (
	"context"

	"sia/internal/predicate"
	"sia/internal/smt"
)

// VerifyReductionContext reports whether candidate is a valid
// dimensionality reduction of p under three-valued logic (Def. 2): every
// tuple p accepts, candidate accepts. It is the standalone form of the
// loop's Verify step, usable to check hand-written rewrites. Cancelling ctx
// aborts the solver within one elimination step and returns an error
// matching ErrTimeout; a solver budget overrun returns an error matching
// ErrBudget.
func VerifyReductionContext(ctx context.Context, p, candidate predicate.Predicate, schema *predicate.Schema) (bool, error) {
	enc := newEncoder(schema)
	rw, err := enc.rewriteNonLinear(p)
	if err != nil {
		return false, err
	}
	v, err := newVerifier(smt.New(), enc, rw)
	if err != nil {
		return false, err
	}
	ok, err := v.Verify(ctx, candidate)
	return ok, publicErr(err)
}

// verifier decides whether a candidate predicate is a valid dimensionality
// reduction of the original predicate, i.e. whether p ⟹ p₁ (§5.5).
//
// Verification uses the three-valued-logic encoding (§5.2): a tuple may
// carry NULLs, and a predicate "accepts" a tuple only when it evaluates to
// TRUE (not NULL). p ⟹ p₁ therefore means: no tuple exists on which p is
// TRUE but p₁ is not TRUE. The check feeds p ∧ ¬p₁ (in the 3VL encoding)
// to the solver; unsatisfiability proves validity.
type verifier struct {
	solver *smt.Solver
	enc    *encoder
	// pIsTrue is the cached 3VL encoding of the original predicate.
	pIsTrue smt.Formula
	// domain constrains the NULL indicator variables to {0,1}.
	domain smt.Formula
}

func newVerifier(solver *smt.Solver, enc *encoder, p predicate.Predicate) (*verifier, error) {
	isTrue, err := enc.EncodeIsTrue(p)
	if err != nil {
		return nil, err
	}
	var nullable []string
	for _, c := range predicate.Columns(p) {
		if enc.schema != nil {
			if col, ok := enc.schema.Lookup(c); ok && col.NotNull {
				continue
			}
		}
		nullable = append(nullable, c)
	}
	return &verifier{
		solver:  solver,
		enc:     enc,
		pIsTrue: isTrue,
		domain:  nullDomain(nullable),
	}, nil
}

// Verify reports whether candidate is a valid reduction of the original
// predicate (Def. 2: every tuple accepted by p is accepted by candidate).
func (v *verifier) Verify(ctx context.Context, candidate predicate.Predicate) (bool, error) {
	candTrue, err := v.enc.EncodeIsTrue(candidate)
	if err != nil {
		return false, err
	}
	counter := smt.NewAnd(v.pIsTrue, smt.NewNot(candTrue), v.domain)
	sat, err := v.solver.SatisfiableCtx(ctx, counter)
	if err != nil {
		return false, err
	}
	return !sat, nil
}
