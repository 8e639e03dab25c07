package smt

import (
	"context"
	"testing"
)

// TestQueryKindAttribution pins sia_smt_query_seconds attribution: one call
// of a public entry point adds exactly one observation to its own kind and
// none to the other three, even though every entry point runs quantifier
// elimination internally.
func TestQueryKindAttribution(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	// ∃y. x < y ∧ y < 10 needs an elimination on every path below.
	f := &Exists{V: y, F: NewAnd(LT(VarTerm(x), VarTerm(y)), LT(VarTerm(y), ConstTerm(10)))}
	ctx := context.Background()
	kinds := []string{opQE, opSat, opModel, opEnumerate}
	cases := []struct {
		kind string
		call func(*Solver) error
	}{
		{opSat, func(s *Solver) error { _, err := s.SatisfiableCtx(ctx, f); return err }},
		{opModel, func(s *Solver) error { _, err := s.ModelCtx(ctx, f); return err }},
		{opEnumerate, func(s *Solver) error {
			return s.EnumerateModelsCtx(ctx, f, []Var{x}, 3, func(Model) bool { return true })
		}},
		{opQE, func(s *Solver) error { _, err := s.QECtx(ctx, f); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			before := Snapshot().Query
			if err := tc.call(New()); err != nil {
				t.Fatal(err)
			}
			after := Snapshot().Query
			for _, k := range kinds {
				want := uint64(0)
				if k == tc.kind {
					want = 1
				}
				if got := after[k].Count - before[k].Count; got != want {
					t.Errorf("kind %q: %d observations, want %d", k, got, want)
				}
			}
		})
	}
}
