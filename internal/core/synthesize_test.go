package core

import (
	"context"
	"errors"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
	"sia/internal/smt"
)

// assertValidReduction verifies independently (fresh solver, fresh encoder)
// that res.Predicate is implied by p and uses only cols.
func assertValidReduction(t *testing.T, p predicate.Predicate, res *Result, cols []string, s *predicate.Schema) {
	t.Helper()
	if res.Predicate == nil {
		t.Fatalf("no predicate synthesized (gave up: %s)", res.GaveUp)
	}
	if !res.Valid {
		t.Fatalf("result not marked valid: %+v", res)
	}
	if !predicate.UsesOnly(res.Predicate, cols) {
		t.Fatalf("predicate %s uses columns outside %v", res.Predicate, cols)
	}
	enc := newEncoder(s)
	v, err := newVerifier(smt.New(), enc, p)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := v.Verify(context.Background(), res.Predicate)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("synthesized predicate %s is NOT implied by %s", res.Predicate, p)
	}
}

// assertOptimal checks with a fresh solver that no unsatisfaction tuple of
// p (w.r.t. cols) satisfies the synthesized predicate (Lemma 4).
func assertOptimal(t *testing.T, p predicate.Predicate, res *Result, cols []string, s *predicate.Schema) {
	t.Helper()
	solver := smt.New()
	enc := newEncoder(s)
	pf, err := enc.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	candF, err := enc.Encode(res.Predicate)
	if err != nil {
		t.Fatal(err)
	}
	inCols := map[string]bool{}
	for _, c := range cols {
		inCols[c] = true
	}
	unsat := smt.Formula(smt.NewNot(pf))
	for _, v := range smt.FreeVars(pf) {
		if !inCols[v.Name] {
			unsat = &smt.ForAll{V: v, F: unsat}
		}
	}
	sat, err := solver.SatisfiableCtx(context.Background(), smt.NewAnd(unsat, candF))
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Fatalf("an unsatisfaction tuple satisfies %s: not optimal", res.Predicate)
	}
}

func TestSynthesizePaperWalkthrough(t *testing.T) {
	// §3.2: p = (a2 - b1 < 20) AND (a1 - a2 < a2 - b1 + 10) AND (b1 < 0),
	// target columns {a1, a2}. The optimal reduction is
	// (a2 <= 18) AND (a1 - a2 <= 28).
	s := intSchema("a1", "a2", "b1")
	p := predtest.MustParse("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", s)
	cols := []string{"a1", "a2"}
	res, err := SynthesizeContext(context.Background(), p, cols, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, cols, s)
	t.Logf("synthesized %q in %d iterations (optimal=%v, %d true / %d false samples)",
		res.Predicate, res.Iterations, res.Optimal, res.TrueSamples, res.FalseSamples)
	if res.Optimal {
		assertOptimal(t, p, res, cols, s)
	}
}

func TestSynthesizeSingleColumn(t *testing.T) {
	// The one-column case from the paper's motivating rewrite: with
	// p = (a - b < 20) AND (b < 0), the reduction to {a} is a < 19,
	// i.e. a <= 18.
	s := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, []string{"a"}, s)
	if !res.Optimal {
		t.Fatalf("single halfplane should converge to optimal, gave up: %s", res.GaveUp)
	}
	assertOptimal(t, p, res, []string{"a"}, s)
	// Semantics spot-check: a=18 must be accepted, a=19 rejected.
	if !predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(18)}) {
		t.Fatalf("a=18 is feasible but rejected by %s", res.Predicate)
	}
	if predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(19)}) {
		t.Fatalf("a=19 is an unsatisfaction tuple but accepted by %s", res.Predicate)
	}
}

func TestSynthesizeNoUnsatTuples(t *testing.T) {
	// p = a > b: for every a there is a b making it true, so there is no
	// unsatisfaction tuple for {a} and the only valid reduction is TRUE.
	s := intSchema("a", "b")
	p := predtest.MustParse("a > b", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicate != nil || res.GaveUp != ReasonNoUnsatTuples {
		t.Fatalf("expected no-unsat-tuples give-up, got %+v", res)
	}
}

func TestSynthesizeFiniteTrueSet(t *testing.T) {
	// p = (a = 3 OR a = 5) AND b > a: only two satisfaction tuples exist
	// over {a}; the strongest valid predicate is their disjunction.
	s := intSchema("a", "b")
	p := predtest.MustParse("(a = 3 OR a = 5) AND b > a", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, []string{"a"}, s)
	if !res.Optimal {
		t.Fatalf("finite TRUE set should be optimal, gave up: %s", res.GaveUp)
	}
	for _, v := range []int64{3, 5} {
		if !predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(v)}) {
			t.Fatalf("a=%d should satisfy %s", v, res.Predicate)
		}
	}
	for _, v := range []int64{2, 4, 6, 0} {
		if predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(v)}) {
			t.Fatalf("a=%d should not satisfy %s", v, res.Predicate)
		}
	}
}

func TestSynthesizeFiniteFalseSet(t *testing.T) {
	// p = (a >= 0 OR a <= -3) AND b > a: the unsatisfaction tuples over
	// {a} are exactly a ∈ {-1, -2}; the optimal predicate rejects them.
	s := intSchema("a", "b")
	p := predtest.MustParse("(a >= 0 OR a <= -3) AND b > a", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, []string{"a"}, s)
	if !res.Optimal {
		t.Fatalf("finite FALSE set should be optimal, gave up: %s", res.GaveUp)
	}
	for _, v := range []int64{-1, -2} {
		if predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(v)}) {
			t.Fatalf("unsatisfaction tuple a=%d accepted by %s", v, res.Predicate)
		}
	}
	for _, v := range []int64{0, -3, 7, -100} {
		if !predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(v)}) {
			t.Fatalf("feasible a=%d rejected by %s", v, res.Predicate)
		}
	}
}

func TestSynthesizeUnsatisfiablePredicate(t *testing.T) {
	// An unsatisfiable p implies anything; the loop detects there are no
	// satisfaction tuples at all and returns the strongest predicate
	// (the empty disjunction, FALSE).
	s := intSchema("a", "b")
	p := predtest.MustParse("a > b AND b > a", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicate == nil || !res.Optimal {
		t.Fatalf("expected optimal FALSE predicate, got %+v", res)
	}
	if predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(0)}) {
		t.Fatalf("nothing should satisfy %s", res.Predicate)
	}
}

// TestSynthesizeColumnValidation: a target column set that is empty or
// names a column the predicate does not mention is the caller's error, so
// it must match ErrInvalidOptions (a 400 on the wire), not a bare error.
func TestSynthesizeColumnValidation(t *testing.T) {
	s := intSchema("a", "b", "c")
	p := predtest.MustParse("a > b", s)
	for name, cols := range map[string][]string{
		"nil":                  nil,
		"empty":                {},
		"not in the schema":    {"zzz"},
		"not in the predicate": {"a", "c"},
	} {
		res, err := SynthesizeContext(context.Background(), p, cols, s, Options{})
		if res != nil || !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: res=%v err=%v, want ErrInvalidOptions", name, res, err)
		}
	}
}

func TestSynthesizeTwoSidedBound(t *testing.T) {
	// p constrains a to a band through b: |a - b| < 5 with 0 < b < 10.
	// With integer b in [1, 9] and |a - b| <= 4, the feasible a range is
	// [-3, 13]. The optimal reduction needs two hyperplanes, exercising
	// the conjunction in Alg. 1 (line 7) across iterations.
	s := intSchema("a", "b")
	p := predtest.MustParse("a - b < 5 AND b - a < 5 AND b > 0 AND b < 10", s)
	cols := []string{"a"}
	res, err := SynthesizeContext(context.Background(), p, cols, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, cols, s)
	t.Logf("two-sided: %q optimal=%v iters=%d", res.Predicate, res.Optimal, res.Iterations)
	if !res.Optimal {
		t.Fatalf("two-sided band should converge to optimal, gave up: %s", res.GaveUp)
	}
	assertOptimal(t, p, res, cols, s)
	for _, v := range []int64{-3, 0, 13} {
		if !predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(v)}) {
			t.Fatalf("feasible a=%d rejected by %s", v, res.Predicate)
		}
	}
	for _, v := range []int64{-4, 14} {
		if predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(v)}) {
			t.Fatalf("unsatisfaction tuple a=%d accepted by %s", v, res.Predicate)
		}
	}
}

func TestSynthesizePaperLimitation(t *testing.T) {
	// §6.7: p = a > b AND a < b + 50 AND b > 0 AND b < 150 over {a}:
	// the TRUE region is an interval (1..199) but FALSE samples lie on
	// both sides, so single-hyperplane learning rounds may fail; Sia must
	// either converge to a valid predicate or give up cleanly — never
	// return an invalid one.
	s := intSchema("a", "b")
	p := predtest.MustParse("a > b AND a < b + 50 AND b > 0 AND b < 150", s)
	cols := []string{"a"}
	res, err := SynthesizeContext(context.Background(), p, cols, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicate != nil {
		assertValidReduction(t, p, res, cols, s)
		t.Logf("limitation case synthesized %q (optimal=%v, gaveUp=%s)", res.Predicate, res.Optimal, res.GaveUp)
	} else {
		t.Logf("limitation case gave up: %s", res.GaveUp)
	}
}

func TestSynthesizePresets(t *testing.T) {
	s := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", s)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"SIA", PresetSIA()},
		{"SIA_v1", PresetSIAV1()},
		{"SIA_v2", PresetSIAV2()},
	} {
		res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Predicate == nil {
			t.Logf("%s: gave up (%s)", tc.name, res.GaveUp)
			continue
		}
		assertValidReduction(t, p, res, []string{"a"}, s)
		if tc.opts.MaxIterations == 1 && res.Iterations > 1 {
			t.Fatalf("%s: ran %d iterations, expected 1", tc.name, res.Iterations)
		}
	}
}

func TestSynthesizeTimingAndCounts(t *testing.T) {
	s := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Generation == 0 {
		t.Error("generation time not recorded")
	}
	if res.Iterations > 0 && res.Timing.Learning == 0 {
		t.Error("learning time not recorded")
	}
	if res.TrueSamples == 0 || res.FalseSamples == 0 {
		t.Errorf("sample counts not recorded: %+v", res)
	}
}

func TestSynthesizeDateColumns(t *testing.T) {
	// The full §2 predicate with DATE columns; reduction to the two
	// lineitem columns.
	s := predicate.NewSchema(
		predicate.Column{Name: "l_shipdate", Type: predicate.TypeDate, NotNull: true},
		predicate.Column{Name: "l_commitdate", Type: predicate.TypeDate, NotNull: true},
		predicate.Column{Name: "o_orderdate", Type: predicate.TypeDate, NotNull: true},
	)
	p := predtest.MustParse(`l_shipdate - o_orderdate < 20
		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10
		AND o_orderdate < DATE '1993-06-01'`, s)
	cols := []string{"l_commitdate", "l_shipdate"}
	res, err := SynthesizeContext(context.Background(), p, cols, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, cols, s)
	t.Logf("TPC-H style: %q optimal=%v iters=%d", res.Predicate, res.Optimal, res.Iterations)
}
