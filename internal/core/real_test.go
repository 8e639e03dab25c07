package core

import (
	"context"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
)

func realSchema(names ...string) *predicate.Schema {
	cols := make([]predicate.Column, len(names))
	for i, n := range names {
		cols[i] = predicate.Column{Name: n, Type: predicate.TypeDouble, NotNull: true}
	}
	return predicate.NewSchema(cols...)
}

// TestSynthesizeRealColumns exercises the linear-real-arithmetic path
// (Loos–Weispfenning elimination) end to end: DOUBLE columns, fractional
// coefficients, dense order.
func TestSynthesizeRealColumns(t *testing.T) {
	s := realSchema("x", "y")
	// x - y < 2.5 AND y < 1.5  =>  over {x}: x < 4 (no integer
	// tightening: reals are dense, so x can approach 4 arbitrarily).
	p := predtest.MustParse("x - y < 2.5 AND y < 1.5", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"x"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, []string{"x"}, s)
	t.Logf("real synthesis: %q optimal=%v iters=%d", res.Predicate, res.Optimal, res.Iterations)
	// Values safely inside / outside the feasible region.
	if !predicate.Satisfies(res.Predicate, predicate.Tuple{"x": predicate.RealVal(3.0)}) {
		t.Fatalf("x=3.0 is feasible but rejected by %s", res.Predicate)
	}
	if predicate.Satisfies(res.Predicate, predicate.Tuple{"x": predicate.RealVal(10.0)}) {
		t.Fatalf("x=10 is an unsatisfaction point but accepted by %s", res.Predicate)
	}
}

func TestSymbolicRelevanceRealColumns(t *testing.T) {
	s := realSchema("x", "y")
	// x < y with y unconstrained: no unsatisfaction tuple for {x}.
	free := predtest.MustParse("x < y", s)
	rel, err := SymbolicallyRelevant(context.Background(), free, []string{"x"}, s)
	if err != nil {
		t.Fatal(err)
	}
	if rel {
		t.Fatal("x < y with free y should not be symbolically relevant for {x}")
	}
	// Bounding y creates unsatisfaction tuples for {x}.
	bounded := predtest.MustParse("x < y AND y < 7.25", s)
	rel, err = SymbolicallyRelevant(context.Background(), bounded, []string{"x"}, s)
	if err != nil {
		t.Fatal(err)
	}
	if !rel {
		t.Fatal("x < y AND y < 7.25 should be symbolically relevant for {x}")
	}
}

// TestSynthesizeDisjunctivePredicate feeds an original predicate with OR —
// the grammar of §4.1 allows arbitrary boolean structure even though the
// benchmark template is conjunctive.
func TestSynthesizeDisjunctivePredicate(t *testing.T) {
	s := intSchema("a", "b")
	// (a - b < 0 AND b < 10) OR (a < -50 AND b > 0): over {a} the
	// feasible set is a < 9 ∪ a < -50 = a <= 8.
	p := predtest.MustParse("(a - b < 0 AND b < 10) OR (a < -50 AND b > 0)", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, []string{"a"}, s)
	if !res.Optimal {
		t.Fatalf("disjunctive case should converge (gave up: %s)", res.GaveUp)
	}
	if !predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(8)}) {
		t.Fatalf("a=8 feasible but rejected by %s", res.Predicate)
	}
	if predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(9)}) {
		t.Fatalf("a=9 unsatisfiable but accepted by %s", res.Predicate)
	}
}

// TestSynthesizeDisjointRegions exercises a TRUE region that is a union of
// two separated intervals: the optimal reduction needs a disjunction of
// half-planes, which Alg. 2 produces by training per-round SVMs on the
// still-misclassified TRUE samples.
func TestSynthesizeDisjointRegions(t *testing.T) {
	s := intSchema("a", "b")
	p := predtest.MustParse("(a - b = 0 AND b > 0 AND b < 5) OR (a - b = 100 AND b > 0 AND b < 5)", s)
	res, err := SynthesizeContext(context.Background(), p, []string{"a"}, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertValidReduction(t, p, res, []string{"a"}, s)
	t.Logf("disjoint regions: %q optimal=%v gaveUp=%s", res.Predicate, res.Optimal, res.GaveUp)
	// Both islands must be accepted (validity); the gap between them must
	// be rejected if the result was proven optimal.
	for _, v := range []int64{1, 4, 101, 104} {
		if !predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(v)}) {
			t.Fatalf("feasible a=%d rejected by %s", v, res.Predicate)
		}
	}
	if res.Optimal {
		for _, v := range []int64{50, 0, 105} {
			if predicate.Satisfies(res.Predicate, predicate.Tuple{"a": predicate.IntVal(v)}) {
				t.Fatalf("unsatisfaction tuple a=%d accepted by optimal %s", v, res.Predicate)
			}
		}
	}
}
