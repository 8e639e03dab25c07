package core

import (
	"context"
	"errors"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
	"sia/internal/smt"
)

func intSchema(names ...string) *predicate.Schema {
	cols := make([]predicate.Column, len(names))
	for i, n := range names {
		cols[i] = predicate.Column{Name: n, Type: predicate.TypeInteger, NotNull: true}
	}
	return predicate.NewSchema(cols...)
}

func nullableSchema(names ...string) *predicate.Schema {
	cols := make([]predicate.Column, len(names))
	for i, n := range names {
		cols[i] = predicate.Column{Name: n, Type: predicate.TypeInteger}
	}
	return predicate.NewSchema(cols...)
}

func TestEncodePlainMatchesEval(t *testing.T) {
	s := intSchema("a", "b", "c")
	cases := []string{
		"a + 10 > b + 20 AND b + 10 > 20",
		"a - b < 20 AND c - a < a - b + 10 AND b < 0",
		"a = b OR NOT (a < c)",
		"2*a - 3*b <= c + 4",
		"(a + b) / 2 >= c",
	}
	solver := smt.New()
	for _, src := range cases {
		p := predtest.MustParse(src, s)
		enc := newEncoder(s)
		f, err := enc.Encode(p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		// The formula and the predicate must agree on concrete tuples.
		for a := int64(-3); a <= 3; a += 3 {
			for b := int64(-2); b <= 2; b += 2 {
				for c := int64(-25); c <= 25; c += 25 {
					tu := predicate.Tuple{"a": predicate.IntVal(a), "b": predicate.IntVal(b), "c": predicate.IntVal(c)}
					want := predicate.Satisfies(p, tu)
					g := f
					for name, val := range map[string]int64{"a": a, "b": b, "c": c} {
						g = smt.Subst(g, smt.IntVar(name), smt.ConstTerm(val))
					}
					sat, err := solver.SatisfiableCtx(context.Background(), g)
					if err != nil {
						t.Fatalf("%s: %v", src, err)
					}
					if sat != want {
						t.Fatalf("%s at (%d,%d,%d): formula=%v eval=%v", src, a, b, c, sat, want)
					}
				}
			}
		}
	}
}

func TestEncodeVirtualColumns(t *testing.T) {
	s := intSchema("a", "b", "c")
	// a*b is non-linear but a, b appear nowhere else: a virtual column
	// stands in for the product (§5.2).
	p := predtest.MustParse("a * b > 10 AND c < 5", s)
	enc := newEncoder(s)
	rw, err := enc.rewriteNonLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	cols := predicate.Columns(rw)
	for _, c := range cols {
		if c == "a" || c == "b" {
			t.Fatalf("columns of the product should be gone, got %v", cols)
		}
	}
	if _, err := enc.Encode(rw); err != nil {
		t.Fatal(err)
	}
	// Reusing the same product maps to the same virtual column.
	p2 := predtest.MustParse("a * b > 10 AND a * b < 100", s)
	enc2 := newEncoder(s)
	rw2, err := enc2.rewriteNonLinear(p2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(predicate.Columns(rw2)); got != 1 {
		t.Fatalf("the same product should map to one virtual column, got %v", predicate.Columns(rw2))
	}
}

func TestEncodeNonLinearRejected(t *testing.T) {
	s := intSchema("a", "b", "c")
	// a occurs both inside the product and on its own: substitution
	// would change semantics, so the predicate is unsupported.
	p := predtest.MustParse("a * b > 10 AND a > 2", s)
	enc := newEncoder(s)
	if _, err := enc.rewriteNonLinear(p); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("expected ErrUnsupported, got %v", err)
	}
}

func TestEncode3VLNullability(t *testing.T) {
	// p = (a > 0) OR (b = b) is TRUE whenever b is non-NULL. The candidate
	// a = a is TRUE only when a is non-NULL. With nullable columns the
	// implication fails (b=0, a=NULL); with NOT NULL columns it holds.
	solver := smt.New()
	for _, tc := range []struct {
		schema *predicate.Schema
		want   bool
	}{
		{intSchema("a", "b"), true},
		{nullableSchema("a", "b"), false},
	} {
		p := predtest.MustParse("a > 0 OR b = b", tc.schema)
		cand := predtest.MustParse("a = a", tc.schema)
		enc := newEncoder(tc.schema)
		v, err := newVerifier(solver, enc, p)
		if err != nil {
			t.Fatal(err)
		}
		valid, err := v.Verify(context.Background(), cand)
		if err != nil {
			t.Fatal(err)
		}
		if valid != tc.want {
			t.Fatalf("3VL validity with schema %v: got %v, want %v", tc.schema.Columns(), valid, tc.want)
		}
	}
}

// TestEncodeIsTrueMatchesEval: on every tuple, NULLs included, the
// IS TRUE encoding is satisfiable exactly when the predicate accepts the
// tuple. Under NOT this needs the FALSE encoding of the operand, not the
// two-valued negation of its TRUE encoding (NOT of Unknown is Unknown).
func TestEncodeIsTrueMatchesEval(t *testing.T) {
	s := nullableSchema("a", "b")
	null := predicate.NullValue()
	vals := []predicate.Value{null, predicate.IntVal(-1), predicate.IntVal(0), predicate.IntVal(2)}
	solver := smt.New()
	for _, src := range []string{
		"NOT (a < b)",
		"NOT (a < b AND b > 0)",
		"NOT (a < b OR b > 0)",
		"a < b OR NOT (b > 0)",
		"NOT (NOT (a = b))",
	} {
		p := predtest.MustParse(src, s)
		f, err := newEncoder(s).EncodeIsTrue(p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, a := range vals {
			for _, b := range vals {
				tu := predicate.Tuple{"a": a, "b": b}
				g := f
				for name, v := range tu {
					isNull := int64(0)
					if v.Null {
						isNull = 1
					}
					g = smt.Subst(g, smt.IntVar(name), smt.ConstTerm(v.Int))
					g = smt.Subst(g, nullVar(name), smt.ConstTerm(isNull))
				}
				sat, err := solver.SatisfiableCtx(context.Background(), g)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				if want := predicate.Satisfies(p, tu); sat != want {
					t.Errorf("%s on %v: IS TRUE encoding satisfiable=%v, Satisfies=%v", src, tu, sat, want)
				}
			}
		}
	}
}

func TestVerifyBasic(t *testing.T) {
	s := intSchema("a", "b")
	p := predtest.MustParse("a > 0 AND b > 0", s)
	solver := smt.New()
	enc := newEncoder(s)
	v, err := newVerifier(solver, enc, p)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := v.Verify(context.Background(), predtest.MustParse("a > -5", s))
	if err != nil {
		t.Fatal(err)
	}
	if !valid {
		t.Fatal("a > -5 is implied by a > 0 AND b > 0")
	}
	valid, err = v.Verify(context.Background(), predtest.MustParse("a > 5", s))
	if err != nil {
		t.Fatal(err)
	}
	if valid {
		t.Fatal("a > 5 is not implied by a > 0")
	}
	// Validity is preserved with NULLs when the implication is forced by
	// a conjunct: p TRUE requires a, b non-NULL.
	ns := nullableSchema("a", "b")
	pn := predtest.MustParse("a > 0 AND b > 0", ns)
	encN := newEncoder(ns)
	vn, err := newVerifier(solver, encN, pn)
	if err != nil {
		t.Fatal(err)
	}
	valid, err = vn.Verify(context.Background(), predtest.MustParse("a > -5", ns))
	if err != nil {
		t.Fatal(err)
	}
	if !valid {
		t.Fatal("conjunctive p forces non-NULL; a > -5 must stay valid")
	}
}

func TestVerifyPaperMotivatingRewrite(t *testing.T) {
	// §2: the three inferred predicates of Q2 are valid reductions of
	// Q1's predicate; a too-strong variant is not.
	s := predicate.NewSchema(
		predicate.Column{Name: "l_shipdate", Type: predicate.TypeDate, NotNull: true},
		predicate.Column{Name: "l_commitdate", Type: predicate.TypeDate, NotNull: true},
		predicate.Column{Name: "o_orderdate", Type: predicate.TypeDate, NotNull: true},
	)
	p := predtest.MustParse(`l_shipdate - o_orderdate < 20
		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10
		AND o_orderdate < DATE '1993-06-01'`, s)
	solver := smt.New()
	enc := newEncoder(s)
	v, err := newVerifier(solver, enc, p)
	if err != nil {
		t.Fatal(err)
	}
	validOnes := []string{
		"l_shipdate < DATE '1993-06-20'",
		"l_commitdate < DATE '1993-07-18'",
		"l_commitdate - l_shipdate < 29",
	}
	for _, src := range validOnes {
		ok, err := v.Verify(context.Background(), predtest.MustParse(src, s))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s should be a valid reduction", src)
		}
	}
	invalid := []string{
		"l_shipdate < DATE '1993-06-19'",   // too strong by one day
		"l_commitdate - l_shipdate < 28",   // too strong
		"l_commitdate > DATE '1993-01-01'", // unrelated direction
	}
	for _, src := range invalid {
		ok, err := v.Verify(context.Background(), predtest.MustParse(src, s))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%s should NOT be a valid reduction", src)
		}
	}
}
