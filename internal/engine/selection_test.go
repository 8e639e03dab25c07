package engine

import (
	"math/rand"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
)

func TestSelectionMatchesEvalDifferential(t *testing.T) {
	// Property: the bitmap equals row-at-a-time 3VL evaluation over random
	// data, for kernel leaves under AND, OR and NOT and for a non-linear
	// leaf that only Eval can read.
	r := rand.New(rand.NewSource(99))
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "c", Type: predicate.TypeInteger, NotNull: true},
	)
	tab := NewTable("t", s)
	for i := 0; i < 500; i++ {
		tab.AppendRow(
			predicate.IntVal(int64(r.Intn(61)-30)),
			predicate.IntVal(int64(r.Intn(61)-30)),
			predicate.IntVal(int64(r.Intn(61)-30)),
		)
	}
	exprs := []string{
		// Conjunctions of kernel leaves.
		"a < 5",
		"a >= -3",
		"a - b < 7",
		"b - a <= 0",
		"2*a - 3*b + c < 10",
		"a = b",
		"a <> c",
		"a - b < 7 AND c > 0 AND a <= 20",
		"(a + b) / 2 < 4",
		// OR, NOT, and an opaque leaf.
		"a < 5 OR b > 10",
		"NOT (a - b < 7)",
		"a * b > 0",
		"a < 5 AND (b > 0 OR c > 0)",
		"a < 5 OR (b > 0 AND (c > 0 OR a = b))",
		// Denominators whose LCM overruns the cap (and would wrap int64
		// if accumulated there): an opaque leaf, still filtered by Eval.
		"a/2147483648 + b/2147483649 + c/3 < 1",
	}
	for _, src := range exprs {
		p := predtest.MustParse(src, s)
		sel := selectProgram(tab, predicate.Compile(p), 1)
		for row := 0; row < tab.NumRows(); row++ {
			want := predicate.Eval(p, tab.Tuple(row)) == predicate.True
			if sel[row] != want {
				t.Fatalf("%s row %d (%v): bitmap %v, eval %v", src, row, tab.Tuple(row), sel[row], want)
			}
		}
	}
}

func TestSelectionNullableUsesEval(t *testing.T) {
	s := predicate.NewSchema(predicate.Column{Name: "x", Type: predicate.TypeInteger})
	tab := NewTable("n", s)
	tab.AppendRow(predicate.IntVal(5))
	tab.AppendRow(predicate.NullValue())
	tab.AppendRow(predicate.IntVal(-5))
	sel := selectProgram(tab, predicate.Compile(predtest.MustParse("x > 0", s)), 1)
	if !sel[0] || sel[1] || sel[2] {
		t.Fatalf("nullable selection wrong: %v", sel)
	}
}

func TestSelectionLiteralAndEmpty(t *testing.T) {
	s := predicate.NewSchema(predicate.Column{Name: "x", Type: predicate.TypeInteger, NotNull: true})
	tab := NewTable("t", s)
	for i := int64(0); i < 10; i++ {
		tab.AppendRow(predicate.IntVal(i))
	}
	for _, ok := range selectProgram(tab, predicate.Compile(predicate.TruePred), 1) {
		if !ok {
			t.Fatal("TRUE literal must select everything")
		}
	}
	for _, ok := range selectProgram(tab, predicate.Compile(predicate.FalsePred), 1) {
		if ok {
			t.Fatal("FALSE literal must select nothing")
		}
	}
	empty := NewTable("e", s)
	if got := selectProgram(empty, predicate.Compile(predicate.TruePred), 1); len(got) != 0 {
		t.Fatalf("empty table selection length %d", len(got))
	}
}

func BenchmarkSelectionVectorized(b *testing.B) {
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
	)
	tab := NewTable("t", s)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tab.AppendRow(predicate.IntVal(int64(r.Intn(1000))), predicate.IntVal(int64(r.Intn(1000))))
	}
	p := predtest.MustParse("a - b < 100 AND a < 700", s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectProgram(tab, predicate.Compile(p), 1)
	}
}
