package engine

import (
	"math/rand"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
)

func smallSchema() *predicate.Schema {
	return predicate.NewSchema(
		predicate.Column{Name: "id", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "v", Type: predicate.TypeInteger, NotNull: true},
	)
}

func buildSmall(t *testing.T, rows [][2]int64) *Table {
	t.Helper()
	tab := NewTable("t", smallSchema())
	for _, r := range rows {
		tab.AppendRow(predicate.IntVal(r[0]), predicate.IntVal(r[1]))
	}
	return tab
}

func TestTableBasics(t *testing.T) {
	tab := buildSmall(t, [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	if tab.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	if v := tab.Value(1, "v"); v.Int != 20 {
		t.Fatalf("Value(1, v) = %+v", v)
	}
	tu := tab.Tuple(2)
	if tu["id"].Int != 3 || tu["v"].Int != 30 {
		t.Fatalf("Tuple(2) = %v", tu)
	}
}

func TestTableNulls(t *testing.T) {
	s := predicate.NewSchema(predicate.Column{Name: "x", Type: predicate.TypeInteger})
	tab := NewTable("n", s)
	tab.AppendRow(predicate.IntVal(5))
	tab.AppendRow(predicate.NullValue())
	if tab.Value(0, "x").Null || tab.Value(1, "x").Int != 0 || !tab.Value(1, "x").Null {
		t.Fatalf("null handling broken: %+v %+v", tab.Value(0, "x"), tab.Value(1, "x"))
	}
	// A NULL into a NOT NULL column panics (programming error).
	nn := NewTable("nn", smallSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NULL in NOT NULL column")
		}
	}()
	nn.AppendRow(predicate.NullValue(), predicate.IntVal(1))
}

func TestFilterFastPath(t *testing.T) {
	tab := buildSmall(t, [][2]int64{{1, 10}, {2, 20}, {3, 30}, {4, 40}})
	s := tab.Schema()
	p := predtest.MustParse("v > 15 AND v < 40", s)
	out := FilterPar(tab, p, 1)
	if out.NumRows() != 2 {
		t.Fatalf("filter kept %d rows", out.NumRows())
	}
	if out.Value(0, "id").Int != 2 || out.Value(1, "id").Int != 3 {
		t.Fatalf("wrong rows kept")
	}
}

func TestFilterMatchesEvalProperty(t *testing.T) {
	// Property: the compiled fast path agrees with tuple-at-a-time 3VL
	// evaluation on random predicates and data.
	r := rand.New(rand.NewSource(5))
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "c", Type: predicate.TypeInteger, NotNull: true},
	)
	tab := NewTable("p", s)
	for i := 0; i < 300; i++ {
		tab.AppendRow(
			predicate.IntVal(int64(r.Intn(41)-20)),
			predicate.IntVal(int64(r.Intn(41)-20)),
			predicate.IntVal(int64(r.Intn(41)-20)),
		)
	}
	exprs := []string{
		"a + b > c",
		"a - b < 5 AND b > 0 OR c = 0",
		"NOT (a > b) AND c <= a + 1",
		"2*a - 3*b >= c - 7",
		"a = b OR b = c OR a > 10",
	}
	for _, src := range exprs {
		p := predtest.MustParse(src, s)
		out := FilterPar(tab, p, 1)
		want := 0
		for row := 0; row < tab.NumRows(); row++ {
			if predicate.Eval(p, tab.Tuple(row)) == predicate.True {
				want++
			}
		}
		if out.NumRows() != want {
			t.Fatalf("%s: fast path kept %d rows, slow path %d", src, out.NumRows(), want)
		}
	}
}

func TestFilterSlowPathNulls(t *testing.T) {
	s := predicate.NewSchema(predicate.Column{Name: "x", Type: predicate.TypeInteger})
	tab := NewTable("n", s)
	tab.AppendRow(predicate.IntVal(5))
	tab.AppendRow(predicate.NullValue())
	tab.AppendRow(predicate.IntVal(-5))
	p := predtest.MustParse("x > 0", s)
	out := FilterPar(tab, p, 1)
	if out.NumRows() != 1 {
		t.Fatalf("NULL must not pass the filter: kept %d", out.NumRows())
	}
	// NOT (x > 0) keeps only -5: NULL stays excluded under 3VL.
	out = FilterPar(tab, predicate.NewNot(p), 1)
	if out.NumRows() != 1 || out.Value(0, "x").Int != -5 {
		t.Fatalf("3VL negation broken: kept %d", out.NumRows())
	}
}

func TestHashJoin(t *testing.T) {
	l := buildSmall(t, [][2]int64{{1, 10}, {2, 20}, {2, 21}, {3, 30}})
	rs := predicate.NewSchema(
		predicate.Column{Name: "rid", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "w", Type: predicate.TypeInteger, NotNull: true},
	)
	r := NewTable("r", rs)
	for _, row := range [][2]int64{{2, 200}, {3, 300}, {5, 500}} {
		r.AppendRow(predicate.IntVal(row[0]), predicate.IntVal(row[1]))
	}
	out, _, err := HashJoinWherePar(l, r, JoinSpec{LeftKey: "id", RightKey: "rid"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// id=2 matches twice, id=3 once: 3 result rows.
	if out.NumRows() != 3 {
		t.Fatalf("join produced %d rows, want 3", out.NumRows())
	}
	for row := 0; row < out.NumRows(); row++ {
		tu := out.Tuple(row)
		if tu["id"].Int != tu["rid"].Int {
			t.Fatalf("join key mismatch in row %v", tu)
		}
	}
}

func TestHashJoinNullKeys(t *testing.T) {
	ls := predicate.NewSchema(predicate.Column{Name: "k", Type: predicate.TypeInteger})
	l := NewTable("l", ls)
	l.AppendRow(predicate.IntVal(1))
	l.AppendRow(predicate.NullValue())
	rs := predicate.NewSchema(predicate.Column{Name: "k2", Type: predicate.TypeInteger})
	r := NewTable("r", rs)
	r.AppendRow(predicate.IntVal(1))
	r.AppendRow(predicate.NullValue())
	out, _, err := HashJoinWherePar(l, r, JoinSpec{LeftKey: "k", RightKey: "k2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("NULL keys must not join: got %d rows", out.NumRows())
	}
}

func TestHashJoinBuildSideChoice(t *testing.T) {
	// Join output must be identical regardless of which side is smaller.
	big := buildSmall(t, [][2]int64{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}})
	rs := predicate.NewSchema(
		predicate.Column{Name: "rid", Type: predicate.TypeInteger, NotNull: true},
	)
	small := NewTable("r", rs)
	small.AppendRow(predicate.IntVal(3))
	a, _, err := HashJoinWherePar(big, small, JoinSpec{LeftKey: "id", RightKey: "rid"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := HashJoinWherePar(small, big, JoinSpec{LeftKey: "rid", RightKey: "id"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 1 || b.NumRows() != 1 {
		t.Fatalf("rows: %d / %d", a.NumRows(), b.NumRows())
	}
	if a.Value(0, "v").Int != 3 || b.Value(0, "v").Int != 3 {
		t.Fatal("column alignment broken when build side flips")
	}
}

func TestProject(t *testing.T) {
	tab := buildSmall(t, [][2]int64{{1, 10}, {2, 20}})
	out, err := ProjectPar(tab, []string{"v"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Schema().Columns()) != 1 || out.Value(1, "v").Int != 20 {
		t.Fatalf("projection broken")
	}
	if _, err := ProjectPar(tab, []string{"nope"}, 1); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestAggregate(t *testing.T) {
	tab := buildSmall(t, [][2]int64{{1, 10}, {1, 20}, {2, 5}, {2, 7}, {2, 9}})
	out, err := AggregatePar(tab, []string{"id"}, []AggSpec{
		{Func: AggCount, As: "n"},
		{Func: AggSum, Col: "v", As: "s"},
		{Func: AggMin, Col: "v", As: "lo"},
		{Func: AggMax, Col: "v", As: "hi"},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups: %d", out.NumRows())
	}
	row0 := out.Tuple(0)
	if row0["id"].Int != 1 || row0["n"].Int != 2 || row0["s"].Int != 30 || row0["lo"].Int != 10 || row0["hi"].Int != 20 {
		t.Fatalf("group 1 wrong: %v", row0)
	}
	row1 := out.Tuple(1)
	if row1["id"].Int != 2 || row1["n"].Int != 3 || row1["s"].Int != 21 || row1["lo"].Int != 5 || row1["hi"].Int != 9 {
		t.Fatalf("group 2 wrong: %v", row1)
	}
	// Global aggregation (no GROUP BY) yields one row.
	g, err := AggregatePar(tab, nil, []AggSpec{{Func: AggCount, As: "n"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 1 || g.Value(0, "n").Int != 5 {
		t.Fatalf("global count wrong")
	}
}
