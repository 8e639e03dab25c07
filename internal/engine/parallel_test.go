package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
)

// equalTables reports whether two tables are byte-identical: same schema
// (order, types, nullability), same row count, and identical backing
// arrays including null bitmaps.
func equalTables(a, b *Table) error {
	ac, bc := a.schema.Columns(), b.schema.Columns()
	if len(ac) != len(bc) {
		return fmt.Errorf("schema width %d vs %d", len(ac), len(bc))
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return fmt.Errorf("schema column %d: %+v vs %+v", i, ac[i], bc[i])
		}
	}
	if a.nRows != b.nRows {
		return fmt.Errorf("rows %d vs %d", a.nRows, b.nRows)
	}
	for _, name := range a.order {
		x, y := a.cols[name], b.cols[name]
		if (x.nulls == nil) != (y.nulls == nil) {
			return fmt.Errorf("column %s: null bitmap presence differs", name)
		}
		for i := 0; i < a.nRows; i++ {
			if x.nulls != nil && x.nulls[i] != y.nulls[i] {
				return fmt.Errorf("column %s row %d: null %v vs %v", name, i, x.nulls[i], y.nulls[i])
			}
			if x.typ.Integral() {
				if x.ints[i] != y.ints[i] {
					return fmt.Errorf("column %s row %d: %d vs %d", name, i, x.ints[i], y.ints[i])
				}
			} else if x.reals[i] != y.reals[i] {
				return fmt.Errorf("column %s row %d: %g vs %g", name, i, x.reals[i], y.reals[i])
			}
		}
	}
	return nil
}

// parLevels are the worker counts the determinism property is checked at:
// serial, two workers, an odd count that does not divide the morsel count,
// and whatever the host really has.
func parLevels() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// randomTable builds a table big enough to span many morsels, with NOT
// NULL and nullable integral columns.
func randomTable(r *rand.Rand, name string, rows int) *Table {
	s := predicate.NewSchema(
		predicate.Column{Name: name + "k", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: name + "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: name + "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: name + "n", Type: predicate.TypeInteger},
	)
	t := NewTable(name, s)
	for i := 0; i < rows; i++ {
		nv := predicate.IntVal(int64(r.Intn(50) - 25))
		if r.Intn(5) == 0 {
			nv = predicate.NullValue()
		}
		t.AppendRow(
			predicate.IntVal(int64(r.Intn(rows/3+1))),
			predicate.IntVal(int64(r.Intn(200)-100)),
			predicate.IntVal(int64(r.Intn(200)-100)),
			nv,
		)
	}
	return t
}

func TestParallelSelectionAndFilterMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tab := randomTable(r, "t", 3*morselRows+123)
	s := tab.Schema()
	preds := []string{
		// Kernel leaves under AND.
		"ta < 5",
		"ta - tb <= 7 AND tb > -50",
		"2*ta - 3*tb >= tk - 7",
		"ta = tb",
		// Kernel leaves under OR and a pushed-in NOT; a non-linear Eval leaf.
		"ta < 5 OR tb > 10",
		"NOT (ta - tb < 7)",
		"ta * tb > 0",
		// Nullable column: an Eval leaf, alone and beside a kernel leaf.
		"tn > 0",
		"tn > 0 OR ta < -90",
	}
	for _, src := range preds {
		p := predtest.MustParse(src, s)
		refSel := selectProgram(tab, predicate.Compile(p), 1)
		refTab := FilterPar(tab, p, 1)
		for _, par := range parLevels() {
			sel := selectProgram(tab, predicate.Compile(p), par)
			for i := range refSel {
				if sel[i] != refSel[i] {
					t.Fatalf("%s par=%d: bitmap differs at row %d", src, par, i)
				}
			}
			if err := equalTables(refTab, FilterPar(tab, p, par)); err != nil {
				t.Fatalf("%s par=%d: filter differs: %v", src, par, err)
			}
		}
	}
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := randomTable(r, "l", 3*morselRows+55)
	rt := randomTable(r, "r", 2*morselRows+301)
	lp := predtest.MustParse("la - lb < 40", l.Schema())
	rp := predtest.MustParse("ra > -60", rt.Schema())
	for _, preds := range []struct{ lp, rp predicate.Predicate }{
		{nil, nil},
		{lp, nil},
		{lp, rp},
	} {
		ref, refStats, err := HashJoinWherePar(l, rt, JoinSpec{LeftKey: "lk", RightKey: "rk", LeftPred: preds.lp, RightPred: preds.rp}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels() {
			out, stats, err := HashJoinWherePar(l, rt, JoinSpec{LeftKey: "lk", RightKey: "rk", LeftPred: preds.lp, RightPred: preds.rp}, par)
			if err != nil {
				t.Fatal(err)
			}
			if stats != refStats {
				t.Fatalf("par=%d: stats %+v vs %+v", par, stats, refStats)
			}
			if err := equalTables(ref, out); err != nil {
				t.Fatalf("par=%d: join differs: %v", par, err)
			}
		}
	}
	// Flip which side builds: the small side of the pair above probes.
	ref, _, err := HashJoinWherePar(rt, l, JoinSpec{LeftKey: "rk", RightKey: "lk", LeftPred: rp, RightPred: lp}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parLevels() {
		out, _, err := HashJoinWherePar(rt, l, JoinSpec{LeftKey: "rk", RightKey: "lk", LeftPred: rp, RightPred: lp}, par)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalTables(ref, out); err != nil {
			t.Fatalf("par=%d flipped: join differs: %v", par, err)
		}
	}
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	tab := randomTable(r, "t", 4*morselRows+77)
	cases := []struct {
		groupBy []string
		aggs    []AggSpec
	}{
		{nil, []AggSpec{{Func: AggCount, As: "n"}, {Func: AggSum, Col: "ta", As: "s"}}},
		{[]string{"tk"}, []AggSpec{
			{Func: AggCount, As: "n"},
			{Func: AggSum, Col: "tn", As: "s"},
			{Func: AggMin, Col: "tn", As: "lo"},
			{Func: AggMax, Col: "ta", As: "hi"},
		}},
		// Nullable group key: NULLs form one group.
		{[]string{"tn"}, []AggSpec{{Func: AggCount, As: "n"}, {Func: AggMax, Col: "tb", As: "hi"}}},
		{[]string{"tk", "tn"}, []AggSpec{{Func: AggSum, Col: "tb", As: "s"}}},
	}
	for ci, c := range cases {
		ref, err := AggregatePar(tab, c.groupBy, c.aggs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels() {
			out, err := AggregatePar(tab, c.groupBy, c.aggs, par)
			if err != nil {
				t.Fatal(err)
			}
			if err := equalTables(ref, out); err != nil {
				t.Fatalf("case %d par=%d: aggregate differs: %v", ci, par, err)
			}
		}
	}
}

func TestParallelProjectMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tab := randomTable(r, "t", 2*morselRows+9)
	ref, err := ProjectPar(tab, []string{"tn", "ta"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Projection must preserve values, nulls, and column order.
	if got := ref.Schema().Columns()[0].Name; got != "tn" {
		t.Fatalf("projection reordered columns: %s", got)
	}
	for _, par := range parLevels() {
		out, err := ProjectPar(tab, []string{"tn", "ta"}, par)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalTables(ref, out); err != nil {
			t.Fatalf("par=%d: projection differs: %v", par, err)
		}
	}
	if _, err := ProjectPar(tab, []string{"nope"}, 2); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestAggregateNullSemantics(t *testing.T) {
	s := predicate.NewSchema(
		predicate.Column{Name: "g", Type: predicate.TypeInteger},
		predicate.Column{Name: "v", Type: predicate.TypeInteger},
	)
	tab := NewTable("t", s)
	iv := predicate.IntVal
	null := predicate.NullValue()
	for _, row := range [][2]predicate.Value{
		{iv(1), iv(10)},
		{iv(1), null},
		{iv(2), null},
		{null, iv(5)},
		{null, null},
		{iv(2), null},
	} {
		tab.AppendRow(row[0], row[1])
	}
	out, err := AggregatePar(tab, []string{"g"}, []AggSpec{
		{Func: AggCount, As: "n"},
		{Func: AggSum, Col: "v", As: "s"},
		{Func: AggMin, Col: "v", As: "lo"},
		{Func: AggMax, Col: "v", As: "hi"},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("groups: %d, want 3 (1, 2, NULL)", out.NumRows())
	}
	// Aggregate outputs over a nullable input must be nullable.
	if c, _ := out.Schema().Lookup("s"); c.NotNull {
		t.Fatal("SUM over a nullable column must be nullable")
	}
	if c, _ := out.Schema().Lookup("n"); !c.NotNull {
		t.Fatal("COUNT(*) is never NULL")
	}
	check := func(row int, g predicate.Value, n int64, s, lo, hi predicate.Value) {
		t.Helper()
		tu := out.Tuple(row)
		if tu["g"] != g || tu["n"].Int != n || tu["s"] != s || tu["lo"] != lo || tu["hi"] != hi {
			t.Fatalf("row %d = %v, want g=%v n=%d s=%v lo=%v hi=%v", row, tu, g, n, s, lo, hi)
		}
	}
	// First-appearance order: group 1, group 2, the NULL group. COUNT(*)
	// counts every row; SUM/MIN/MAX skip NULL inputs and are NULL when no
	// non-NULL input exists.
	check(0, iv(1), 2, iv(10), iv(10), iv(10))
	check(1, iv(2), 2, null, null, null)
	check(2, null, 2, iv(5), iv(5), iv(5))

	// MIN must not clamp against the 0 stored under a NULL: {NULL, 5} → 5.
	clamp := NewTable("c", s)
	clamp.AppendRow(iv(1), null)
	clamp.AppendRow(iv(1), iv(5))
	out, err = AggregatePar(clamp, []string{"g"}, []AggSpec{{Func: AggMin, Col: "v", As: "lo"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Value(0, "lo"); got.Null || got.Int != 5 {
		t.Fatalf("MIN with a NULL input = %v, want 5", got)
	}

	if _, err := AggregatePar(tab, []string{"g"}, []AggSpec{{Func: AggSum, Col: "missing", As: "s"}}, 1); err == nil {
		t.Fatal("unknown aggregate input column should error")
	}
}

// leafOp reports which evaluator a single-comparison predicate binds to on t.
func leafOp(t *Table, p predicate.Predicate) nodeOp {
	return bind(t, predicate.Compile(p)).op
}

func TestVectorizedOverflowBoundary(t *testing.T) {
	s := predicate.NewSchema(predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true})

	// Safe boundary: |a| = (MaxInt64-1)/2, so the bound for a+a (plus the
	// guard's one-unit slack) is exactly MaxInt64 — the kernel must still
	// be bound, and must be correct.
	edge := int64((math.MaxInt64 - 1) / 2)
	safe := NewTable("s", s)
	for _, v := range []int64{edge, -edge, 0, 1} {
		safe.AppendRow(predicate.IntVal(v))
	}
	p := predtest.MustParse("a + a < 0", s)
	if op := leafOp(safe, p); op != nodeLT {
		t.Fatalf("boundary-safe comparison bound to %d, want the LT kernel", op)
	}
	want := []bool{false, true, false, false}
	for i, got := range selectProgram(safe, predicate.Compile(p), 1) {
		if got != want[i] {
			t.Fatalf("safe row %d: got %v want %v", i, got, want[i])
		}
	}

	// One past the boundary: a = 2^62 makes a+a wrap to MinInt64, which the
	// wrapping kernel would accept as < 0. The leaf must bind to Eval, which
	// rejects every row (2^63 > 0).
	big := NewTable("b", s)
	for _, v := range []int64{1 << 62, (1 << 62) + 5} {
		big.AppendRow(predicate.IntVal(v))
	}
	if op := leafOp(big, p); op != nodeEval {
		t.Fatalf("overflowing comparison bound to %d, want Eval", op)
	}
	for i, got := range selectProgram(big, predicate.Compile(p), 1) {
		if got {
			t.Fatalf("row %d: 2·2⁶² is positive and must be rejected", i)
		}
	}

	// Large coefficient instead of large values: 4*a with a near 2^61.
	big2 := NewTable("b2", s)
	big2.AppendRow(predicate.IntVal(1 << 61))
	p4 := predtest.MustParse("4*a < 1", s)
	if op := leafOp(big2, p4); op != nodeEval {
		t.Fatalf("4·2⁶¹ overflows; bound to %d, want Eval", op)
	}
	if sel := selectProgram(big2, predicate.Compile(p4), 1); sel[0] {
		t.Fatal("4·2⁶¹ is positive and must be rejected")
	}

	// Only the overflowing leaf leaves the kernels: its sibling in the same
	// conjunction keeps them.
	both := bind(big, predicate.Compile(predtest.MustParse("a + a < 0 AND a > 5", s)))
	if both.kids[0].op != nodeEval || both.kids[1].op != nodeLT {
		t.Fatalf("leaf kinds %d, %d; want Eval then the LT kernel", both.kids[0].op, both.kids[1].op)
	}

	// The magnitude bound must survive columnar copies (gather carries it),
	// so a filtered subset of an overflow-prone table still refuses the
	// wrapping kernel.
	sub := FilterPar(big, predtest.MustParse("a >= 0", s), 1)
	if sub.NumRows() != 2 {
		t.Fatalf("filter kept %d rows", sub.NumRows())
	}
	if op := leafOp(sub, p); op != nodeEval {
		t.Fatal("gathered copy lost the overflow guard")
	}
}
