package plan

import (
	"strings"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/predtest"
	"sia/internal/tpch"
)

func smallCatalog(t *testing.T) *Catalog {
	t.Helper()
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 0.02})
	cat := NewCatalog()
	cat.Add(orders)
	cat.Add(lineitem)
	return cat
}

func joinQueryPlan(t *testing.T, cat *Catalog, where string) Node {
	t.Helper()
	schema := tpch.JoinSchema()
	pred := predtest.MustParse(where, schema)
	l, err := NewScan(cat, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewScan(cat, "orders")
	if err != nil {
		t.Fatal(err)
	}
	return &Filter{
		Pred:  pred,
		Input: &Join{Left: l, Right: o, LeftKey: "l_orderkey", RightKey: "o_orderkey"},
	}
}

func TestExecuteJoinFilter(t *testing.T) {
	cat := smallCatalog(t)
	p := joinQueryPlan(t, cat, "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'")
	out, stats, err := ExecuteOpts(p, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() == 0 {
		t.Fatal("query should return rows on TPC-H-correlated data")
	}
	if stats.JoinInputRows == 0 || stats.OutputRows != out.NumRows() {
		t.Fatalf("stats wrong: %+v", stats)
	}
	// Every output row must satisfy the predicate.
	schema := tpch.JoinSchema()
	pred := predtest.MustParse("l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'", schema)
	for row := 0; row < out.NumRows() && row < 50; row++ {
		if !predicate.Satisfies(pred, out.Tuple(row)) {
			t.Fatalf("row %d violates predicate", row)
		}
	}
}

func TestPushDownEquivalence(t *testing.T) {
	// The pushed-down plan must return exactly the same multiset of rows.
	cat := smallCatalog(t)
	where := "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' AND l_commitdate - l_shipdate < 29"
	orig := joinQueryPlan(t, cat, where)
	pushed := PushDownFilters(orig)

	a, _, err := ExecuteOpts(orig, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ExecuteOpts(pushed, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("pushdown changed results: %d vs %d rows", a.NumRows(), b.NumRows())
	}
	// The pushed plan must actually have moved single-table conjuncts.
	explained := Explain(pushed)
	if !strings.Contains(explained, "HashJoin") {
		t.Fatalf("plan lost its join:\n%s", explained)
	}
	joinLine := strings.Index(explained, "HashJoin")
	if !strings.Contains(explained[joinLine:], "Filter") {
		t.Fatalf("expected a filter below the join:\n%s", explained)
	}
}

func TestPushDownReducesJoinInput(t *testing.T) {
	cat := smallCatalog(t)
	where := "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' AND l_shipdate < DATE '1993-06-20'"
	orig := joinQueryPlan(t, cat, where)
	pushed := PushDownFilters(orig)
	_, so, err := ExecuteOpts(orig, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, sp, err := ExecuteOpts(pushed, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.JoinInputRows >= so.JoinInputRows {
		t.Fatalf("pushdown did not reduce join input: %d vs %d", sp.JoinInputRows, so.JoinInputRows)
	}
}

func TestPushDownBelowAggregate(t *testing.T) {
	cat := smallCatalog(t)
	li, _ := NewScan(cat, "lineitem")
	agg := &Aggregate{
		GroupBy: []string{"l_orderkey"},
		Aggs:    []engine.AggSpec{{Func: engine.AggCount, As: "n"}},
		Input:   li,
	}
	pred := predtest.MustParse("l_orderkey < 100", predicate.NewSchema(
		predicate.Column{Name: "l_orderkey", Type: predicate.TypeInteger, NotNull: true},
	))
	plan := &Filter{Pred: pred, Input: agg}
	pushed := PushDownFilters(plan)
	// The filter must now sit below the aggregate.
	if _, ok := pushed.(*Aggregate); !ok {
		t.Fatalf("expected Aggregate at the root, got:\n%s", Explain(pushed))
	}
	a, _, err := ExecuteOpts(plan, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ExecuteOpts(pushed, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("aggregation pushdown changed results: %d vs %d", a.NumRows(), b.NumRows())
	}
}

func TestConstantPropagation(t *testing.T) {
	s := predicate.NewSchema(
		predicate.Column{Name: "x", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "y", Type: predicate.TypeInteger, NotNull: true},
	)
	p := predtest.MustParse("x = 5 AND x + y = 20 AND NOT (x > y)", s)
	out := ConstantPropagation(p)
	// After propagation, no conjunct but the defining one mentions x,
	// including the one under NOT.
	conjs := predicate.Conjuncts(out)
	if len(conjs) != 3 {
		t.Fatalf("conjunct count changed: %s", out)
	}
	for _, c := range conjs[1:] {
		if got := predicate.Columns(c); len(got) != 1 || got[0] != "y" {
			t.Fatalf("x not propagated into %s: %s", c, out)
		}
	}
	// Semantics preserved.
	for _, tu := range []predicate.Tuple{
		{"x": predicate.IntVal(5), "y": predicate.IntVal(15)},
		{"x": predicate.IntVal(5), "y": predicate.IntVal(14)},
		{"x": predicate.IntVal(4), "y": predicate.IntVal(16)},
	} {
		if predicate.Eval(p, tu) != predicate.Eval(out, tu) {
			t.Fatalf("propagation changed semantics on %v", tu)
		}
	}
	// No equality: unchanged.
	q := predtest.MustParse("x < 5 AND y > 2", s)
	if ConstantPropagation(q) != q {
		t.Fatal("propagation should be identity without equalities")
	}
}

func TestTransitiveClosureReduce(t *testing.T) {
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "c", Type: predicate.TypeInteger, NotNull: true},
	)
	// a - b <= 3 and b <= 7 give a <= 10.
	p := predtest.MustParse("a - b <= 3 AND b <= 7 AND c > 100", s)
	out := TransitiveClosureReduce(p, []string{"a"})
	if out == nil {
		t.Fatal("expected a derived bound on a")
	}
	if !predicate.UsesOnly(out, []string{"a"}) {
		t.Fatalf("derived predicate uses extra columns: %s", out)
	}
	if !predicate.Satisfies(out, predicate.Tuple{"a": predicate.IntVal(10)}) {
		t.Fatalf("a=10 should satisfy %s", out)
	}
	if predicate.Satisfies(out, predicate.Tuple{"a": predicate.IntVal(11)}) {
		t.Fatalf("a=11 should not satisfy %s", out)
	}
	// Chains: a - b < 3, b - c < 4, c < 5 -> a < 12 over {a} via two hops.
	p2 := predtest.MustParse("a - b < 3 AND b - c < 4 AND c < 5", s)
	out2 := TransitiveClosureReduce(p2, []string{"a"})
	if out2 == nil {
		t.Fatal("expected a chained bound on a")
	}
	if !predicate.Satisfies(out2, predicate.Tuple{"a": predicate.IntVal(9)}) {
		t.Fatalf("a=9 satisfies the chain (b=7,c=4) but %s rejects it", out2)
	}
	// The paper's §2 point: arithmetic outside the difference fragment is
	// ignored, so nothing is derivable here.
	p3 := predtest.MustParse("a - 2*b < 3 AND b < 5", s)
	if got := TransitiveClosureReduce(p3, []string{"a"}); got != nil {
		t.Fatalf("coefficient 2 is outside the fragment, got %s", got)
	}
}

func TestTransitiveClosureSoundness(t *testing.T) {
	// Every derived predicate must be implied by the original: check by
	// exhaustive small-domain enumeration.
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
	)
	cases := []string{
		"a - b <= 3 AND b <= 7",
		"a - b < 3 AND b < 7",
		"a = b AND b <= 4",
		"a - b <= -2 AND b <= 0 AND a >= -30",
	}
	for _, src := range cases {
		p := predtest.MustParse(src, s)
		derived := TransitiveClosureReduce(p, []string{"a", "b"})
		if derived == nil {
			continue
		}
		for a := int64(-12); a <= 12; a++ {
			for b := int64(-12); b <= 12; b++ {
				tu := predicate.Tuple{"a": predicate.IntVal(a), "b": predicate.IntVal(b)}
				if predicate.Satisfies(p, tu) && !predicate.Satisfies(derived, tu) {
					t.Fatalf("%s: derived %s rejects satisfying tuple %v", src, derived, tu)
				}
			}
		}
	}
}

func TestExplain(t *testing.T) {
	cat := smallCatalog(t)
	p := joinQueryPlan(t, cat, "o_orderdate < DATE '1993-06-01'")
	out := Explain(PushDownFilters(p))
	for _, want := range []string{"HashJoin", "Filter", "Scan lineitem", "Scan orders"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}
