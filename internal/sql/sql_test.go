package sql

import (
	"strings"
	"testing"

	"sia/internal/plan"
	"sia/internal/predicate"
	"sia/internal/predtest"
	"sia/internal/tpch"
)

func testCatalog(t *testing.T) *plan.Catalog {
	t.Helper()
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 0.01})
	cat := plan.NewCatalog()
	cat.Add(orders)
	cat.Add(lineitem)
	return cat
}

func TestParseBenchmarkTemplate(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(`SELECT * FROM lineitem, orders
		WHERE o_orderkey = l_orderkey
		AND l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 || q.Tables[0] != "lineitem" || q.Tables[1] != "orders" {
		t.Fatalf("tables = %v", q.Tables)
	}
	if q.SelectCols != nil || q.CountStar {
		t.Fatalf("expected SELECT *: %+v", q)
	}
	if got := len(predicate.Conjuncts(q.Where)); got != 3 {
		t.Fatalf("conjuncts = %d", got)
	}
}

func TestParseSelectList(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse("SELECT l_orderkey, l_shipdate FROM lineitem WHERE l_quantity > 10", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.SelectCols) != 2 {
		t.Fatalf("select cols = %v", q.SelectCols)
	}
	qc, err := Parse("SELECT COUNT(*) FROM lineitem WHERE l_quantity > 10", cat)
	if err != nil {
		t.Fatal(err)
	}
	if !qc.CountStar {
		t.Fatal("COUNT(*) not detected")
	}
}

func TestParseGroupBy(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse("SELECT l_orderkey FROM lineitem WHERE l_quantity > 0 GROUP BY l_orderkey", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "l_orderkey" {
		t.Fatalf("group by = %v", q.GroupBy)
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog(t)
	for _, tc := range []struct{ stmt, want string }{
		{"DELETE FROM lineitem", "must start with SELECT"},
		{"SELECT * FROM nope WHERE 1 = 1", "nope"},
		{"SELECT zzz FROM lineitem", "unknown column"},
		{"SELECT * FROM lineitem WHERE zzz > 1", "zzz"},
		{"SELECT *", "missing FROM"},
		{"SELECT * FROM lineitem GROUP BY zzz", "unknown column"},
		{"SELECT a FROM WHERE a > 1", "empty FROM clause"},
	} {
		if _, err := Parse(tc.stmt, cat); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", tc.stmt, err, tc.want)
		}
	}
}

func TestPlanJoinExtraction(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(`SELECT * FROM lineitem, orders
		WHERE o_orderkey = l_orderkey AND o_orderdate < DATE '1995-01-01'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	node, err := q.Plan(cat)
	if err != nil {
		t.Fatal(err)
	}
	explained := plan.Explain(node)
	if !strings.Contains(explained, "HashJoin") {
		t.Fatalf("join not extracted:\n%s", explained)
	}
	// The join condition must not linger in the filter.
	if strings.Contains(explained, "o_orderkey = l_orderkey") {
		t.Fatalf("join condition left in filter:\n%s", explained)
	}
	out, _, err := plan.ExecuteOpts(node, cat, plan.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() == 0 {
		t.Fatal("no rows")
	}
}

func TestPlanExecutionMatchesSemantics(t *testing.T) {
	// Join + filter through the planner must agree with a brute-force
	// nested-loop evaluation of the predicate.
	cat := testCatalog(t)
	where := "o_orderkey = l_orderkey AND l_shipdate - o_orderdate < 30 AND o_orderdate < DATE '1994-01-01'"
	q, err := Parse("SELECT * FROM lineitem, orders WHERE "+where, cat)
	if err != nil {
		t.Fatal(err)
	}
	node, err := q.Plan(cat)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := plan.ExecuteOpts(node, cat, plan.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	lineitem, _ := cat.Table("lineitem")
	orders, _ := cat.Table("orders")
	pred := predtest.MustParse(where, q.Schema)
	want := 0
	for i := 0; i < lineitem.NumRows(); i++ {
		li := lineitem.Tuple(i)
		for j := 0; j < orders.NumRows(); j++ {
			tu := predicate.Tuple{}
			for k, v := range li {
				tu[k] = v
			}
			for k, v := range orders.Tuple(j) {
				tu[k] = v
			}
			if predicate.Satisfies(pred, tu) {
				want++
			}
		}
	}
	if out.NumRows() != want {
		t.Fatalf("planned execution returned %d rows, nested-loop reference %d", out.NumRows(), want)
	}
}

func TestPlanCountStar(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse("SELECT COUNT(*) FROM lineitem WHERE l_quantity > 25", cat)
	if err != nil {
		t.Fatal(err)
	}
	node, err := q.Plan(cat)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := plan.ExecuteOpts(node, cat, plan.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("COUNT(*) returned %d rows", out.NumRows())
	}
	lineitem, _ := cat.Table("lineitem")
	want := int64(0)
	for i := 0; i < lineitem.NumRows(); i++ {
		if lineitem.Value(i, "l_quantity").Int > 25 {
			want++
		}
	}
	if got := out.Value(0, "count").Int; got != want {
		t.Fatalf("COUNT(*) = %d, want %d", got, want)
	}
}

func TestPlanCrossJoinRejected(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse("SELECT * FROM lineitem, orders WHERE l_quantity > 0", cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Plan(cat); err == nil {
		t.Fatal("cross join should be rejected")
	}
}
