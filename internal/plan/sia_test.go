package plan

import (
	"context"
	"strings"
	"testing"

	"sia/internal/core"
	"sia/internal/predicate"
	"sia/internal/predtest"
	"sia/internal/tpch"
)

func TestSiaRewriteEndToEnd(t *testing.T) {
	cat := smallCatalog(t)
	schema := tpch.JoinSchema()
	// The §2 predicate: every conjunct references o_orderdate, so plain
	// pushdown moves nothing to lineitem; the Sia rule must.
	where := `l_shipdate - o_orderdate < 20
		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10
		AND o_orderdate < DATE '1993-06-01'`
	node := joinQueryPlan(t, cat, where)

	rewritten, infos, err := SiaRewrite(context.Background(), node, schema, core.PresetSIA())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("no synthesis attempts recorded")
	}
	var liPred predicate.Predicate
	for _, info := range infos {
		if info.Side == "left" && info.Result.Predicate != nil {
			liPred = info.Result.Predicate
		}
	}
	if liPred == nil {
		t.Fatalf("no lineitem-side predicate synthesized: %+v", infos)
	}
	if !predicate.UsesOnly(liPred, schemaCols(tpch.LineitemSchema())) {
		t.Fatalf("synthesized predicate leaks columns: %s", liPred)
	}

	// After pushdown, a filter must sit on the lineitem side.
	pushed := PushDownFilters(rewritten)
	explained := Explain(pushed)
	idx := strings.Index(explained, "Scan lineitem")
	if idx < 0 {
		t.Fatalf("plan lost lineitem:\n%s", explained)
	}
	before := explained[:idx]
	if !strings.Contains(before[strings.Index(before, "HashJoin"):], "Filter") {
		t.Fatalf("no filter above lineitem below the join:\n%s", explained)
	}

	// Semantics preserved and join input reduced.
	origTable, origStats, err := ExecuteOpts(PushDownFilters(node), cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rwTable, rwStats, err := ExecuteOpts(pushed, cat, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if origTable.NumRows() != rwTable.NumRows() {
		t.Fatalf("rewrite changed results: %d vs %d rows", origTable.NumRows(), rwTable.NumRows())
	}
	if rwStats.JoinInputRows >= origStats.JoinInputRows {
		t.Fatalf("rewrite did not reduce join input: %d vs %d", rwStats.JoinInputRows, origStats.JoinInputRows)
	}
}

func TestSiaRewriteSkipsImpliedPredicates(t *testing.T) {
	cat := smallCatalog(t)
	schema := tpch.JoinSchema()
	// o_orderdate already has a single-side bound; the only cross-table
	// conjunct constrains l_shipdate. Synthesis on the orders side must
	// not duplicate the existing bound.
	where := "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'"
	node := joinQueryPlan(t, cat, where)
	rewritten, _, err := SiaRewrite(context.Background(), node, schema, core.PresetSIA())
	if err != nil {
		t.Fatal(err)
	}
	explained := Explain(PushDownFilters(rewritten))
	if got := strings.Count(explained, "o_orderdate"); got > 2 {
		// The original bound appears once in the orders-side filter and
		// once at most in the residual; a third occurrence means a
		// redundant synthesized copy was conjoined.
		t.Fatalf("redundant orders-side predicate:\n%s", explained)
	}
}

func TestSiaRewriteNoJoinNoChange(t *testing.T) {
	cat := smallCatalog(t)
	li, err := NewScan(cat, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	f := &Filter{Pred: predtest.MustParse("l_quantity > 10", tpch.LineitemSchema()), Input: li}
	out, infos, err := SiaRewrite(context.Background(), f, tpch.LineitemSchema(), core.PresetSIA())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("no join, but synthesis ran: %+v", infos)
	}
	if Explain(out) != Explain(f) {
		t.Fatalf("plan changed without a join:\n%s", Explain(out))
	}
}
