package plan

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/engine"
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

	synth := cache.NewSynthesizer(0)
	rewritten, infos, err := SiaRewrite(context.Background(), node, schema, synth, core.PresetSIA())
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
	// The join key is the HashJoin's alone: no filter re-checks it on
	// every matched pair.
	for _, line := range strings.Split(explained, "\n") {
		if strings.Contains(line, "Filter") && (strings.Contains(line, "l_orderkey") || strings.Contains(line, "o_orderkey")) {
			t.Fatalf("join key left in a filter:\n%s", explained)
		}
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
	if got, want := rowCounts(rwTable), rowCounts(origTable); !maps.Equal(got, want) {
		t.Fatalf("rewrite changed results: %d vs %d rows", rwTable.NumRows(), origTable.NumRows())
	}
	if rwStats.JoinInputRows >= origStats.JoinInputRows {
		t.Fatalf("rewrite did not reduce join input: %d vs %d", rwStats.JoinInputRows, origStats.JoinInputRows)
	}

	// A second rewrite of an equal plan through the same synthesizer runs
	// no CEGIS loop and yields the same plan.
	stats := synth.Stats()
	again, _, err := SiaRewrite(context.Background(), joinQueryPlan(t, cat, where), schema, synth, core.PresetSIA())
	if err != nil {
		t.Fatal(err)
	}
	if after := synth.Stats(); after.Misses != stats.Misses || after.Hits == stats.Hits {
		t.Fatalf("repeat rewrite missed the cache: %+v then %+v", stats, after)
	}
	if got := Explain(PushDownFilters(again)); got != explained {
		t.Fatalf("repeat rewrite differs:\n%s\nvs\n%s", got, explained)
	}
}

// rowCounts is t's rows as a multiset: the rewrite may flip the join's
// build and probe sides, which reorders its output.
func rowCounts(t *engine.Table) map[string]int {
	out := map[string]int{}
	for r := 0; r < t.NumRows(); r++ {
		var sb strings.Builder
		for _, c := range t.Schema().Columns() {
			fmt.Fprintf(&sb, "%v|", t.Value(r, c.Name))
		}
		out[sb.String()]++
	}
	return out
}

func TestSiaRewriteSkipsImpliedPredicates(t *testing.T) {
	cat := smallCatalog(t)
	schema := tpch.JoinSchema()
	// o_orderdate already has a single-side bound; the only cross-table
	// conjunct constrains l_shipdate. Synthesis on the orders side must
	// not duplicate the existing bound.
	where := "l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01'"
	node := joinQueryPlan(t, cat, where)
	rewritten, _, err := SiaRewrite(context.Background(), node, schema, cache.NewSynthesizer(0), core.PresetSIA())
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
	out, infos, err := SiaRewrite(context.Background(), f, tpch.LineitemSchema(), cache.NewSynthesizer(0), core.PresetSIA())
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
