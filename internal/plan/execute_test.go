package plan

import (
	"fmt"
	"slices"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/predtest"
	"sia/internal/storage"
	"sia/internal/tpch"
)

// execCatalogs returns the same orders, lineitem and customers data as an
// in-memory catalog and as a catalog of segment sources. customers is a
// third table keyed by order, with a nullable column, so that a join can
// have a filtered join as its input.
func execCatalogs(t *testing.T) map[string]*Catalog {
	t.Helper()
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 0.3, Seed: 9})
	customers := engine.NewTable("customers", predicate.NewSchema(
		predicate.Column{Name: "c_orderkey", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "c_segment", Type: predicate.TypeInteger},
	))
	keys := orders.Ints("o_orderkey")
	for i := 0; i < len(keys); i += 2 {
		seg := predicate.IntVal(keys[i] % 5)
		if i%7 == 0 {
			seg = predicate.NullValue()
		}
		customers.AppendRow(predicate.IntVal(keys[i]), seg)
	}
	mem, disk := NewCatalog(), NewCatalog()
	for _, tab := range []*engine.Table{orders, lineitem, customers} {
		mem.Add(tab)
		st, err := storage.Open(t.TempDir(), tab.Name, tab.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < tab.NumRows(); lo += 2048 {
			if err := st.AppendRange(tab, lo, min(lo+2048, tab.NumRows())); err != nil {
				t.Fatal(err)
			}
		}
		disk.AddSource(st)
	}
	return map[string]*Catalog{"memory": mem, "segments": disk}
}

// TestFusedFilterJoinMatchesUnfused checks late materialization across
// Filter→Join against the plan run operator by operator: the filter fused
// into the join as its residual equals engine.FilterPar over the full-width
// join, and an Aggregate or a Project above it, which prune the join's
// output columns, equal the same operator over that full-width table. The
// same holds when the filtered join is itself the input of another join.
func TestFusedFilterJoinMatchesUnfused(t *testing.T) {
	where := "l_shipdate - o_orderdate < 20 AND l_commitdate - o_orderdate > 25 AND o_orderdate < DATE '1995-06-01' AND l_shipdate > DATE '1992-03-01'"
	groupBy := []string{"l_linenumber"}
	aggs := []engine.AggSpec{
		{Func: engine.AggCount, As: "count"},
		{Func: engine.AggSum, Col: "l_quantity", As: "quantity"},
		{Func: engine.AggMax, Col: "o_totalprice", As: "price"},
	}
	projected := []string{"o_orderdate", "l_shipdate"}
	for name, cat := range execCatalogs(t) {
		for _, par := range []int{1, 2} {
			opts := ExecOptions{Parallelism: par}
			run := func(n Node) (*engine.Table, *ExecStats) {
				t.Helper()
				out, stats, err := ExecuteOpts(n, cat, opts)
				if err != nil {
					t.Fatalf("%s par=%d: %v", name, par, err)
				}
				return out, stats
			}
			same := func(what string, got, want *engine.Table) {
				t.Helper()
				if !engine.TablesEqual(got, want) {
					t.Errorf("%s par=%d: %s: %d rows × %d columns, want %d × %d", name, par, what,
						got.NumRows(), len(got.Schema().Columns()), want.NumRows(), len(want.Schema().Columns()))
				}
			}
			fused, ok := PushDownFilters(joinQueryPlan(t, cat, where)).(*Filter)
			if !ok {
				t.Fatal("pushdown left no residual filter above the join")
			}
			if _, onJoin := fused.Input.(*Join); !onJoin {
				t.Fatal("the residual filter does not sit on the join")
			}

			// Operator by operator: the join alone is full-width.
			wide, wideStats := run(fused.Input)
			want := engine.FilterPar(wide, fused.Pred, par)
			if want.NumRows() == 0 || want.NumRows() == wide.NumRows() {
				t.Fatalf("the residual keeps %d of %d pairs: the test needs it to cut some", want.NumRows(), wide.NumRows())
			}
			got, stats := run(fused)
			same("Filter on Join", got, want)
			if stats.JoinInputRows != wideStats.JoinInputRows {
				t.Errorf("%s par=%d: fused join input %d rows, unfused %d", name, par, stats.JoinInputRows, wideStats.JoinInputRows)
			}

			// Asked for one column, the fused join materializes one column.
			narrow, err := exec(fused, cat, &ExecStats{}, opts, groupBy)
			if err != nil {
				t.Fatal(err)
			}
			if cols := narrow.Schema().Columns(); len(cols) != 1 || cols[0].Name != groupBy[0] || narrow.NumRows() != want.NumRows() {
				t.Errorf("%s par=%d: pruned join output is %d rows of %v", name, par, narrow.NumRows(), cols)
			}

			wantAgg, err := engine.AggregatePar(want, groupBy, aggs, par)
			if err != nil {
				t.Fatal(err)
			}
			got, _ = run(&Aggregate{GroupBy: groupBy, Aggs: aggs, Input: fused})
			same("Aggregate over it", got, wantAgg)

			wantCount, err := engine.AggregatePar(want, nil, aggs[:1], par)
			if err != nil {
				t.Fatal(err)
			}
			got, _ = run(&Aggregate{Aggs: aggs[:1], Input: fused})
			same("COUNT(*) over it", got, wantCount)

			wantProj, err := engine.ProjectPar(want, projected, par)
			if err != nil {
				t.Fatal(err)
			}
			got, _ = run(&Project{Cols: projected, Input: fused})
			same("Project over it", got, wantProj)

			// The filtered join as the left input of a second join.
			customers, err := NewScan(cat, "customers")
			if err != nil {
				t.Fatal(err)
			}
			segment := predtest.MustParse("c_segment < 3", customers.Schema())
			customersTbl, _ := run(&Filter{Pred: segment, Input: customers})
			wantOuter, _, err := engine.HashJoinWherePar(want, customersTbl,
				engine.JoinSpec{LeftKey: "o_orderkey", RightKey: "c_orderkey"}, par)
			if err != nil {
				t.Fatal(err)
			}
			outer := &Join{Left: fused, Right: &Filter{Pred: segment, Input: customers}, LeftKey: "o_orderkey", RightKey: "c_orderkey"}
			got, _ = run(outer)
			same("join over the filtered join", got, wantOuter)
			outerAggs := []engine.AggSpec{{Func: engine.AggCount, As: "count"}, {Func: engine.AggMin, Col: "l_shipdate", As: "first"}}
			wantOuterAgg, err := engine.AggregatePar(wantOuter, []string{"c_segment"}, outerAggs, par)
			if err != nil {
				t.Fatal(err)
			}
			got, _ = run(&Aggregate{GroupBy: []string{"c_segment"}, Aggs: outerAggs, Input: outer})
			same("Aggregate over both joins", got, wantOuterAgg)
		}
	}
}

// TestSegmentSourcesMatchMemory runs a star statement and an aggregate
// statement over segment sources, each of which the scan asks for a
// different column set, and requires the row multisets the in-memory
// catalog gives, at par 1 and 4.
func TestSegmentSourcesMatchMemory(t *testing.T) {
	cats := execCatalogs(t)
	where := "l_shipdate - o_orderdate < 30 AND l_shipdate > DATE '1994-01-01' AND o_orderdate < DATE '1996-01-01'"
	plans := map[string]func(cat *Catalog) Node{
		"star": func(cat *Catalog) Node { return PushDownFilters(joinQueryPlan(t, cat, where)) },
		"aggregate": func(cat *Catalog) Node {
			return PushDownFilters(&Aggregate{
				GroupBy: []string{"l_linenumber"},
				Aggs:    []engine.AggSpec{{Func: engine.AggCount, As: "count"}},
				Input:   joinQueryPlan(t, cat, where),
			})
		},
	}
	for name, build := range plans {
		for _, par := range []int{1, 4} {
			run := func(cat *Catalog) *engine.Table {
				t.Helper()
				out, _, err := ExecuteOpts(build(cat), cat, ExecOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("%s par=%d: %v", name, par, err)
				}
				return out
			}
			want, got := run(cats["memory"]), run(cats["segments"])
			if want.NumRows() == 0 {
				t.Fatalf("%s: the statement returns no rows", name)
			}
			if !slices.Equal(rowMultiset(want), rowMultiset(got)) {
				t.Errorf("%s par=%d: segment sources give %d rows, memory %d", name, par, got.NumRows(), want.NumRows())
			}
		}
	}
}

// rowMultiset renders every row of t, columns in schema order, sorted.
func rowMultiset(t *engine.Table) []string {
	rows := make([]string, t.NumRows())
	for r := range rows {
		for _, c := range t.Schema().Columns() {
			rows[r] += fmt.Sprintf("%v|", t.Value(r, c.Name))
		}
	}
	slices.Sort(rows)
	return rows
}
