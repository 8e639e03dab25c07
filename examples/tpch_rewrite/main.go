// tpch_rewrite demonstrates the full pipeline on generated TPC-H data:
// parse a SQL query, let the optimizer apply the Sia rewrite rule, push
// the synthesized predicates below the join, and execute both plans to
// measure the speedup (the end-to-end flow behind the paper's Fig. 9).
//
// Run with: go run ./examples/tpch_rewrite [-scale 2]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/plan"
	"sia/internal/sql"
	"sia/internal/tpch"
)

func main() {
	scale := flag.Float64("scale", 2, "data scale factor (x15k orders)")
	flag.Parse()

	fmt.Printf("generating TPC-H data at scale %g...\n", *scale)
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: *scale})
	cat := plan.NewCatalog()
	cat.Add(orders)
	cat.Add(lineitem)
	fmt.Printf("orders: %d rows, lineitem: %d rows\n\n", orders.NumRows(), lineitem.NumRows())

	stmt := `SELECT * FROM lineitem, orders
		WHERE o_orderkey = l_orderkey
		AND l_shipdate - o_orderdate < 20
		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10
		AND o_orderdate < DATE '1993-06-01'`
	fmt.Println("query:")
	fmt.Println(stmt)
	fmt.Println()

	parsed, err := sql.Parse(stmt, cat)
	if err != nil {
		log.Fatal(err)
	}
	node, err := parsed.Plan(cat)
	if err != nil {
		log.Fatal(err)
	}

	// Plain optimization: pushdown alone cannot move anything to
	// lineitem (every conjunct touches o_orderdate).
	origPlan := plan.PushDownFilters(node)
	fmt.Println("plan without Sia:")
	fmt.Print(plan.Explain(origPlan))

	// The Sia rule synthesizes per-side reductions (through a synthesis
	// cache, as an optimizer would keep one) and conjoins them; pushdown
	// then moves them below the join.
	rewritten, infos, err := plan.SiaRewrite(context.Background(), node, parsed.Schema, cache.NewSynthesizer(0), core.PresetSIA())
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range infos {
		if info.Result.Predicate != nil {
			fmt.Printf("\nsynthesized for the %s side (%v):\n  %v\n", info.Side, info.Cols, info.Result.Predicate)
		}
	}
	siaPlan := plan.PushDownFilters(rewritten)
	fmt.Println("\nplan with Sia:")
	fmt.Print(plan.Explain(siaPlan))

	origTable, origStats, err := plan.ExecuteOpts(origPlan, cat, plan.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	siaTable, siaStats, err := plan.ExecuteOpts(siaPlan, cat, plan.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if origTable.NumRows() != siaTable.NumRows() {
		log.Fatalf("rewrite changed the result: %d vs %d rows", origTable.NumRows(), siaTable.NumRows())
	}
	fmt.Printf("\nresults identical: %d rows\n", origTable.NumRows())
	fmt.Printf("original:  %v (join input %d rows)\n", origStats.Elapsed, origStats.JoinInputRows)
	fmt.Printf("rewritten: %v (join input %d rows)\n", siaStats.Elapsed, siaStats.JoinInputRows)
	fmt.Printf("speedup:   %.2fx\n", float64(origStats.Elapsed)/float64(siaStats.Elapsed))
}
