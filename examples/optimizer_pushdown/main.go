// optimizer_pushdown showcases the predicate-centric rewrite rules the
// synthesized predicates unlock (§1 of the paper): pushdown below joins,
// pushdown below aggregation, constant propagation, and the syntax-driven
// transitive-closure baseline that Sia subsumes.
//
// Run with: go run ./examples/optimizer_pushdown
package main

import (
	"fmt"
	"log"

	"sia/internal/engine"
	"sia/internal/plan"
	"sia/internal/predicate"
	"sia/internal/tpch"
)

// parse parses a static predicate, exiting on error: the example's inputs
// are fixed strings, so a parse failure is a bug in the example itself.
func parse(input string, schema *predicate.Schema) predicate.Predicate {
	p, err := predicate.Parse(input, schema)
	if err != nil {
		log.Fatalf("optimizer_pushdown: %v", err)
	}
	return p
}

func main() {
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 0.5})
	cat := plan.NewCatalog()
	cat.Add(orders)
	cat.Add(lineitem)
	schema := tpch.JoinSchema()

	fmt.Println("== 1. Pushdown below a join ==")
	pred := parse(
		"o_orderdate < DATE '1994-01-01' AND l_shipdate < DATE '1994-06-01' AND l_shipdate - o_orderdate < 60",
		schema)
	li, _ := plan.NewScan(cat, "lineitem")
	od, _ := plan.NewScan(cat, "orders")
	join := &plan.Join{Left: li, Right: od, LeftKey: "l_orderkey", RightKey: "o_orderkey"}
	before := &plan.Filter{Pred: pred, Input: join}
	after := plan.PushDownFilters(before)
	fmt.Println("before:")
	fmt.Print(plan.Explain(before))
	fmt.Println("after (single-table conjuncts moved below the join; the cross-table one stays):")
	fmt.Print(plan.Explain(after))

	fmt.Println("== 2. Pushdown below aggregation ==")
	agg := &plan.Aggregate{
		GroupBy: []string{"l_orderkey"},
		Aggs:    []engine.AggSpec{{Func: engine.AggCount, As: "items"}, {Func: engine.AggSum, Col: "l_quantity", As: "qty"}},
		Input:   li,
	}
	groupFilter := parse("l_orderkey < 1000", tpch.LineitemSchema())
	aggPlan := &plan.Filter{Pred: groupFilter, Input: agg}
	fmt.Println("before:")
	fmt.Print(plan.Explain(aggPlan))
	fmt.Println("after (the GROUP-BY-column filter moved below the aggregate):")
	fmt.Print(plan.Explain(plan.PushDownFilters(aggPlan)))

	fmt.Println("== 3. Constant propagation ==")
	cp := parse("l_quantity = 5 AND l_quantity + l_extendedprice > 20", tpch.LineitemSchema())
	fmt.Printf("before: %v\nafter:  %v\n\n", cp, plan.ConstantPropagation(cp))

	fmt.Println("== 4. Transitive closure (the paper's syntax-driven baseline) ==")
	tc := parse(
		"l_shipdate - o_orderdate <= 19 AND o_orderdate <= DATE '1993-05-31'", schema)
	derived := plan.TransitiveClosureReduce(tc, []string{"l_shipdate"})
	fmt.Printf("from:    %v\nderived: %v\n", tc, derived)
	fmt.Println("\nBut give it the arithmetic form from the paper's §2 and it derives nothing")
	fmt.Println("(coefficients != ±1 are outside the difference-constraint fragment):")
	hard := parse(
		"l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10 AND o_orderdate < DATE '1993-06-01'", schema)
	if got := plan.TransitiveClosureReduce(hard, []string{"l_commitdate", "l_shipdate"}); got == nil {
		fmt.Println("derived: <nothing> — this is the gap Sia's learned predicates fill")
	} else {
		log.Fatalf("unexpected derivation: %v", got)
	}

	// Sanity: both plans of part 1 return identical results.
	a, _, err := plan.ExecuteOpts(before, cat, plan.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	b, _, err := plan.ExecuteOpts(after, cat, plan.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if a.NumRows() != b.NumRows() {
		log.Fatalf("pushdown changed results: %d vs %d", a.NumRows(), b.NumRows())
	}
	fmt.Printf("\npushdown sanity check: both plans return %d rows\n", a.NumRows())
}
