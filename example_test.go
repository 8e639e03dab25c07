package sia_test

import (
	"context"
	"fmt"
	"time"

	"sia"
)

// ExampleSynthesizeContext reproduces the paper's running example (TPC-H
// Q4, §2): reducing a three-column predicate to just l_shipdate and
// l_commitdate so it can be pushed below the join.
func ExampleSynthesizeContext() {
	schema := sia.NewSchema(
		sia.Date("l_shipdate"), sia.Date("l_commitdate"), sia.Date("o_orderdate"),
	)
	pred, err := sia.ParsePredicate(`l_shipdate - o_orderdate < 20
		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10
		AND o_orderdate < DATE '1993-06-01'`, schema)
	if err != nil {
		fmt.Println(err)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := sia.SynthesizeContext(ctx, pred, []string{"l_commitdate", "l_shipdate"}, schema, sia.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Predicate)
	fmt.Println("valid:", res.Valid)
	// Output:
	// -1 * l_commitdate + l_shipdate + 29 > 0 AND -1 * l_shipdate + 536 > 0
	// valid: true
}

// ExampleVerifyReductionContext checks a hand-written rewrite: the
// candidate must be implied by the original predicate under SQL's
// three-valued logic.
func ExampleVerifyReductionContext() {
	schema := sia.NewSchema(sia.Int("a"), sia.Int("b"))
	pred, _ := sia.ParsePredicate("a - b < 20 AND b < 0", schema)
	good, _ := sia.ParsePredicate("a < 20", schema)
	bad, _ := sia.ParsePredicate("a < 10", schema)

	ok, err := sia.VerifyReductionContext(context.Background(), pred, good, schema)
	fmt.Println(ok, err)
	ok, err = sia.VerifyReductionContext(context.Background(), pred, bad, schema)
	fmt.Println(ok, err)
	// Output:
	// true <nil>
	// false <nil>
}
