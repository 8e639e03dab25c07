// null_semantics demonstrates why Sia verifies candidates under SQL's
// three-valued logic (§5.2): a predicate that is a correct implication on
// NULL-free data may silently drop rows once NULLs appear, so validity
// depends on the catalog's nullability.
//
// Run with: go run ./examples/null_semantics
package main

import (
	"context"
	"fmt"
	"log"

	"sia"
	"sia/internal/predicate"
)

func main() {
	// p is TRUE whenever b is non-NULL (b = b), regardless of a — even
	// when a is NULL. The candidate (a = a) is TRUE only when a is
	// non-NULL.
	const pSrc = "a > 0 OR b = b"
	const candSrc = "a = a"

	run := func(name string, schema *sia.Schema) {
		p, err := sia.ParsePredicate(pSrc, schema)
		if err != nil {
			log.Fatal(err)
		}
		cand, err := sia.ParsePredicate(candSrc, schema)
		if err != nil {
			log.Fatal(err)
		}
		valid, err := sia.VerifyReductionContext(context.Background(), p, cand, schema)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s p = %q implies candidate %q?  %v\n", name, pSrc, candSrc, valid)
	}

	notNull := sia.NewSchema(sia.Int("a"), sia.Int("b"))
	nullable := sia.NewSchema(sia.Nullable(sia.Int("a")), sia.Nullable(sia.Int("b")))
	run("NOT NULL columns:", notNull)
	run("nullable columns:", nullable)

	// Show the counter-example concretely with the evaluator.
	p, _ := sia.ParsePredicate(pSrc, nullable)
	cand, _ := sia.ParsePredicate(candSrc, nullable)
	tuple := sia.Tuple{"a": predicate.NullValue(), "b": predicate.IntVal(0)}
	fmt.Printf("\ncounter-example tuple {a: NULL, b: 0}:\n")
	fmt.Printf("  p evaluates to      %v  (accepted)\n", predicate.Eval(p, tuple))
	fmt.Printf("  candidate evaluates %v  (NOT accepted — the implication breaks)\n", predicate.Eval(cand, tuple))
	fmt.Println("\nOn a NOT NULL catalog (like TPC-H) the tuple cannot exist, so the")
	fmt.Println("candidate is a perfectly valid reduction there.")
}
