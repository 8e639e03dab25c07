package workload

import (
	"context"
	"strings"
	"testing"

	"sia/internal/core"
	"sia/internal/predicate"
	"sia/internal/smt"
	"sia/internal/tpch"
)

func TestGenerateCountAndDeterminism(t *testing.T) {
	a := Generate(Config{N: 25})
	b := Generate(Config{N: 25})
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Pred.String() != b[i].Pred.String() {
			t.Fatalf("query %d differs across runs", i)
		}
	}
}

func TestGeneratedQueriesFollowTemplate(t *testing.T) {
	schema := tpch.JoinSchema()
	solver := smt.New()
	for _, q := range Generate(Config{N: 40}) {
		conjs := predicate.Conjuncts(q.Pred)
		if len(conjs) < 3 || len(conjs) > 8 {
			t.Fatalf("query %d has %d terms, want 3-8", q.ID, len(conjs))
		}
		// Every term must reference o_orderdate (so the raw predicate
		// cannot be pushed to lineitem).
		for _, c := range conjs {
			found := false
			for _, col := range predicate.Columns(c) {
				if col == "o_orderdate" {
					found = true
				}
			}
			if !found {
				t.Fatalf("query %d term %q does not reference o_orderdate", q.ID, c)
			}
		}
		// Satisfiability was the generator's contract.
		f, err := core.EncodePredicate(q.Pred, schema)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		sat, err := solver.SatisfiableCtx(context.Background(), f)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		if !sat {
			t.Fatalf("query %d is unsatisfiable: %s", q.ID, q.Pred)
		}
		// The SQL rendering contains the join template.
		if !strings.Contains(q.SQL(), "o_orderkey = l_orderkey") {
			t.Fatalf("query %d SQL missing join: %s", q.ID, q.SQL())
		}
	}
}

func TestGeneratedQueriesParseable(t *testing.T) {
	// Each rendered predicate must survive a parse round trip against the
	// TPC-H schema.
	schema := tpch.JoinSchema()
	for _, q := range Generate(Config{N: 20}) {
		if _, err := predicate.Parse(q.Pred.String(), schema); err != nil {
			t.Fatalf("query %d does not re-parse: %v\n%s", q.ID, err, q.Pred)
		}
	}
}
