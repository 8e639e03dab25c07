// Package workload generates the paper's benchmark: 200 queries derived
// from (a sub-query of) TPC-H Q4 with randomly generated conjunctive
// predicates (§6.3). Every query follows the template
//
//	SELECT * FROM lineitem, orders
//	WHERE o_orderkey = l_orderkey AND <predicate>
//
// where <predicate> is a conjunction of 3–8 binary arithmetic comparisons
// over l_shipdate, l_commitdate, l_receiptdate and o_orderdate, each term
// referencing o_orderdate (so no term can be pushed below the join to
// lineitem as written). Unsatisfiable predicates are re-generated, exactly
// as in the paper.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"sia/internal/core"
	"sia/internal/predicate"
	"sia/internal/smt"
	"sia/internal/tpch"
)

// LineitemDateCols are the lineitem columns predicates draw from; the
// efficacy experiment synthesizes predicates over every non-empty subset.
var LineitemDateCols = []string{"l_shipdate", "l_commitdate", "l_receiptdate"}

// Query is one generated benchmark query.
type Query struct {
	ID   int
	Pred predicate.Predicate
}

// SQL renders the full statement.
func (q Query) SQL() string {
	return fmt.Sprintf("SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND %s", q.Pred)
}

// Config controls generation.
type Config struct {
	// N is the number of queries (paper: 200).
	N int
	// Seed fixes the random stream; 0 uses a default.
	Seed int64
	// MinTerms and MaxTerms bound the conjunction size (paper: 3–8).
	MinTerms, MaxTerms int
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 200
	}
	if c.Seed == 0 {
		c.Seed = 20210620 // SIGMOD '21 started June 20.
	}
	if c.MinTerms == 0 {
		c.MinTerms = 3
	}
	if c.MaxTerms == 0 {
		c.MaxTerms = 8
	}
	return c
}

// Generate produces the benchmark queries. Each predicate is checked for
// satisfiability with the solver and re-drawn if unsatisfiable.
func Generate(cfg Config) []Query {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := tpch.JoinSchema()
	solver := smt.New()
	var out []Query
	for id := 1; len(out) < cfg.N; id++ {
		nTerms := cfg.MinTerms + rng.Intn(cfg.MaxTerms-cfg.MinTerms+1)
		var terms []predicate.Predicate
		for i := 0; i < nTerms; i++ {
			terms = append(terms, randomTerm(rng, schema))
		}
		p := predicate.NewAnd(terms...)
		if !satisfiable(solver, p, schema) {
			continue
		}
		out = append(out, Query{ID: len(out) + 1, Pred: p})
	}
	return out
}

// randomTerm draws one binary comparison per the template's shapes. Every
// shape references o_orderdate, so the raw term cannot be pushed to
// lineitem.
func randomTerm(rng *rand.Rand, schema *predicate.Schema) predicate.Predicate {
	ops := []predicate.CmpOp{predicate.CmpLT, predicate.CmpLE, predicate.CmpGT, predicate.CmpGE}
	op := ops[rng.Intn(len(ops))]
	order := predicate.Col("o_orderdate", predicate.TypeDate)
	lcol := func() *predicate.ColumnRef {
		return predicate.Col(LineitemDateCols[rng.Intn(len(LineitemDateCols))], predicate.TypeDate)
	}
	interval := func(lo, hi int64) *predicate.Const {
		return predicate.IntConst(lo + rng.Int63n(hi-lo+1))
	}
	dateConst := func() *predicate.Const {
		// Dates within the populated window (1992-06 .. 1998-06).
		lo := predicate.DateToDays(1992, 6, 1)
		hi := predicate.DateToDays(1998, 6, 1)
		return predicate.DateConst(lo + rng.Int63n(hi-lo+1))
	}
	switch r := rng.Float64(); {
	case r < 0.15:
		// o_orderdate CMP date
		return predicate.Cmp(op, order, dateConst())
	case r < 0.30:
		// X - o_orderdate CMP interval
		return predicate.Cmp(op, predicate.Sub(lcol(), order), interval(-30, 150))
	case r < 0.55:
		// X - Y CMP Y - o_orderdate + interval — the §2 form; after
		// linearization Y carries coefficient 2, putting the term outside
		// the transitive-closure fragment.
		a := lcol()
		b := lcol()
		return predicate.Cmp(op,
			predicate.Sub(a, b),
			predicate.Add(predicate.Sub(b, order), interval(-40, 60)))
	case r < 0.75:
		// X - o_orderdate CMP Y - o_orderdate + interval
		return predicate.Cmp(op,
			predicate.Sub(lcol(), order),
			predicate.Add(predicate.Sub(lcol(), order), interval(-40, 60)))
	case r < 0.90:
		// X - Y CMP Z - o_orderdate + interval (up to four columns)
		a, b := lcol(), lcol()
		return predicate.Cmp(op,
			predicate.Sub(a, b),
			predicate.Add(predicate.Sub(lcol(), order), interval(-40, 60)))
	default:
		// o_orderdate - X CMP interval
		return predicate.Cmp(op, predicate.Sub(order, lcol()), interval(-150, 30))
	}
}

func satisfiable(solver *smt.Solver, p predicate.Predicate, schema *predicate.Schema) bool {
	f, err := core.EncodePredicate(p, schema)
	if err != nil {
		return false
	}
	sat, err := solver.SatisfiableCtx(context.Background(), f)
	return err == nil && sat
}
