// Package sia is the public API of the Sia predicate synthesizer
// (Zhou et al., "Sia: Optimizing Queries using Learned Predicates",
// SIGMOD 2021). Given a SQL predicate p over columns Cols and a target
// subset Cols' ⊆ Cols, Sia learns — with an SVM guided by SMT-generated
// counter-examples — a predicate p' over only Cols' that is implied by p.
// Conjoining p' to the query preserves its semantics while letting the
// optimizer push p' below joins and aggregations.
//
// Quick start:
//
//	schema := sia.NewSchema(
//		sia.Date("l_shipdate"), sia.Date("l_commitdate"), sia.Date("o_orderdate"),
//	)
//	pred, _ := sia.ParsePredicate(`l_shipdate - o_orderdate < 20
//		AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10
//		AND o_orderdate < DATE '1993-06-01'`, schema)
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	res, _ := sia.SynthesizeContext(ctx, pred, []string{"l_commitdate", "l_shipdate"}, schema, sia.Options{})
//	fmt.Println(res.Predicate) // e.g. -1*l_commitdate + l_shipdate + 29 > 0 AND ...
//
// SynthesizeContext is the synthesis entry point: cancelling ctx (or letting
// its deadline pass) stops the loop — including a solver call in progress —
// and returns an error matching ErrTimeout. Failures are classified with
// the package's sentinel errors (ErrTimeout, ErrBudget, ErrInvalidOptions)
// so callers can dispatch with errors.Is.
//
// The heavy lifting lives in the internal packages: internal/core (the
// CEGIS loop), internal/smt (a from-scratch Presburger/linear-real solver
// standing in for Z3), internal/svm (a linear SVM), and internal/plan +
// internal/engine (a query optimizer and columnar executor used by the
// evaluation harness).
package sia

import (
	"context"

	"sia/internal/core"
	"sia/internal/predicate"
)

// Sentinel errors classifying synthesis failures. Match them with
// errors.Is; every error returned by the package's exported functions
// wraps exactly one of them or is a parse error from ParsePredicate.
var (
	// ErrTimeout reports that the caller's context was cancelled or its
	// deadline passed before synthesis finished. Errors matching it also
	// match the underlying context.Canceled or context.DeadlineExceeded.
	// (An internal Options.Timeout expiry is not an error: it returns the
	// best result so far with Result.GaveUp set.)
	ErrTimeout = core.ErrTimeout
	// ErrBudget reports that the SMT solver exhausted a structural budget
	// (formula size, elimination blow-up) from which no partial result
	// could be salvaged.
	ErrBudget = core.ErrBudget
	// ErrInvalidOptions reports malformed Options (negative budgets, a
	// MaxDenominator above core.MaxDenominatorLimit) or
	// malformed arguments (unknown target columns, nil schema).
	ErrInvalidOptions = core.ErrInvalidOptions
)

// Re-exported core types. See the internal/core and internal/predicate
// documentation for details.
type (
	// Options configures the synthesis loop (iteration budget, sample
	// counts, solver limits). The zero value is the paper's SIA
	// configuration.
	Options = core.Options
	// Result is a synthesis outcome: the learned predicate plus validity,
	// optimality, iteration and timing metadata.
	Result = core.Result
	// Predicate is a parsed boolean expression tree.
	Predicate = predicate.Predicate
	// Schema declares column names, types and nullability.
	Schema = predicate.Schema
	// Column declares one column.
	Column = predicate.Column
	// Tuple maps column names to values for evaluation.
	Tuple = predicate.Tuple
)

// SynthesizeContext learns a valid (and, when the loop converges, optimal)
// dimensionality reduction of p to cols. The CEGIS loop polls ctx between
// and during solver calls, so cancelling ctx or exceeding its deadline
// aborts promptly with an error matching ErrTimeout (and ctx.Err()). See
// core.SynthesizeContext.
func SynthesizeContext(ctx context.Context, p Predicate, cols []string, schema *Schema, opts Options) (*Result, error) {
	return core.SynthesizeContext(ctx, p, cols, schema, opts)
}

// VerifyReductionContext reports whether candidate is implied by p under
// SQL's three-valued logic — the check Sia runs on every learned
// candidate, exposed for validating hand-written rewrites. Cancelling ctx
// aborts the solver call with an error matching ErrTimeout.
func VerifyReductionContext(ctx context.Context, p, candidate Predicate, schema *Schema) (bool, error) {
	return core.VerifyReductionContext(ctx, p, candidate, schema)
}

// ParsePredicate parses a SQL boolean expression against a schema.
func ParsePredicate(src string, schema *Schema) (Predicate, error) {
	return predicate.Parse(src, schema)
}

// NewSchema builds a schema from columns (see Int, Double, Date helpers).
func NewSchema(cols ...Column) *Schema { return predicate.NewSchema(cols...) }

// Int declares a NOT NULL integer column.
func Int(name string) Column {
	return Column{Name: name, Type: predicate.TypeInteger, NotNull: true}
}

// Double declares a NOT NULL double-precision column.
func Double(name string) Column {
	return Column{Name: name, Type: predicate.TypeDouble, NotNull: true}
}

// Date declares a NOT NULL date column (stored as days since 1992-01-01).
func Date(name string) Column {
	return Column{Name: name, Type: predicate.TypeDate, NotNull: true}
}

// Nullable marks a column as nullable; Sia's verifier then reasons about
// the predicate under SQL's three-valued logic for that column.
func Nullable(c Column) Column {
	c.NotNull = false
	return c
}

// The paper's baseline configurations (Table 1).
var (
	// PresetSIA is the full counter-example-guided configuration.
	PresetSIA = core.PresetSIA
	// PresetSIAV1 is the one-shot baseline with 110+110 samples.
	PresetSIAV1 = core.PresetSIAV1
	// PresetSIAV2 is the one-shot baseline with 220+220 samples.
	PresetSIAV2 = core.PresetSIAV2
)
