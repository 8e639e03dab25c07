// Package maxcompute simulates the production-workload case study of §6.2.
//
// The paper examines one day of queries on Alibaba MaxCompute (a
// proprietary log of 204,287 *syntax-based prospective* queries, of which
// 26,104 are *symbolically relevant*), reporting the distributions of
// execution time, CPU consumption and memory footprint (Fig. 6), with the
// headline that 74.63% of prospective queries run longer than 10 seconds —
// long enough to amortize Sia's optimization time.
//
// The production log is unavailable, so this package synthesizes a
// population with the same *mechanics*:
//
//   - each query joins two tables whose sizes follow a heavy-tailed
//     (log-normal) distribution, as warehouse fact/dimension tables do;
//   - predicates are drawn from a shape mix: single-table only,
//     cross-table linear arithmetic (Sia's fragment), and cross-table
//     shapes outside the fragment (non-linear reuse, which Sia's encoder
//     rejects — standing in for the log's text/UDF predicates);
//   - the *classification* is not simulated: syntax-based prospectivity is
//     decided by inspecting conjunct column sets, and symbolic relevance
//     runs the real Sia unsatisfaction-tuple check on the real predicate;
//   - execution time, CPU and memory come from a scan+hash-join cost
//     model over the drawn table sizes.
//
// Absolute counts are scaled down (the harness reports the scale); the
// distribution shapes and the prospective→relevant funnel are the
// reproduced quantities.
package maxcompute

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sia/internal/core"
	"sia/internal/predicate"
	"sia/internal/smt"
)

// QueryClass classifies a simulated production query.
type QueryClass int

const (
	// ClassOther: not syntax-based prospective (no cross-table predicate,
	// or every involved table already has a single-table predicate).
	ClassOther QueryClass = iota
	// ClassProspective: has a cross-table predicate over a table with no
	// single-table predicate of its own — a full scan the optimizer
	// cannot avoid without Sia.
	ClassProspective
	// ClassRelevant: prospective and Sia generates an unsatisfaction
	// tuple, so a non-trivial pushdown predicate exists.
	ClassRelevant
)

func (c QueryClass) String() string {
	switch c {
	case ClassProspective:
		return "prospective"
	case ClassRelevant:
		return "relevant"
	default:
		return "other"
	}
}

// SimQuery is one simulated production query with its resource profile.
type SimQuery struct {
	ID    int
	Class QueryClass
	// ExecSeconds, CPUSeconds, MemoryGB are the simulated resource usage.
	ExecSeconds float64
	CPUSeconds  float64
	MemoryGB    float64
}

// Config controls the simulation.
type Config struct {
	// N is the population size (the paper's log has ~275k queries in
	// total; the default 2000 keeps the experiment fast — scale up with
	// this knob for the full funnel).
	N int
	// Seed fixes the random stream.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 2000
	}
	if c.Seed == 0 {
		c.Seed = 62
	}
	return c
}

// Simulate draws the population, classifies every query (running the real
// Sia relevance check on prospective ones) and attaches resource profiles.
func Simulate(cfg Config) ([]SimQuery, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := simSchema()
	out := make([]SimQuery, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		shape := drawShape(rng)
		pred := shape.pred
		class := ClassOther
		if shape.prospective {
			class = ClassProspective
			relevant, err := core.SymbolicallyRelevant(context.Background(), pred, shape.scanSideCols, schema)
			if err != nil && !errors.Is(err, core.ErrUnsupported) && !errors.Is(err, smt.ErrBudget) {
				return nil, fmt.Errorf("maxcompute: relevance check: %w", err)
			}
			if err == nil && relevant {
				class = ClassRelevant
			}
		}

		// Table sizes: log-normal rows, heavier tail for fact tables.
		factRows := math.Exp(rng.NormFloat64()*1.6 + 18.2) // median ~80M rows
		dimRows := math.Exp(rng.NormFloat64()*1.4 + 14.8)  // median ~2.7M rows
		const (
			scanRowsPerSec = 40e6 // columnar scan throughput per core
			cores          = 16
			bytesPerRow    = 160
		)
		scanSec := (factRows + dimRows) / scanRowsPerSec
		joinSec := (factRows + dimRows) / (scanRowsPerSec / 4)
		exec := (scanSec + joinSec) * (0.6 + rng.Float64())
		cpu := exec * cores * (0.35 + 0.5*rng.Float64())
		mem := math.Min(dimRows, factRows) * bytesPerRow / 1e9 * (0.8 + 0.4*rng.Float64())

		out = append(out, SimQuery{
			ID:          i + 1,
			Class:       class,
			ExecSeconds: exec,
			CPUSeconds:  cpu,
			MemoryGB:    mem,
		})
	}
	return out, nil
}

// simSchema is the two-table warehouse schema the shapes draw from.
func simSchema() *predicate.Schema {
	return predicate.NewSchema(
		predicate.Column{Name: "f_a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "f_b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "d_x", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "d_y", Type: predicate.TypeInteger, NotNull: true},
	)
}

type queryShape struct {
	pred predicate.Predicate
	// prospective: a cross-table conjunct exists and the fact side (f_*)
	// has no single-table conjunct.
	prospective bool
	// scanSideCols are the fact-side columns a pushdown predicate would
	// need to use.
	scanSideCols []string
}

// drawShape mixes predicate shapes roughly like a production log: most
// queries are unremarkable; a minority are prospective; a fraction of those
// fall in Sia's fragment.
func drawShape(rng *rand.Rand) queryShape {
	fa := predicate.Col("f_a", predicate.TypeInteger)
	fb := predicate.Col("f_b", predicate.TypeInteger)
	dx := predicate.Col("d_x", predicate.TypeInteger)
	k := func(lo, hi int64) *predicate.Const { return predicate.IntConst(lo + rng.Int63n(hi-lo+1)) }
	cross := func() predicate.Predicate {
		// f_a - d_x ⋈ c, plus a dimension-side bound.
		ops := []predicate.CmpOp{predicate.CmpLT, predicate.CmpLE, predicate.CmpGT, predicate.CmpGE}
		return predicate.NewAnd(
			predicate.Cmp(ops[rng.Intn(len(ops))], predicate.Sub(fa, dx), k(-50, 200)),
			predicate.Cmp(predicate.CmpLT, dx, k(0, 1000)),
		)
	}
	switch r := rng.Float64(); {
	case r < 0.55:
		// Single-table predicates only: never prospective.
		return queryShape{
			pred: predicate.NewAnd(
				predicate.Cmp(predicate.CmpGT, fa, k(0, 500)),
				predicate.Cmp(predicate.CmpLT, dx, k(0, 500)),
			),
		}
	case r < 0.75:
		// Cross-table but the fact side also has its own conjunct: the
		// optimizer can already push something down.
		return queryShape{
			pred: predicate.NewAnd(cross(), predicate.Cmp(predicate.CmpGT, fb, k(0, 100))),
		}
	case r < 0.93:
		// Prospective, within Sia's fragment.
		return queryShape{
			pred:         cross(),
			prospective:  true,
			scanSideCols: []string{"f_a"},
		}
	default:
		// Prospective but outside the fragment: the fact column is reused
		// inside a non-linear product, which Sia's encoder rejects — the
		// stand-in for the log's text/UDF predicates.
		return queryShape{
			pred: predicate.NewAnd(
				predicate.Cmp(predicate.CmpGT, predicate.Mul(fa, dx), k(10, 1000)),
				predicate.Cmp(predicate.CmpLT, predicate.Sub(fa, dx), k(0, 100)),
			),
			prospective:  true,
			scanSideCols: []string{"f_a"},
		}
	}
}

// Histogram buckets a metric the way Fig. 6 presents it.
type Histogram struct {
	Labels []string
	Counts []int
}

// HistExec buckets execution seconds: <1s, 1–10s, 10–100s, >100s.
func HistExec(qs []SimQuery, class QueryClass) Histogram {
	return bucket(qs, class, []float64{1, 10, 100}, []string{"<1s", "1-10s", "10-100s", ">100s"},
		func(q SimQuery) float64 { return q.ExecSeconds })
}

// HistCPU buckets CPU seconds: <10, 10–100, 100–1000, >1000.
func HistCPU(qs []SimQuery, class QueryClass) Histogram {
	return bucket(qs, class, []float64{10, 100, 1000}, []string{"<10s", "10-100s", "100-1000s", ">1000s"},
		func(q SimQuery) float64 { return q.CPUSeconds })
}

// HistMemory buckets memory GB: <1, 1–10, 10–100, >100.
func HistMemory(qs []SimQuery, class QueryClass) Histogram {
	return bucket(qs, class, []float64{1, 10, 100}, []string{"<1GB", "1-10GB", "10-100GB", ">100GB"},
		func(q SimQuery) float64 { return q.MemoryGB })
}

func bucket(qs []SimQuery, class QueryClass, edges []float64, labels []string, metric func(SimQuery) float64) Histogram {
	h := Histogram{Labels: labels, Counts: make([]int, len(labels))}
	for _, q := range qs {
		if !inClass(q, class) {
			continue
		}
		v := metric(q)
		i := 0
		for i < len(edges) && v >= edges[i] {
			i++
		}
		h.Counts[i]++
	}
	return h
}

// inClass: relevant queries are a subset of prospective ones, as in the
// paper's funnel.
func inClass(q SimQuery, class QueryClass) bool {
	if class == ClassProspective {
		return q.Class == ClassProspective || q.Class == ClassRelevant
	}
	return q.Class == class
}

// FractionOver returns the share of queries of a class whose metric
// exceeds the threshold (the paper's "74.63% take longer than 10 seconds").
func FractionOver(qs []SimQuery, class QueryClass, seconds float64) float64 {
	n, over := 0, 0
	for _, q := range qs {
		if !inClass(q, class) {
			continue
		}
		n++
		if q.ExecSeconds > seconds {
			over++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(over) / float64(n)
}

// Count returns the number of queries in a class.
func Count(qs []SimQuery, class QueryClass) int {
	n := 0
	for _, q := range qs {
		if inClass(q, class) {
			n++
		}
	}
	return n
}
