// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a pure function from a Config to a
// printable result; cmd/siabench and the repository's benchmarks are thin
// wrappers around these.
//
// The experiment ↔ paper mapping:
//
//	Table 1  — baseline configurations            → Table1()
//	Table 2  — efficacy (valid/optimal counts)    → Table2()
//	Table 3  — efficiency (time breakdown)        → Table3()
//	Table 4  — selectivity vs runtime outcome     → Summarize() over Fig9()
//	Fig. 6   — MaxCompute case study              → maxcompute.Simulate + RenderFig6
//	Fig. 7   — iterations to converge             → Fig7()
//	Fig. 8   — sample-count distribution          → Fig8()
//	Fig. 9   — original vs rewritten runtimes     → Fig9() (Fig9Disk() over segment files)
//	§2       — motivating example speedup         → Motivating()
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"sia/internal/core"
	"sia/internal/obs"
	"sia/internal/plan"
	"sia/internal/predicate"
	"sia/internal/tpch"
	"sia/internal/workload"
)

// Config scales the experiments. The defaults run the full evaluation in
// minutes on a laptop; the paper-scale values are documented per field.
type Config struct {
	// Queries is the number of benchmark queries (paper: 200).
	Queries int
	// Seed fixes workload generation.
	Seed int64
	// ScaleFactors are the data scales for the runtime experiments, in
	// units of tpch.BaseOrders (the paper's SF 1 and 10 correspond to
	// 100 and 1000 here; defaults are 100× smaller so the experiment
	// finishes quickly).
	ScaleFactors []float64
	// MaxIterations overrides SIA's iteration budget (paper: 41).
	MaxIterations int
	// Parallelism is the engine worker count used when executing plans
	// (Fig. 9, Table 4, Motivating). Non-positive means
	// engine.DefaultParallelism; results are identical at any setting.
	Parallelism int
	// Tracer, when non-nil, records every CEGIS loop of the synthesis
	// experiments as JSONL spans (see internal/obs). Tracing makes runs
	// uncacheable, so Fig9's synthesis memoization is bypassed.
	Tracer *obs.Tracer
	// SegmentRows is the rows-per-segment of the disk experiment
	// (Fig9Disk). Non-positive means DefaultSegmentRows.
	SegmentRows int
}

func (c Config) withDefaults() Config {
	if c.Queries == 0 {
		c.Queries = 200
	}
	if c.Seed == 0 {
		c.Seed = 20210620
	}
	if len(c.ScaleFactors) == 0 {
		c.ScaleFactors = []float64{1, 10}
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 41
	}
	return c
}

// Variant names one synthesis configuration from Table 1.
type Variant string

// The compared systems (Table 1 plus the syntax-driven baseline).
const (
	VariantSIA   Variant = "SIA"
	VariantSIAV1 Variant = "SIA_v1"
	VariantSIAV2 Variant = "SIA_v2"
)

// Variants returns the synthesis variants in presentation order.
func Variants() []Variant { return []Variant{VariantSIA, VariantSIAV1, VariantSIAV2} }

func optionsFor(v Variant, maxIter int) core.Options {
	var o core.Options
	switch v {
	case VariantSIAV1:
		o = core.PresetSIAV1()
	case VariantSIAV2:
		o = core.PresetSIAV2()
	default:
		o = core.PresetSIA()
		o.MaxIterations = maxIter
	}
	return o
}

// RunRecord is the outcome of one synthesis attempt: one benchmark query,
// one target column subset, one variant.
type RunRecord struct {
	QueryID  int
	Cols     []string
	NumCols  int
	Variant  Variant
	Possible bool // an unsatisfaction tuple exists (symbolically relevant)
	TCValid  bool // the transitive-closure baseline derived a predicate
	Result   *core.Result
}

// colSubsets returns every non-empty subset of the lineitem date columns,
// ordered by size (the paper's one/two/three column categories).
func colSubsets() [][]string {
	cols := workload.LineitemDateCols
	var out [][]string
	for mask := 1; mask < 1<<len(cols); mask++ {
		var sub []string
		for i, c := range cols {
			if mask&(1<<i) != 0 {
				sub = append(sub, c)
			}
		}
		out = append(out, sub)
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

// SynthesisSweep runs every variant on every query × column-subset pair.
// It is the shared workhorse behind Table 2, Table 3, Fig. 7 and Fig. 8.
// Tasks are independent (each synthesis owns a fresh solver), so the sweep
// fans out across the machine's cores; records come back in deterministic
// (query, subset, variant) order regardless of scheduling.
func SynthesisSweep(cfg Config) ([]RunRecord, error) {
	cfg = cfg.withDefaults()
	queries := workload.Generate(workload.Config{N: cfg.Queries, Seed: cfg.Seed})
	schema := tpch.JoinSchema()
	subsets := colSubsets()

	type task struct {
		slot  int
		query workload.Query
		cols  []string
	}
	var tasks []task
	for _, q := range queries {
		predCols := map[string]bool{}
		for _, c := range predicate.Columns(q.Pred) {
			predCols[c] = true
		}
		for _, sub := range subsets {
			// Skip subsets containing columns the predicate never uses:
			// Synthesize requires Cols' ⊆ Cols (§4.1).
			usable := true
			for _, c := range sub {
				if !predCols[c] {
					usable = false
				}
			}
			if !usable {
				continue
			}
			tasks = append(tasks, task{slot: len(tasks), query: q, cols: sub})
		}
	}

	// Each task produces one record per variant, written to its own slot.
	results := make([][]RunRecord, len(tasks))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	ch := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range ch {
				relevant, err := core.SymbolicallyRelevant(context.Background(), tk.query.Pred, tk.cols, schema)
				if err != nil {
					relevant = false
				}
				tc := plan2TCValid(tk.query.Pred, tk.cols)
				recs := make([]RunRecord, 0, len(Variants()))
				for _, v := range Variants() {
					rec := RunRecord{
						QueryID:  tk.query.ID,
						Cols:     tk.cols,
						NumCols:  len(tk.cols),
						Variant:  v,
						Possible: relevant,
						TCValid:  tc,
					}
					if relevant {
						o := optionsFor(v, cfg.MaxIterations)
						o.Tracer = cfg.Tracer
						res, err := core.SynthesizeContext(context.Background(), tk.query.Pred, tk.cols, schema, o)
						if err == nil {
							rec.Result = res
						}
					}
					recs = append(recs, rec)
				}
				results[tk.slot] = recs
			}
		}()
	}
	for _, tk := range tasks {
		ch <- tk
	}
	close(ch)
	wg.Wait()

	var out []RunRecord
	for _, recs := range results {
		out = append(out, recs...)
	}
	return out, nil
}

// Table1Row describes one baseline configuration.
type Table1Row struct {
	Variant                            Variant
	MaxIterations                      int
	InitialTrue, InitialFalse, PerIter int
}

// Table1 reproduces Table 1 (the configurations themselves).
func Table1() []Table1Row {
	rows := make([]Table1Row, 0, 3)
	for _, v := range Variants() {
		o := optionsFor(v, 41)
		per := o.SamplesPerIteration
		if o.MaxIterations == 1 {
			per = 0 // N/A in the paper's table
		}
		rows = append(rows, Table1Row{
			Variant:       v,
			MaxIterations: o.MaxIterations,
			InitialTrue:   o.InitialTrue,
			InitialFalse:  o.InitialFalse,
			PerIter:       per,
		})
	}
	return rows
}

// Table2Row aggregates efficacy for one column-count category.
type Table2Row struct {
	NumCols  int
	Possible int
	// Per variant: valid and optimal counts. TC has no optimality notion
	// in the paper's table (only a valid count).
	Valid   map[Variant]int
	Optimal map[Variant]int
	TCValid int
}

// Table2 reproduces Table 2 from a synthesis sweep.
func Table2(records []RunRecord) []Table2Row {
	byCols := map[int]*Table2Row{}
	for _, r := range records {
		row, ok := byCols[r.NumCols]
		if !ok {
			row = &Table2Row{NumCols: r.NumCols, Valid: map[Variant]int{}, Optimal: map[Variant]int{}}
			byCols[r.NumCols] = row
		}
		if r.Variant == VariantSIA { // count each (query, subset) once
			if r.Possible {
				row.Possible++
			}
			if r.TCValid {
				row.TCValid++
			}
		}
		if r.Result != nil && r.Result.Valid && r.Result.Predicate != nil {
			row.Valid[r.Variant]++
			if r.Result.Optimal {
				row.Optimal[r.Variant]++
			}
		}
	}
	var out []Table2Row
	for _, n := range []int{1, 2, 3} {
		if row, ok := byCols[n]; ok {
			out = append(out, *row)
		}
	}
	return out
}

// Table3Row aggregates the time breakdown for one column-count category.
type Table3Row struct {
	NumCols    int
	Generation map[Variant]time.Duration
	Learning   map[Variant]time.Duration
	Validation map[Variant]time.Duration
}

// Table3 reproduces Table 3: mean per-synthesis times by category.
func Table3(records []RunRecord) []Table3Row {
	type acc struct {
		gen, learn, valid time.Duration
		n                 int
	}
	accs := map[int]map[Variant]*acc{}
	for _, r := range records {
		if r.Result == nil {
			continue
		}
		if accs[r.NumCols] == nil {
			accs[r.NumCols] = map[Variant]*acc{}
		}
		a := accs[r.NumCols][r.Variant]
		if a == nil {
			a = &acc{}
			accs[r.NumCols][r.Variant] = a
		}
		a.gen += r.Result.Timing.Generation
		a.learn += r.Result.Timing.Learning
		a.valid += r.Result.Timing.Validation
		a.n++
	}
	var out []Table3Row
	for _, n := range []int{1, 2, 3} {
		m, ok := accs[n]
		if !ok {
			continue
		}
		row := Table3Row{
			NumCols:    n,
			Generation: map[Variant]time.Duration{},
			Learning:   map[Variant]time.Duration{},
			Validation: map[Variant]time.Duration{},
		}
		for v, a := range m {
			if a.n == 0 {
				continue
			}
			row.Generation[v] = a.gen / time.Duration(a.n)
			row.Learning[v] = a.learn / time.Duration(a.n)
			row.Validation[v] = a.valid / time.Duration(a.n)
		}
		out = append(out, row)
	}
	return out
}

// Fig7Result is the distribution of iterations SIA needed to reach an
// optimal predicate, per column-count (Fig. 7).
type Fig7Result struct {
	// Buckets are iteration-count upper bounds: ≤10, ≤20, ≤30, ≤41.
	Buckets []int
	// Counts[numCols][bucketIdx]; NotConverged[numCols] counts runs that
	// produced a valid but never-proven-optimal predicate.
	Counts       map[int][]int
	NotConverged map[int]int
}

// Fig7 aggregates learning-loop iteration counts for the SIA variant.
func Fig7(records []RunRecord) Fig7Result {
	res := Fig7Result{
		Buckets:      []int{10, 20, 30, 41},
		Counts:       map[int][]int{},
		NotConverged: map[int]int{},
	}
	for _, r := range records {
		if r.Variant != VariantSIA || r.Result == nil || r.Result.Predicate == nil {
			continue
		}
		if _, ok := res.Counts[r.NumCols]; !ok {
			res.Counts[r.NumCols] = make([]int, len(res.Buckets))
		}
		if !r.Result.Optimal {
			res.NotConverged[r.NumCols]++
			continue
		}
		for i, b := range res.Buckets {
			if r.Result.Iterations <= b {
				res.Counts[r.NumCols][i]++
				break
			}
		}
	}
	return res
}

// Fig8Result is the distribution of final TRUE and FALSE sample counts
// (Fig. 8), per column-count.
type Fig8Result struct {
	// Buckets are sample-count upper bounds: ≤25, ≤50, ≤100, ≤220, >220.
	Buckets     []int
	TrueCounts  map[int][]int
	FalseCounts map[int][]int
}

// Fig8 aggregates sample counts for the SIA variant.
func Fig8(records []RunRecord) Fig8Result {
	res := Fig8Result{
		Buckets:     []int{25, 50, 100, 220},
		TrueCounts:  map[int][]int{},
		FalseCounts: map[int][]int{},
	}
	put := func(m map[int][]int, numCols, v int) {
		if _, ok := m[numCols]; !ok {
			m[numCols] = make([]int, len(res.Buckets)+1)
		}
		for i, b := range res.Buckets {
			if v <= b {
				m[numCols][i]++
				return
			}
		}
		m[numCols][len(res.Buckets)]++
	}
	for _, r := range records {
		if r.Variant != VariantSIA || r.Result == nil || r.Result.Predicate == nil {
			continue
		}
		put(res.TrueCounts, r.NumCols, r.Result.TrueSamples)
		put(res.FalseCounts, r.NumCols, r.Result.FalseSamples)
	}
	return res
}

// plan2TCValid runs the transitive-closure baseline and reports whether it
// derived a non-trivial predicate over the subset.
func plan2TCValid(p predicate.Predicate, cols []string) bool {
	return plan.TransitiveClosureReduce(p, cols) != nil
}

// ensure fmt is linked for the render helpers in other files.
var _ = fmt.Sprintf
