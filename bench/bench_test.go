package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/engine"
	"sia/internal/plan"
	"sia/internal/predicate"
	"sia/internal/tpch"
	"sia/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark when synth_cold
// starts it again to run a pass in a new process.
func TestMain(m *testing.M) {
	if synthPassChild() {
		return
	}
	os.Exit(m.Run())
}

func loadTestContract(t *testing.T) *contract {
	t.Helper()
	con, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return con
}

// generatedInputs fingerprints what each workload's generators produce for
// a seed, without running anything.
func generatedInputs(seed int64) map[string]string {
	sz := smokeSizes
	queries := workload.Generate(workload.Config{N: sz.QueryPredicates, Seed: seed})
	var predicates []string
	for _, p := range synthPredicates(seed, sz.SynthPredicates) {
		predicates = append(predicates, p.String())
	}
	stream := wireRequests(workload.GenerateServe(workload.ServeConfig{
		N: sz.ServeRequests, Templates: sz.ServeTemplates, Seed: seed, ZipfS: 1.01, RecurrenceRate: 0.98, Tenants: 4,
	}))
	wire, _ := json.Marshal(func() (out []any) {
		for _, r := range stream {
			out = append(out, r.tenant, r.wire)
		}
		return out
	}())
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: sz.OracleScale, Seed: seed})
	so, _ := tableSum(orders)
	sl, _ := tableSum(lineitem)
	return map[string]string{
		"predicates": inputFingerprint(predicates...),
		"statements": inputFingerprint(statementTexts(buildStatements(queries))...),
		"stream":     inputFingerprint(string(wire)),
		"tables":     so.String() + " / " + sl.String(),
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	a, again, b := generatedInputs(11), generatedInputs(11), generatedInputs(12)
	for name := range a {
		if a[name] != again[name] {
			t.Errorf("%s: equal seeds gave different inputs (%s, %s)", name, a[name], again[name])
		}
		if a[name] == b[name] {
			t.Errorf("%s: different seeds gave the same inputs (%s)", name, a[name])
		}
	}
}

// exercised names, per workload, per-layer metrics that must be positive
// there: each is read from a counter or histogram a layer exports under a
// name this benchmark spells out, so a rename inside the program would
// otherwise turn it into a silent 0.
var exercised = map[string][]string{
	"synth_cold": {"core.generation_ms", "core.learning_ms", "core.validation_ms", "core.iterations", "core.synth_p50_ms",
		"smt.sat_s", "smt.model_s", "smt.elimination_s", "smt.sat_calls", "smt.model_calls", "smt.eliminations", "proc.allocs_per_op"},
	"query_mem": {"sql.parse_plan_us", "plan.rewrite_us", "plan.exec_ms", "plan.exec_star_p50_ms", "plan.exec_agg_p50_ms", "plan.join_input_rows",
		"cache.lookup_us", "engine.filter_s", "engine.join_s", "engine.aggregate_s", "engine.rows_scanned", "engine.rows_kept", "engine.morsels", "engine.filter_mrows_per_s"},
	"query_disk": {"plan.exec_ms", "engine.join_s", "storage.segments_scanned", "storage.bytes_read", "storage.read_mb_per_query", "storage.decode_s",
		"storage.scanfilter_ms", "storage.append_rows_per_s", "storage.bytes_written", "storage.bytes_per_row"},
	"serve_mix": {"core.generation_ms", "smt.sat_calls", "cache.hit_ratio", "cache.evictions", "serve.hit_latency_p50_us", "serve.miss_latency_p50_ms", "serve.hit_ratio"},
}

// TestSmoke runs all four workloads at the smoke size, untraced and traced,
// with the whole oracle: it keeps the benchmark compiling against the
// internal APIs and its checks passing without a full-length run.
func TestSmoke(t *testing.T) {
	con := loadTestContract(t)
	start := time.Now()
	measuredSomewhere := map[string]bool{}
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{seed: 3, seconds: 0.2, trace: trace, workers: 1, sz: smokeSizes, tmp: t.TempDir()}
			rec, err := measure(context.Background(), con, spec, rc)
			if err != nil {
				t.Fatalf("%s: %v", spec.name, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < len(rec.Passes)*rec.Passes[0].Ops {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d findings=%v",
					spec.name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Findings)
			}
			specs := con.EndToEnd
			if trace {
				specs = con.PerLayer
			}
			for _, s := range specs {
				v := rec.Metrics[s.Name]
				switch {
				case v.Unit != s.Unit:
					t.Errorf("%s trace=%v: metric %s missing or in the wrong unit", spec.name, trace, s.Name)
				case !trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", spec.name, s.Name, v.Value)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", spec.name, trace, s.Name, v.Value)
				}
			}
			if !trace {
				continue
			}
			unmeasured := map[string]bool{}
			for _, name := range rec.unmeasured {
				unmeasured[name] = true
			}
			for _, s := range specs {
				if !unmeasured[s.Name] {
					measuredSomewhere[s.Name] = true
				}
			}
			for _, name := range exercised[spec.name] {
				if !(rec.Metrics[name].Value > 0) {
					t.Errorf("%s: per-layer metric %s = %v, want it positive on this workload", spec.name, name, rec.Metrics[name].Value)
				}
			}
			if len(rec.passes) < 2 || !rec.passes[0].Traced || rec.passes[1].Traced || len(rec.passes[0].Spans) == 0 || len(rec.passes[1].Spans) != 0 {
				t.Errorf("%s: a traced run must trace its first pass and not its second", spec.name)
			}
		}
	}
	for _, s := range con.PerLayer {
		if !measuredSomewhere[s.Name] {
			t.Errorf("BENCHMARK.json names the per-layer metric %s, which no workload measures", s.Name)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke size took %v, want under 10s", d)
	}
}

func mustParse(t *testing.T, src string) predicate.Predicate {
	t.Helper()
	p, err := predicate.Parse(src, tpch.JoinSchema())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOracleCatchesDroppedRow removes one qualifying lineitem row from the
// data the pipeline sees and expects both statement forms to disagree with
// the oracle, which still sees it.
func TestOracleCatchesDroppedRow(t *testing.T) {
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 0.1, Seed: 5})
	q := workload.Query{ID: 1, Pred: mustParse(t, "l_shipdate - o_orderdate < 40 AND l_commitdate - o_orderdate > 35")}
	oracle := newOracleData(orders, lineitem)
	ref := oracle.evaluate(q.Pred)
	if ref.star.Rows == 0 {
		t.Fatal("test predicate selects nothing")
	}

	// Find a qualifying row and drop it.
	drop := -1
	oDate := orders.Ints("o_orderdate")
	for r := 0; r < lineitem.NumRows() && drop < 0; r++ {
		or := oracle.orderRow[lineitem.Ints("l_orderkey")[r]]
		tup := predicate.Tuple{"o_orderdate": predicate.IntVal(oDate[or])}
		for _, c := range dateCols {
			tup[c] = predicate.IntVal(lineitem.Ints(c)[r])
		}
		if predicate.Satisfies(q.Pred, tup) {
			drop = r
		}
	}
	var keep []int
	for r := 0; r < lineitem.NumRows(); r++ {
		if r != drop {
			keep = append(keep, r)
		}
	}
	damaged, err := engine.ReorderRows(lineitem, keep, 1)
	if err != nil {
		t.Fatal(err)
	}

	pipe := &pipeline{synth: cache.NewSynthesizer(8), opts: synthOptions(), parallelism: 1}
	for _, c := range []struct {
		name     string
		lineitem *engine.Table
		wantFail int
	}{{"intact", lineitem, 0}, {"one row dropped", damaged, 2}} {
		cat := plan.NewCatalog()
		cat.Add(orders)
		cat.Add(c.lineitem)
		var f findings
		for _, s := range buildStatements([]workload.Query{q, q}) { // one statement of each form
			table, _, err := pipe.run(context.Background(), nil, 0, -1, s.text, cat, true)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tableSum(table)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.star
			if s.agg {
				want = ref.agg
			}
			f.expect(s.text, got, want)
		}
		if f.failed() != c.wantFail {
			t.Errorf("%s: oracle reported %d mismatches, want %d: %v", c.name, f.failed(), c.wantFail, f.msgs)
		}
	}
}

// TestOracleCatchesTooStrongPredicate hands the implication check a
// "learned" predicate that rejects rows its source accepts.
func TestOracleCatchesTooStrongPredicate(t *testing.T) {
	source := mustParse(t, "l_shipdate - o_orderdate < 20")
	for _, c := range []struct {
		learned  string
		wantFail int
	}{
		{"l_shipdate - l_commitdate < 1000", 0}, // implied by nothing in particular, but true of every tuple
		{"l_shipdate < DATE '1993-01-01'", 1},   // too strong: orders after 1993 ship later
		{"l_shipdate - l_commitdate < -15", 1},  // too strong on the data's own correlations
	} {
		var f findings
		learned := []synthesized{{source: source, res: &core.Result{Predicate: mustParse(t, c.learned), Valid: true}}}
		checkImplications(&f, learned, 9, smokeSizes)
		if f.checks != 1 || f.failed() != c.wantFail {
			t.Errorf("%s: %d checks, %d failures, want 1 and %d: %v", c.learned, f.checks, f.failed(), c.wantFail, f.msgs)
		}
	}
}

func TestTableSumIgnoresOrderNotContent(t *testing.T) {
	orders, _ := tpch.Generate(tpch.Config{ScaleFactor: 0.02, Seed: 1})
	n := orders.NumRows()
	perm := rand.New(rand.NewSource(2)).Perm(n)
	shuffled, err := engine.ReorderRows(orders, perm, 1)
	if err != nil {
		t.Fatal(err)
	}
	duplicated, err := engine.ReorderRows(orders, append(perm[:n-1:n-1], perm[0]), 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tableSum(orders)
	b, _ := tableSum(shuffled)
	c, _ := tableSum(duplicated)
	if a != b {
		t.Errorf("row order changed the fingerprint: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("replacing one row with a duplicate of another kept the fingerprint %s", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 100e6},
		{ID: 1, Parent: 0, Name: "sql.Parse+Plan", Start: 1e6, End: 11e6},
		{ID: 2, Parent: 0, Name: "plan.ExecuteOpts", Start: 20e6, End: 90e6},
	}
	got := map[string]float64{}
	selfTimes(got, spans)
	for layer, want := range map[string]float64{"bench": 0.020, "sql": 0.010, "plan": 0.070} {
		if math.Abs(got[layer]-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], want)
		}
	}
}

func TestBestPass(t *testing.T) {
	pass := func(wall float64, lat ...float64) *passResult {
		return &passResult{WallS: wall, CPUS: 2 * wall, LatMS: lat}
	}
	out := &outcome{passes: []*passResult{pass(4, 1, 2, 9), pass(2, 1, 1, 3), pass(3, 2, 2, 2)}, setupS: []float64{3, 1, 2}, useful: 0.5}
	got := endToEndMetrics(out)
	for name, want := range map[string]float64{
		"op_p50_ms": 1, "op_p90_ms": 2, "ops_per_s": 1.5, "cpu_ms_per_op": 4000.0 / 3, "useful_frac": 0.5, "setup_s": 2,
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	// The seeds differ by far more than the bound; pairing removes that.
	base := []float64{100, 150, 60, 200, 120}
	times := func(f ...float64) []float64 {
		out := make([]float64, len(base))
		for i := range base {
			out[i] = base[i] * f[i%len(f)]
		}
		return out
	}
	for _, c := range []struct {
		spec metricSpec
		cand []float64
		want string
	}{
		{lower, times(1.03, 1.04, 1.02, 1.03, 1.05), "unchanged"},
		{lower, times(1.20, 1.21, 1.19, 1.20, 1.22), "worse"},
		{lower, times(0.80, 0.81, 0.79, 0.80, 0.82), "better"},
		{higher, times(0.80, 0.81, 0.79, 0.80, 0.82), "worse"},
		{higher, times(1.20, 1.21, 1.19, 1.20, 1.22), "better"},
		{lower, times(0.7, 1.0, 1.3, 0.85, 1.15), "unresolved"},
		{lower, times(1.5, 1.6, 1.7, 1.55, 1.65), "worse"}, // noisy, but clear of the bound by more than the noise
	} {
		if j := judge(c.spec, base, c.cand); j.verdict != c.want {
			t.Errorf("%s %v → %v: verdict %s, want %s (%+v)", c.spec.Name, base, c.cand, j.verdict, c.want, j)
		}
	}
}

func TestCompareFilesExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	specs := []metricSpec{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15}}
	write := func(name string, factor float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 5; seed++ {
			rec := record{Workload: "query_mem", Seed: seed, Correct: true, Metrics: map[string]metricValue{
				"op_p50_ms": {Value: factor * float64(10*seed), Unit: "ms"},
			}}
			if err := appendRecord(path, &rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := write("base.jsonl", 1), write("same.jsonl", 1.02), write("slow.jsonl", 1.3)
	var out bytes.Buffer
	if err := compareFiles(&out, specs, []string{base, same}); err != nil {
		t.Errorf("unchanged runs: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, specs, []string{base, same, slow}); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30%% slower side passed: %v\n%s", err, out.String())
	}
}

// TestContractNamesTheWorkloads keeps BENCHMARK.json's workloads and the
// program's the same, in the same order.
func TestContractNamesTheWorkloads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json runs %q, the program %q", got, want)
	}
}
