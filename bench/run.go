package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"sia/internal/core"
	"sia/internal/predicate"
	serveapi "sia/internal/serve/api"
	"sia/internal/workload"
)

// sizes fixes the work of each workload. A run is whole passes over one
// fixed list of operations: the list depends on the seed and on nothing
// else, so the same seed does the same work on any machine, and --seconds
// only decides how many times the list is gone through.
type sizes struct {
	// SetupRepeats is how often set-up runs; setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`
	// SynthPredicates is the length of synth_cold's list.
	SynthPredicates int `json:"synth_predicates"`
	// QueryPredicates is the number of predicates of query_mem; each gives
	// one statement, the two forms alternating. query_disk, whose
	// statements cost four times as much, runs the first DiskPredicates of
	// them.
	QueryPredicates int `json:"query_predicates"`
	DiskPredicates  int `json:"disk_predicates"`
	// Scale and OracleScale are tpch scale factors (15000 orders and
	// about 60000 lineitems per unit) of the measured tables and of the
	// copy every statement is checked on against the oracle.
	Scale       float64 `json:"tpch_scale"`
	OracleScale float64 `json:"oracle_scale"`
	// SegmentRows is the ingestion batch of query_disk.
	SegmentRows int `json:"segment_rows"`
	// EquivSample is how many statements have their original, rewritten
	// (and, on query_disk, in-memory) plans compared at full scale.
	EquivSample int `json:"equiv_sample"`
	// ImplicationTuples is how many joined tuples each learned predicate
	// is tested on.
	ImplicationTuples int `json:"implication_tuples"`
	// ServeRequests, ServeTemplates and ServeCapacity shape serve_mix: the
	// length of the stream, the recurring-query pool, and the server's
	// cache bound (smaller than the pool).
	ServeRequests  int `json:"serve_requests"`
	ServeTemplates int `json:"serve_templates"`
	ServeCapacity  int `json:"serve_capacity"`
	// SpinIters is the length of the fixed loop timed before and after the
	// run (bench.spin_ms).
	SpinIters int `json:"spin_iters"`
}

var fullSizes = sizes{
	SetupRepeats:      5,
	SynthPredicates:   400,
	QueryPredicates:   500,
	DiskPredicates:    200,
	Scale:             2,
	OracleScale:       0.25,
	SegmentRows:       8192,
	EquivSample:       16,
	ImplicationTuples: 2000,
	ServeRequests:     4000,
	ServeTemplates:    480,
	ServeCapacity:     224,
	SpinIters:         1 << 21,
}

// smokeSizes runs every workload and the whole oracle in a few seconds, so
// a test can keep the benchmark compiling and honest without a full run.
var smokeSizes = sizes{
	SetupRepeats:      1,
	SynthPredicates:   8,
	QueryPredicates:   6,
	DiskPredicates:    6,
	Scale:             1,
	OracleScale:       0.2,
	SegmentRows:       8192,
	EquivSample:       2,
	ImplicationTuples: 400,
	ServeRequests:     200,
	ServeTemplates:    10,
	ServeCapacity:     6,
	SpinIters:         1 << 14,
}

// synthOptions is the budget every synthesis in the benchmark runs under,
// whichever layer starts it: what an optimizer that plans a query would
// allow. Counts bound it: six CEGIS iterations instead of the paper's 41,
// and half-plane coefficients with denominators up to 2 instead of 8
// (Cooper's elimination cost grows with the coefficients' common
// multiples). Over 3000 generated predicates the dearest synthesis then
// took 156 ms, against 17 s unbounded, with the same share of valid
// predicates, and no answer depended on the clock but one: about one
// predicate in three thousand sends the solver into a call that ends only
// at its deadline, whatever the deadline is. That call is unknown at 2 s
// (the default) as at 250 ms, so the deadline is 250 ms, far above every
// other call; the 30 s loop deadline never binds.
func synthOptions() core.Options {
	return core.Options{
		MaxIterations:       6,
		InitialTrue:         10,
		InitialFalse:        10,
		SamplesPerIteration: 5,
		MaxDenominator:      2,
		SolverTimeout:       250 * time.Millisecond,
	}
}

// wireOptions is synthOptions as a serve client sends it.
func wireOptions() *serveapi.RequestOptions {
	o := synthOptions()
	return &serveapi.RequestOptions{
		MaxIterations:       o.MaxIterations,
		InitialTrue:         o.InitialTrue,
		InitialFalse:        o.InitialFalse,
		SamplesPerIteration: o.SamplesPerIteration,
		MaxDenominator:      o.MaxDenominator,
		SolverTimeoutMS:     o.SolverTimeout.Milliseconds(),
	}
}

// runConfig is one invocation.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workers int
	sz      sizes
	tmp     string // directory for segment files; created and removed by the run
}

// outcome is what a workload hands back to be turned into metrics.
type outcome struct {
	attempted, failed int
	findings          []string
	passes            []*passResult
	useful            float64            // share of distinct operations answered with a proven, non-trivial learned predicate
	setupS            []float64          // one entry per set-up repeat
	layer             map[string]float64 // per-layer metrics measured outside the passes (traced run)
	inputs            string             // fingerprint of the generated inputs
}

type workloadSpec struct {
	name string
	// attribution names the per-layer metric that says how much of what
	// callers waited for the layers' own accounts leave unexplained; a
	// traced run fails above a tenth. Empty where one span is the whole
	// operation.
	attribution string
	run         func(ctx context.Context, rc runConfig) (*outcome, error)
}

// workloads in their fixed order. BENCHMARK.json says why each was chosen.
var workloads = []workloadSpec{
	{"synth_cold", "core.unattributed_frac", runSynthCold},
	{"query_mem", "plan.unexplained_frac", runQueryMem},
	{"query_disk", "plan.unexplained_frac", runQueryDisk},
	{"serve_mix", "", runServeMix},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// passResult is what one pass over a workload's operation list measured.
type passResult struct {
	Traced bool               `json:"traced"`
	LatMS  []float64          `json:"lat_ms"` // LatMS[i]: operation i of the list, whichever client ran it
	WallS  float64            `json:"wall_s"`
	CPUS   float64            `json:"cpu_s"`           // user+system CPU of the process during the pass
	Layer  map[string]float64 `json:"layer,omitempty"` // counter-backed per-layer metrics (traced pass)
	Spans  []span             `json:"spans,omitempty"`
}

// passMeter measures one pass that runs inside this process.
type passMeter struct {
	res    *passResult
	tr     *tracer
	before *counters
}

// beginPass starts a pass of n operations after a forced collection, so a
// pass does not inherit the previous one's garbage.
func beginPass(n int, traced bool) (*passMeter, error) {
	m := &passMeter{res: &passResult{Traced: traced, LatMS: make([]float64, n)}}
	if traced {
		m.tr = newTracer()
	}
	runtime.GC()
	var err error
	m.before, err = readCounters()
	return m, err
}

// observe records operation i, which started at opStart and has just
// finished. Clients call it concurrently, each for its own i.
func (m *passMeter) observe(i int, opStart time.Time) {
	m.res.LatMS[i] = float64(time.Since(opStart).Nanoseconds()) / 1e6
}

func (m *passMeter) end() (*passResult, error) {
	after, err := readCounters()
	if err != nil {
		return nil, err
	}
	m.res.WallS = after.wall.Sub(m.before.wall).Seconds()
	m.res.CPUS = (after.cpu - m.before.cpu).Seconds()
	if m.tr != nil {
		m.res.Layer = layerDeltas(m.before, after, len(m.res.LatMS))
		m.res.Spans = m.tr.spans
	}
	return m.res, nil
}

// runPasses repeats pass until --seconds have gone by, finishing the pass
// in progress. A traced run traces every other pass, starting with the
// first, and makes at least two, so that traced and untraced passes over
// the same operations sit side by side in time: their difference is the
// tracing overhead, whatever the host did meanwhile.
func runPasses(rc runConfig, pass func(traced bool) (*passResult, error)) ([]*passResult, error) {
	var out []*passResult
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for k := 0; k == 0 || (rc.trace && k == 1) || time.Now().Before(deadline); k++ {
		p, err := pass(rc.trace && k%2 == 0)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// repeatSetup runs setup n times after a forced collection and records
// each run's wall time; the last run's product is the one used.
func repeatSetup(out *outcome, n int, setup func(rep int) error) error {
	for rep := 0; rep < n; rep++ {
		runtime.GC()
		start := time.Now()
		if err := setup(rep); err != nil {
			return err
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}
	return nil
}

// tracedPasses returns the passes that recorded spans.
func tracedPasses(passes []*passResult) []*passResult {
	var out []*passResult
	for _, p := range passes {
		if p.Traced {
			out = append(out, p)
		}
	}
	return out
}

// passStat is what one pass measured as a whole.
type passStat struct {
	Traced     bool    `json:"traced"`
	Ops        int     `json:"ops"`
	WallS      float64 `json:"wall_s"`
	OpsPerS    float64 `json:"ops_per_s"`
	CPUMSPerOp float64 `json:"cpu_ms_per_op"`
	P50MS      float64 `json:"op_p50_ms"`
	P90MS      float64 `json:"op_p90_ms"`
}

func (p *passResult) stat() passStat {
	n := float64(len(p.LatMS))
	lat := sortedCopy(p.LatMS)
	return passStat{
		Traced: p.Traced, Ops: len(lat), WallS: p.WallS, OpsPerS: ratio(n, p.WallS), CPUMSPerOp: ratio(1e3*p.CPUS, n),
		P50MS: quantile(lat, 0.5), P90MS: quantile(lat, 0.9),
	}
}

// best returns the best value the passes measured for one metric: the
// largest if more is better, else the smallest. The passes do identical
// work, and what a shared host adds to a pass is never negative, so the
// best pass is the one the host disturbed least: a run needs one quiet
// pass, not a quiet quarter of an hour.
func best(passes []*passResult, more bool, pick func(passStat) float64) float64 {
	out := pick(passes[0].stat())
	for _, p := range passes[1:] {
		if v := pick(p.stat()); (v > out) == more {
			out = v
		}
	}
	return out
}

// endToEndMetrics derives the end-to-end values of an untraced run. Every
// timing is measured pass by pass (throughput and CPU over the whole pass,
// collections included; the latency quantiles over its operations) and
// reported for the best pass. Set-up time is the median of the set-ups.
func endToEndMetrics(out *outcome) map[string]float64 {
	return map[string]float64{
		"op_p50_ms":     best(out.passes, false, func(s passStat) float64 { return s.P50MS }),
		"op_p90_ms":     best(out.passes, false, func(s passStat) float64 { return s.P90MS }),
		"ops_per_s":     best(out.passes, true, func(s passStat) float64 { return s.OpsPerS }),
		"cpu_ms_per_op": best(out.passes, false, func(s passStat) float64 { return s.CPUMSPerOp }),
		"useful_frac":   out.useful,
		"setup_s":       median(out.setupS),
	}
}

// inputFingerprint hashes generated inputs as text, so two runs can be
// shown to have measured the same thing (and two seeds different things).
func inputFingerprint(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// lineitemDateCols returns the lineitem date columns p mentions — the
// target columns of every synthesis in the benchmark (the predicate is
// reduced to the lineitem side of the join, as in the paper's §6.3).
func lineitemDateCols(p predicate.Predicate) []string {
	used := map[string]bool{}
	for _, c := range predicate.Columns(p) {
		used[c] = true
	}
	var out []string
	for _, c := range workload.LineitemDateCols {
		if used[c] {
			out = append(out, c)
		}
	}
	return out
}

// spin does a fixed amount of work and returns how long it took: a reading
// taken before and after a run shows whether a noisy neighbour slowed the
// box while it measured. The work is iters rounds of eight independent
// xorshift chains that also walk a 32 MiB table: a single dependent chain
// in registers keeps its speed when a neighbour takes the sibling
// hyperthread or the shared cache, and the workloads do not.
func spin(iters int) float64 {
	table := make([]uint64, 1<<22)
	for i := range table {
		table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	start := time.Now()
	var x [8]uint64
	for i := range x {
		x[i] = 88172645463325252 + uint64(i)
	}
	for i := 0; i < iters; i++ {
		for j := range x {
			v := x[j]
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			x[j] = v + table[v&(1<<22-1)]
		}
	}
	for _, v := range x {
		spinSink += v
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

var spinSink uint64

// printMetrics prints name, value and unit of every metric in spec order.
func printMetrics(specs []metricSpec, values map[string]metricValue) {
	width := 0
	for _, s := range specs {
		width = max(width, len(s.Name))
	}
	for _, s := range specs {
		fmt.Printf("%-*s %14.6g %s\n", width, s.Name, values[s.Name].Value, s.Unit)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
