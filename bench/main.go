// Command bench is the repository's one end-to-end benchmark. It drives
// the real pipeline — parse → rewrite → synthesize → cache/serve → execute
// → segment scan — through the layers' public functions only, on four
// workloads that each lean on different layers, checks every answer
// against an independent oracle, and prints every metric by name with its
// unit. BENCHMARK.json at the repository root is its contract; README.md
// says what each workload and metric is for.
//
//	go run -C bench . --workload query_mem --seed 7 --seconds 20 --trace 0
//	go run -C bench . --workload query_mem --seed 7 --seconds 20 --trace spans.jsonl
//	go run -C bench . -compare base.jsonl new.jsonl
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

const defaultSeed = 20210620 // the paper's workload seed (internal/workload)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env describes where a run happened, so two result files can be told
// apart before they are compared.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadAvg    string  `json:"loadavg_start"`
	SpinBefore float64 `json:"spin_ms_before"`
	SpinAfter  float64 `json:"spin_ms_after"`
}

// record is one run's result: what -out appends and -compare reads.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       env                    `json:"env"`
	Sizes     sizes                  `json:"sizes"`
	Inputs    string                 `json:"inputs"`
	Passes    []passStat             `json:"passes"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Findings  []string               `json:"findings,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Claim is always null: defining the benchmark claims no gain.
	Claim *string `json:"claim"`

	passes     []*passResult // with the spans of a traced run; not part of the record
	unmeasured []string      // metrics of BENCHMARK.json the run had no value for
}

// summary is the contract's last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if synthPassChild() {
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed         = fs.Int64("seed", defaultSeed, "seed of the input generators (the program under test never sees it)")
		seconds      = fs.Float64("seconds", 20, "passes over the workload's operations start until this many seconds have gone by")
		trace        = fs.String("trace", "0", "0: untraced, end-to-end metrics. 1: record spans, per-layer metrics. Anything else: as 1, and write the spans there as JSON lines")
		outPath      = fs.String("out", "", "append the run's full result to this file as one JSON line")
		smoke        = fs.Bool("smoke", false, "tiny sizes: a few seconds per workload, numbers mean nothing")
		workers      = fs.Int("workers", min(runtime.NumCPU(), 2), "GOMAXPROCS, engine parallelism and serve clients")
		tmp          = fs.String("tmp", ".bench_build/tmp", "directory for segment files (created, and removed afterwards)")
		contractPath = fs.String("contract", "", "BENCHMARK.json (default: in the working directory or its parent)")
		compare      = fs.Bool("compare", false, "compare result files: bench -compare base.jsonl new.jsonl [more.jsonl …]")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	con, err := loadContract(*contractPath)
	if err != nil {
		return err
	}
	if *compare {
		return compareFiles(os.Stdout, con.EndToEnd, fs.Args())
	}
	spec, ok := findWorkload(*workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workloadName, strings.Join(workloadNames(), ", "))
	}
	if *workers < 1 || *workers > runtime.NumCPU() {
		return fmt.Errorf("%d workers on %d CPUs: more workers than processors measures the scheduler", *workers, runtime.NumCPU())
	}
	if *seconds <= 0 {
		return fmt.Errorf("want -seconds > 0")
	}
	runtime.GOMAXPROCS(*workers)

	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace != "0", workers: *workers, sz: fullSizes}
	if *smoke {
		rc.sz = smokeSizes
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*tmp, spec.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc.tmp = dir

	rec, err := measure(context.Background(), con, spec, rc)
	if err != nil {
		return err
	}
	if rc.trace && *trace != "1" {
		if err := writeSpans(*trace, rec.passes); err != nil {
			return err
		}
	}
	specs := con.EndToEnd
	if rc.trace {
		specs = con.PerLayer
	}
	fmt.Printf("workload %s  seed %d  %.0f s  trace %s  %d passes over %d operations  inputs %s\n",
		rec.Workload, rec.Seed, rec.Seconds, *trace, len(rec.Passes), rec.Passes[0].Ops, rec.Inputs)
	printMetrics(specs, rec.Metrics)
	for _, f := range rec.Findings {
		fmt.Println("FINDING:", f)
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(summary{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return errIncorrect
	}
	return nil
}

// errIncorrect makes the command exit non-zero after it has printed the
// result of a run whose outputs failed a check.
var errIncorrect = errors.New("the run failed a correctness check (see FINDING lines)")

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// measure runs one workload and turns its outcome into a record.
func measure(ctx context.Context, con *contract, spec workloadSpec, rc runConfig) (*record, error) {
	e := readEnv()
	e.SpinBefore = spin(rc.sz.SpinIters)
	out, err := spec.run(ctx, rc)
	if err != nil {
		return nil, err
	}
	e.SpinAfter = spin(rc.sz.SpinIters)

	rec := &record{
		Workload: spec.name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace, Env: e, Sizes: rc.sz,
		Inputs: out.inputs, Attempted: out.attempted, Failed: out.failed, Findings: out.findings, passes: out.passes,
	}
	for _, p := range out.passes {
		rec.Passes = append(rec.Passes, p.stat())
	}
	if !rc.trace {
		if rec.Metrics, rec.unmeasured = named(con.EndToEnd, endToEndMetrics(out)); len(rec.unmeasured) > 0 {
			return nil, fmt.Errorf("BENCHMARK.json names end-to-end metrics this program does not measure: %v", rec.unmeasured)
		}
	} else {
		values := perLayerMetrics(out)
		values["bench.spin_ms"] = math.Max(e.SpinBefore, e.SpinAfter)
		rec.Metrics, rec.unmeasured = named(con.PerLayer, values)
		attribute(rec, spec, out, values)
	}
	if len(rec.Findings) > 20 {
		rec.Findings = append(rec.Findings[:20], fmt.Sprintf("… and %d more", len(rec.Findings)-20))
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// perLayerMetrics derives the per-layer values of a traced run: what each
// traced pass measured, as the median over those passes (a count repeats
// exactly from pass to pass), then what the workload measured outside the
// passes, then the benchmark's account of itself.
func perLayerMetrics(out *outcome) map[string]float64 {
	traced := tracedPasses(out.passes)
	values := map[string]float64{}
	for name := range traced[0].Layer {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.Layer[name])
		}
		values[name] = median(xs)
	}
	for name, v := range out.layer {
		values[name] = v
	}
	values["bench.passes"] = float64(len(out.passes))
	values["bench.trace_overhead_frac"] = traceOverhead(out.passes)
	return values
}

// traceOverhead is the median, over the pairs of a traced pass and the
// untraced pass that followed it, of the ratio of their wall times, less 1.
// The two passes of a pair did the same work within seconds of each other,
// so whatever the host was doing, it was doing it to both.
func traceOverhead(passes []*passResult) float64 {
	var ratios []float64
	for k := 0; k+1 < len(passes); k += 2 {
		ratios = append(ratios, ratio(passes[k].WallS, passes[k+1].WallS))
	}
	return median(ratios) - 1
}

// attribute prints, for a traced run, what the callers of the traced
// passes waited for against what the layers account for, and turns an
// unexplained remainder above a tenth into a finding: a hole in the
// attribution is written down, not hidden.
func attribute(rec *record, spec workloadSpec, out *outcome, values map[string]float64) {
	self := map[string]float64{}
	waited, ops, exec := 0.0, 0, 0.0
	for _, p := range tracedPasses(out.passes) {
		selfTimes(self, p.Spans)
		waited += sum(p.LatMS) / 1e3
		ops += len(p.LatMS)
		exec += sum(durationsByName(p.Spans)["plan.ExecuteOpts"]) / 1e3
	}
	total := 0.0
	fmt.Printf("attribution: %.3f s waited in %d traced operations\n", waited, ops)
	for _, layer := range sortedKeys(self) {
		fmt.Printf("  %-8s self %.3f s\n", layer, self[layer])
		total += self[layer]
	}
	fmt.Printf("  %-8s sum  %.3f s\n", "", total)
	if exec > 0 {
		// No spans exist below ExecuteOpts yet; the operators' and the
		// segment reader's own histograms split it, per pass.
		engine := values["engine.filter_s"] + values["engine.join_s"] + values["engine.aggregate_s"] + values["engine.project_s"]
		storage := values["storage.open_s"] + values["storage.decode_s"]
		perPass := exec / float64(len(tracedPasses(out.passes)))
		fmt.Printf("  inside plan.ExecuteOpts (%.3f s a pass): engine operators %.3f s, storage open+decode %.3f s, rest %.3f s\n",
			perPass, engine, storage, perPass-engine-storage)
	}
	if spec.attribution == "" {
		return
	}
	const limit = 0.10
	rec.Attempted++
	if v := values[spec.attribution]; math.Abs(v) > limit {
		rec.Failed++
		rec.Findings = append(rec.Findings, fmt.Sprintf("attribution: %s = %.3f exceeds %.2f", spec.attribution, v, limit))
	}
}

func readEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				e.CPUModel = strings.TrimSpace(val)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(b))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
