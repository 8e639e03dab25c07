// Command siabench regenerates the paper's tables and figures (§6).
//
// Usage:
//
//	siabench -experiment table2 -queries 200
//	siabench -all -queries 40 -scale 1,10
//	siabench -experiment table3 -trace cegis.jsonl
//
// Experiments: table1, table2, table3, table4, fig6, fig7, fig8, fig9,
// fig9-disk, motivating. Table 2/3 and Fig. 7/8 share one synthesis sweep;
// Table 4 and Fig. 9 share one runtime run. fig9-disk repeats the runtime
// comparison over disk-backed segment storage, where the rewrite's
// synthesized predicate additionally prunes segments via zone maps.
// Defaults are laptop-sized; the paper's scale is -queries 200
// -scale 100,1000 (TPC-H SF 1 and 10).
//
// siabench reproduces the paper; it is not how performance is judged. The
// gated measurement is BENCHMARK.json + bench/ (see bench/README.md).
//
// -trace FILE records every CEGIS loop as JSONL spans (one line per
// sampling round, learning iteration, verification and outcome — the raw
// form of the paper's Table 3 breakdown; see internal/obs and
// docs/OBSERVABILITY.md for the schema). Tracing makes synthesis runs
// uncacheable, so Fig. 9's synthesis memoization is bypassed and traced
// runs are slower.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sia/internal/experiments"
	"sia/internal/maxcompute"
	"sia/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "siabench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("experiment", "", "comma-separated: table1..table4, fig6..fig9, fig9-disk, motivating")
	all := flag.Bool("all", false, "run every experiment")
	queries := flag.Int("queries", 40, "number of benchmark queries (paper: 200)")
	scale := flag.String("scale", "1,10", "comma-separated scale factors (x15k orders; paper SF1/SF10 = 100,1000)")
	population := flag.Int("population", 2000, "case-study population size (fig6)")
	seed := flag.Int64("seed", 0, "workload seed (0 = default)")
	parallelism := flag.Int("parallelism", 0, "engine worker count for plan execution (0 = one per CPU; results are identical at any setting)")
	trace := flag.String("trace", "", "write CEGIS trace spans to this file as JSONL (disables synthesis caching)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("opening cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "siabench: cpuprofile:", cerr)
			}
		}()
	}

	var sfs []float64
	for _, s := range strings.Split(*scale, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad scale %q: %w", s, err)
		}
		sfs = append(sfs, f)
	}
	cfg := experiments.Config{Queries: *queries, Seed: *seed, ScaleFactors: sfs, Parallelism: *parallelism}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return fmt.Errorf("opening trace file: %w", err)
		}
		tr := obs.NewTracer(f)
		cfg.Tracer = tr
		// Close flushes buffered spans and surfaces any write error; the
		// file itself must also reach disk before we report success.
		defer func() {
			if cerr := tr.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "siabench: trace:", cerr)
			}
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "siabench: trace:", cerr)
			}
		}()
	}

	run := map[string]bool{}
	if *all {
		for _, e := range []string{"table1", "table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9", "motivating"} {
			run[e] = true
		}
	} else if *exp != "" {
		for _, e := range strings.Split(*exp, ",") {
			run[strings.ToLower(strings.TrimSpace(e))] = true
		}
	} else {
		flag.Usage()
		return fmt.Errorf("no experiment selected")
	}

	// Shared sweeps.
	var records []experiments.RunRecord
	needSweep := run["table2"] || run["table3"] || run["fig7"] || run["fig8"]
	if needSweep {
		start := time.Now()
		var err error
		records, err = experiments.SynthesisSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "synthesis sweep: %d records in %v\n", len(records), time.Since(start).Round(time.Millisecond))
	}
	section := func(title, body string) {
		fmt.Printf("=== %s ===\n%s\n", title, body)
	}
	if run["table1"] {
		section("Table 1: baseline configurations", experiments.RenderTable1(experiments.Table1()))
	}
	if run["table2"] {
		section("Table 2: efficacy", experiments.RenderTable2(experiments.Table2(records)))
	}
	if run["table3"] {
		section("Table 3: efficiency", experiments.RenderTable3(experiments.Table3(records)))
	}
	if run["fig7"] {
		section("Fig 7: learning-loop iterations", experiments.RenderFig7(experiments.Fig7(records)))
	}
	if run["fig8"] {
		section("Fig 8: sample distribution", experiments.RenderFig8(experiments.Fig8(records)))
	}
	runtimeSection := func(title string, experiment func(experiments.Config) ([]experiments.RuntimeRecord, error)) error {
		start := time.Now()
		records, err := experiment(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "runtime experiment: %d records in %v\n", len(records), time.Since(start).Round(time.Millisecond))
		section(title, experiments.RenderFig9(records, experiments.Summarize(records)))
		return nil
	}
	if run["table4"] || run["fig9"] {
		if err := runtimeSection("Fig 9 / Table 4: runtime impact and selectivity", experiments.Fig9); err != nil {
			return err
		}
	}
	if run["fig6"] {
		qs, err := maxcompute.Simulate(maxcompute.Config{N: *population})
		if err != nil {
			return err
		}
		section("Fig 6: MaxCompute case study (simulated population)", experiments.RenderFig6(qs))
	}
	if run["motivating"] {
		for _, sf := range sfs {
			m, err := experiments.Motivating(sf)
			if err != nil {
				return err
			}
			section(fmt.Sprintf("Motivating example (scale %g)", sf), experiments.RenderMotivating(m))
		}
	}
	if run["fig9-disk"] {
		if err := runtimeSection("Fig 9 (disk): segment storage with zone-map pruning", experiments.Fig9Disk); err != nil {
			return err
		}
	}
	return nil
}
