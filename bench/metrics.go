package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"sia/internal/obs"
	"sia/internal/smt"
	"sia/internal/storage"
)

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// contract is the part of BENCHMARK.json the program reads: the names,
// units, directions and bounds of the metrics it must report. They are
// written down there and nowhere else; an end-to-end metric named there
// that a run does not measure is an error, and a test checks that every
// per-layer metric is measured on some workload.
//
// Every workload reports every end-to-end metric (the benchmark contract
// asks for that, and for values that are never 0), so they are named by
// what an operation is, not by workload: an operation is one synthesis on
// synth_cold, one SQL statement on query_mem and query_disk, one HTTP
// request on serve_mix. A per-layer metric of a layer a workload does not
// touch reads 0 there — the "no change expected" half of the map in
// README.md.
type contract struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadContract reads BENCHMARK.json from path, or, with no path, from the
// working directory or its parent (the repository root when started there
// or in bench/).
func loadContract(path string) (*contract, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var raw []byte
	var err error
	for _, c := range candidates {
		if raw, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bench: the contract: %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("bench: the contract: %w", err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("bench: the contract names no metrics")
	}
	return &c, nil
}

// named turns measured values into the metrics specs lists, with their
// units, and returns the names among them that were not measured. Those
// read 0: a per-layer metric of a layer the workload does not touch.
func named(specs []metricSpec, values map[string]float64) (out map[string]metricValue, missing []string) {
	out = make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			missing = append(missing, s.Name)
		}
		out[s.Name] = metricValue{v, s.Unit}
	}
	return out, missing
}

// counters is one reading of every counter the layers export, plus the
// process's own clocks and allocator totals.
type counters struct {
	smt     smt.BenchSnapshot
	storage storage.CounterSnapshot
	reg     map[string]float64 // obs.Default(): scalars by key, histograms as key+" sum"/" count"
	mem     runtime.MemStats
	cpu     time.Duration // user+system CPU of this process
	rssMB   float64       // its largest resident set so far
	wall    time.Time
}

func readCounters() (*counters, error) {
	c := &counters{smt: smt.Snapshot(), storage: storage.SnapshotCounters(), wall: time.Now()}
	reg, err := readRegistry()
	if err != nil {
		return nil, err
	}
	c.reg = reg
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("bench: getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	return c, nil
}

// readRegistry flattens the default obs registry through its public JSON
// export: the engine, storage and core histograms have no typed accessor.
func readRegistry() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, obs.Default()); err != nil {
		return nil, fmt.Errorf("bench: read metrics registry: %w", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		return nil, fmt.Errorf("bench: parse metrics registry: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		var scalar float64
		if json.Unmarshal(v, &scalar) == nil {
			out[k] = scalar
			continue
		}
		var hist struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if err := json.Unmarshal(v, &hist); err != nil {
			return nil, fmt.Errorf("bench: metrics registry entry %s: %w", k, err)
		}
		out[k+" sum"] = hist.Sum
		out[k+" count"] = hist.Count
	}
	return out, nil
}

// layerDeltas turns two readings into the counter-backed per-layer metrics
// for ops operations between them.
func layerDeltas(before, after *counters, ops int) map[string]float64 {
	d := func(key string) float64 { return after.reg[key] - before.reg[key] }
	q := func(kind string) float64 {
		return after.smt.Query[kind].SumSeconds - before.smt.Query[kind].SumSeconds
	}
	u := func(a, b uint64) float64 { return float64(a - b) }
	st := after.storage.Sub(before.storage)
	m := map[string]float64{
		"core.generation_ms": 1e3 * d(`sia_synthesis_phase_seconds{phase="generation"} sum`),
		"core.learning_ms":   1e3 * d(`sia_synthesis_phase_seconds{phase="learning"} sum`),
		"core.validation_ms": 1e3 * d(`sia_synthesis_phase_seconds{phase="validation"} sum`),
		"core.iterations":    d("sia_synthesis_iterations_total"),

		"smt.sat_s":         q("sat"),
		"smt.model_s":       q("model"),
		"smt.elimination_s": q("elimination"),
		"smt.enumerate_s":   q("enumerate"),
		"smt.qe_s":          q("qe"),
		"smt.sat_calls":     u(after.smt.SatQueries, before.smt.SatQueries),
		"smt.model_calls":   u(after.smt.ModelQueries, before.smt.ModelQueries),
		"smt.eliminations":  u(after.smt.Eliminations, before.smt.Eliminations),

		"engine.filter_s":     d(`sia_engine_operator_seconds{op="filter"} sum`),
		"engine.join_s":       d(`sia_engine_operator_seconds{op="join"} sum`),
		"engine.aggregate_s":  d(`sia_engine_operator_seconds{op="aggregate"} sum`),
		"engine.project_s":    d(`sia_engine_operator_seconds{op="project"} sum`),
		"engine.rows_scanned": d("sia_engine_rows_scanned_total"),
		"engine.rows_kept":    d("sia_engine_rows_kept_total"),
		"engine.morsels":      d("sia_engine_morsels_scheduled_total"),

		"storage.segments_scanned": float64(st.SegmentsScanned),
		"storage.segments_pruned":  float64(st.SegmentsPruned),
		"storage.bytes_read":       float64(st.BytesRead),
		"storage.open_s":           d("sia_storage_segment_open_seconds sum"),
		"storage.decode_s":         d("sia_storage_segment_decode_seconds sum"),

		"proc.gc_pause_ms": float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
	}
	for k := range after.reg {
		const gaveup = "sia_synthesis_gaveup_total{"
		if len(k) > len(gaveup) && k[:len(gaveup)] == gaveup {
			m["core.gaveup_count"] += d(k)
		}
	}
	qeHits := u(after.smt.QEMemoHits, before.smt.QEMemoHits)
	m["smt.qe_memo_hit_ratio"] = ratio(qeHits, qeHits+u(after.smt.QEMemoMisses, before.smt.QEMemoMisses))
	inHits := u(after.smt.InternHits, before.smt.InternHits)
	m["smt.intern_hit_ratio"] = ratio(inHits, inHits+u(after.smt.InternMisses, before.smt.InternMisses))
	m["engine.keep_ratio"] = ratio(m["engine.rows_kept"], m["engine.rows_scanned"])
	m["storage.pruned_ratio"] = ratio(m["storage.segments_pruned"], m["storage.segments_pruned"]+m["storage.segments_scanned"])
	m["storage.read_mb_per_query"] = ratio(m["storage.bytes_read"]/(1<<20), float64(ops))
	m["proc.allocs_per_op"] = ratio(u(after.mem.Mallocs, before.mem.Mallocs), float64(ops))
	m["proc.alloc_mb_per_op"] = ratio(u(after.mem.TotalAlloc, before.mem.TotalAlloc)/(1<<20), float64(ops))
	m["proc.rss_peak_mb"] = after.rssMB
	return m
}
