package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"sia/internal/obs"
	"sia/internal/predtest"
)

// TestSynthesizeEmitsTrace runs the paper's walkthrough with a tracer
// attached and checks the JSONL structure: one start span, one iteration
// and one verify span per loop iteration, and a final done span carrying
// the outcome and the Table-3 timing breakdown.
func TestSynthesizeEmitsTrace(t *testing.T) {
	s := intSchema("a1", "a2", "b1")
	p := predtest.MustParse("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", s)
	cols := []string{"a1", "a2"}

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	res, err := SynthesizeContext(context.Background(), p, cols, s, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if cerr := tr.Close(); cerr != nil {
		t.Fatalf("tracer close: %v", cerr)
	}

	byEvent := map[string][]map[string]any{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if uerr := json.Unmarshal(sc.Bytes(), &m); uerr != nil {
			t.Fatalf("trace line is not valid JSON: %v\n%s", uerr, sc.Text())
		}
		ev := m["event"].(string)
		byEvent[ev] = append(byEvent[ev], m)
	}
	if len(byEvent[obs.EvSynthesisStart]) != 1 {
		t.Fatalf("want 1 start span, got %d", len(byEvent[obs.EvSynthesisStart]))
	}
	if got := len(byEvent[obs.EvIteration]); got != res.Iterations {
		t.Errorf("iteration spans = %d, want %d (one per CEGIS iteration)", got, res.Iterations)
	}
	if got := len(byEvent[obs.EvVerify]); got != res.Iterations {
		t.Errorf("verify spans = %d, want %d", got, res.Iterations)
	}
	done := byEvent[obs.EvSynthesisDone]
	if len(done) != 1 {
		t.Fatalf("want 1 done span, got %d", len(done))
	}
	d := done[0]
	if d["verdict"] != "valid" {
		t.Errorf("done verdict = %v, want valid", d["verdict"])
	}
	if res.Optimal && d["optimal"] != true {
		t.Errorf("done span lost optimality: %v", d)
	}
	if d["pred"] == nil || d["pred"] == "" {
		t.Errorf("done span missing predicate: %v", d)
	}
	if int(d["iter"].(float64)) != res.Iterations {
		t.Errorf("done iter = %v, want %d", d["iter"], res.Iterations)
	}
}

// TestNilTracerSynthesisHotPathZeroAlloc guards the acceptance criterion:
// with tracing disabled (nil tracer), the per-iteration trace hooks on the
// synthesis hot path perform zero allocations.
func TestNilTracerSynthesisHotPathZeroAlloc(t *testing.T) {
	l := &synthesisLoop{opts: Options{}} // nil Tracer: tracing off
	l.ts = make([]Sample, 3)
	l.fs = make([]Sample, 4)
	allocs := testing.AllocsPerRun(100, func() {
		l.traceSamples("true", 10, false, time.Millisecond)
		l.traceIteration(2, 3, time.Millisecond)
		l.traceVerify(2, true, time.Millisecond)
		l.traceCounterexamples(2, "false", 5, false, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %v per iteration, want 0", allocs)
	}
}
