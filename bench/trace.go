package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded by the benchmark's own code around public functions only; spans
// inside the packages are a later change (ROADMAP item 4).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an operation's root span
	Op     int32  `json:"op"`     // spans of one operation share this id
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and reads no clock, so the untraced run pays one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (to pass as a child's parent and
// to end). -1 from a nil tracer.
func (t *tracer) begin(op, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes adds to out, per layer, the self time in seconds of one pass's
// spans: a span's duration minus the part its direct children cover. The
// benchmark's children never overlap (one goroutine per operation), so
// covered time is the plain sum of child durations.
func selfTimes(out map[string]float64, spans []span) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		out[layerOf(s.Name)] += float64(s.End-s.Start-child[s.ID]) / 1e9
	}
}

// durationsByName pools span durations in milliseconds under their names.
func durationsByName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// writeSpans writes one JSON object per span, pass after pass: span ids
// restart with every pass, so each line also carries its pass.
func writeSpans(path string, passes []*passResult) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for k, p := range passes {
		for _, s := range p.Spans {
			if err := enc.Encode(struct {
				Pass int `json:"pass"`
				span
			}{k, s}); err != nil {
				f.Close()
				return fmt.Errorf("bench: write trace: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: write trace: %w", err)
	}
	return nil
}
