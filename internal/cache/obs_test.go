package cache

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sia/internal/core"
	"sia/internal/obs"
	"sia/internal/predtest"
)

func TestRegisterMetricsExposesCounters(t *testing.T) {
	c := NewSynthesizer(2)
	reg := obs.NewRegistry()
	if err := c.RegisterMetrics(reg); err != nil {
		t.Fatalf("RegisterMetrics: %v", err)
	}
	ctx := context.Background()
	mk := func(context.Context) (*core.Result, error) { return &core.Result{}, nil }
	if _, _, err := c.do(ctx, "k1", mk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.do(ctx, "k1", mk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.do(ctx, "k2", mk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.do(ctx, "k3", mk); err != nil { // evicts k1 or k2
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"sia_cache_hits_total 1",
		"sia_cache_misses_total 3",
		"sia_cache_coalesced_total 0",
		"sia_cache_evictions_total 1",
		"sia_cache_entries 2",
		"sia_cache_inflight 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The Stats view and the registry must agree.
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("Stats view disagrees: %+v", st)
	}

	// Registering the same instance twice must fail with the sentinel.
	err := c.RegisterMetrics(reg)
	if !errors.Is(err, obs.ErrAlreadyRegistered) {
		t.Errorf("second registration: got %v, want ErrAlreadyRegistered", err)
	}
}

// TestSetTracerRacesDo is the -race regression for the tracer swap: do
// emits outcome spans from many goroutines while SetTracer concurrently
// attaches, replaces and detaches tracers. Before tracer access became
// atomic this was a data race on the tracer field.
func TestSetTracerRacesDo(t *testing.T) {
	c := NewSynthesizer(64)
	var buf1, buf2 bytes.Buffer
	tr1, tr2 := obs.NewTracer(&buf1), obs.NewTracer(&buf2)
	ctx := context.Background()
	mk := func(context.Context) (*core.Result, error) { return &core.Result{}, nil }

	var wg, swapper sync.WaitGroup
	stop := make(chan struct{})
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				c.SetTracer(tr1)
			case 1:
				c.SetTracer(tr2)
			default:
				c.SetTracer(nil)
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*200+i)%32)
				if _, _, err := c.do(ctx, key, mk); err != nil {
					t.Errorf("do: %v", err)
					return
				}
			}
		}(g)
	}
	// Let the do goroutines finish first so every outcome span lands on
	// whichever tracer was current; then stop the swapper before closing
	// the tracers (Emit on a closed tracer would write to a dead buffer).
	wg.Wait()
	close(stop)
	swapper.Wait()
	if err := tr1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheTracerEmitsOutcomes(t *testing.T) {
	c := NewSynthesizer(4)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	c.SetTracer(tr)
	ctx := context.Background()
	mk := func(context.Context) (*core.Result, error) { return &core.Result{}, nil }
	if _, _, err := c.do(ctx, "k", mk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.do(ctx, "k", mk); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var outcomes []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad trace line: %v", err)
		}
		if m["event"] != obs.EvCache {
			t.Errorf("unexpected event %v", m["event"])
		}
		outcomes = append(outcomes, m["outcome"].(string))
	}
	if len(outcomes) != 2 || outcomes[0] != "miss" || outcomes[1] != "hit" {
		t.Errorf("outcomes = %v, want [miss hit]", outcomes)
	}
}

func TestKeyForTracerBypassesCache(t *testing.T) {
	schema := intSchema("a", "b")
	p := predtest.MustParse("a - b < 20 AND b < 0", schema)
	cols := []string{"a"}
	var tr *obs.Tracer
	if _, ok := KeyFor(p, cols, schema, core.Options{Tracer: tr}); !ok {
		t.Error("nil Tracer (tracing off) must stay cacheable")
	}
	var buf bytes.Buffer
	live := obs.NewTracer(&buf)
	defer live.Close()
	if _, ok := KeyFor(p, cols, schema, core.Options{Tracer: live}); ok {
		t.Error("a live Tracer must make the request uncacheable")
	}
}
