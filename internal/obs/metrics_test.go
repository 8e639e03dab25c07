package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	const workers, perWorker = 8, 1000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	// Boundary values land in the bucket whose le equals them (le is <=).
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 1} // (-inf,1], (1,2], (2,5], (5,+inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0.5+1+1.5+2+3+5+7 {
		t.Errorf("sum = %g", s.Sum)
	}
}

func TestHistogramConcurrentSum(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
	want := float64(workers*perWorker) * 0.001
	if math.Abs(s.Sum-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-increasing bounds")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRegistryGetOrRegister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sia_test_total", "help")
	b := r.Counter("sia_test_total", "help")
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	l1 := r.Counter("sia_test_total", "help", Label{"op", "x"})
	l2 := r.Counter("sia_test_total", "help", Label{"op", "y"})
	if l1 == l2 {
		t.Error("distinct label values shared a counter")
	}
	h1 := r.Histogram("sia_test_seconds", "help", []float64{1, 2})
	h2 := r.Histogram("sia_test_seconds", "help", []float64{1, 2})
	if h1 != h2 {
		t.Error("same histogram series returned distinct instruments")
	}
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("sia_conc_total", "help").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("sia_conc_total", "help").Value(); got != workers*200 {
		t.Errorf("counter = %d, want %d", got, workers*200)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sia_kind_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering histogram over counter")
		}
	}()
	r.Histogram("sia_kind_total", "help", nil)
}

func TestRegistryHistogramBoundsConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("sia_hb_seconds", "help", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for conflicting bucket bounds")
		}
	}()
	r.Histogram("sia_hb_seconds", "help", []float64{1, 3})
}

func TestFuncMetricsAndDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.CounterFunc("sia_fn_total", "help", func() float64 { return 41 }); err != nil {
		t.Fatalf("CounterFunc: %v", err)
	}
	err := r.CounterFunc("sia_fn_total", "help", func() float64 { return 0 })
	if err == nil {
		t.Fatal("duplicate CounterFunc series did not error")
	}
	if !strings.Contains(err.Error(), "already registered") {
		t.Errorf("unexpected error: %v", err)
	}
	var sb strings.Builder
	if werr := WritePrometheus(&sb, r); werr != nil {
		t.Fatalf("WritePrometheus: %v", werr)
	}
	if !strings.Contains(sb.String(), "sia_fn_total 41") {
		t.Errorf("function metric missing from exposition:\n%s", sb.String())
	}
}
