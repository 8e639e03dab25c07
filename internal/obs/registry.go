package obs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrAlreadyRegistered is returned (wrapped) when a collector-function
// metric is registered under a name+label series that already exists.
// Instrument-returning registrations (Counter, Histogram) never hit
// it: they return the existing instrument instead.
var ErrAlreadyRegistered = errors.New("obs: metric already registered")

// Label is one metric dimension, e.g. {Key: "op", Value: "filter"}. Series
// of the same metric name with different label values are distinct
// instruments that share one HELP/TYPE header in the exposition.
type Label struct {
	Key, Value string
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		panic("obs: unknown metric kind")
	}
}

// series is one (name, labels) instrument. Exactly one of the value fields
// is set; fn-backed series are read at scrape time.
type series struct {
	labels  []Label
	key     string
	counter *Counter
	hist    *Histogram
	fn      func() float64
}

// value returns the series' current scalar value (counters and gauges).
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.fn != nil:
		return s.fn()
	default:
		return 0
	}
}

// family groups every series sharing a metric name.
type family struct {
	name, help string
	kind       kind
	bounds     []float64 // histogram bucket spec, for conflict detection
	series     []*series
	byKey      map[string]*series
}

// Registry is a set of named metrics. All methods are safe for concurrent
// use. Registration is get-or-register: asking twice for the same
// name+labels returns the same instrument, so packages can declare their
// metrics in var blocks without coordination. Registering a name under a
// different kind (or a histogram under different buckets) is a programmer
// error and panics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the instrumented internal
// packages (smt, core, engine) record into. cmd/siad serves it at
// /metrics alongside its own per-server registry.
func Default() *Registry { return defaultRegistry }

// labelKey canonicalizes a label set: sorted by key, rendered once.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(escapeLabelValue(l.Value))
	}
	return b.String()
}

// lookup returns (creating if needed) the family for name, enforcing kind
// consistency. Caller holds r.mu.
func (r *Registry) lookup(name, help string, k kind, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: append([]float64(nil), bounds...), byKey: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, f.kind, k))
	}
	if k == kindHistogram && !equalBounds(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q already registered with different buckets", name))
	}
	return f
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the counter registered under name+labels, creating and
// registering it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter, nil)
	key := labelKey(labels)
	if s, ok := f.byKey[key]; ok {
		if s.counter == nil {
			panic(fmt.Sprintf("obs: metric %q{%s} is function-backed, not an instrument", name, key))
		}
		return s.counter
	}
	s := &series{labels: append([]Label(nil), labels...), key: key, counter: &Counter{}}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s.counter
}

// Histogram returns the histogram registered under name+labels with the
// given bucket bounds, creating and registering it on first use. Asking
// again with different bounds panics.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram, bounds)
	key := labelKey(labels)
	if s, ok := f.byKey[key]; ok {
		return s.hist
	}
	s := &series{labels: append([]Label(nil), labels...), key: key, hist: NewHistogram(bounds)}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for components that already keep their own counters
// (e.g. a cache instance exposing its hit count). Unlike the instrument
// forms, a duplicate series is an error: two closures cannot share state.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) error {
	return r.registerFunc(name, help, kindCounter, fn, labels)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) error {
	return r.registerFunc(name, help, kindGauge, fn, labels)
}

func (r *Registry) registerFunc(name, help string, k kind, fn func() float64, labels []Label) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, byKey: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != k {
		return fmt.Errorf("%w: %q as %s, requested %s", ErrAlreadyRegistered, name, f.kind, k)
	}
	key := labelKey(labels)
	if _, ok := f.byKey[key]; ok {
		return fmt.Errorf("%w: %q{%s}", ErrAlreadyRegistered, name, key)
	}
	s := &series{labels: append([]Label(nil), labels...), key: key, fn: fn}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return nil
}

// sortedFamilies returns the families in name order with each family's
// series in label-key order — the deterministic exposition order. Caller
// holds r.mu.
func (r *Registry) sortedFamilies() []*family {
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	out := make([]*family, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
		out = append(out, f)
	}
	return out
}
