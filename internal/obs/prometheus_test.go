package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("sia_b_total", `help with \ and
newline`).Add(3)
	if err := r.GaugeFunc("sia_a_entries", "entries", func() float64 { return 7 }); err != nil {
		t.Fatal(err)
	}
	h := r.Histogram("sia_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP sia_b_total help with \\\\ and\\nnewline\n",
		"# TYPE sia_b_total counter\n",
		"sia_b_total 3\n",
		"# TYPE sia_a_entries gauge\n",
		"sia_a_entries 7\n",
		"# TYPE sia_lat_seconds histogram\n",
		`sia_lat_seconds_bucket{le="0.1"} 1` + "\n",
		`sia_lat_seconds_bucket{le="1"} 2` + "\n",
		`sia_lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"sia_lat_seconds_sum 2.55\n",
		"sia_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear in name order.
	if strings.Index(out, "sia_a_entries") > strings.Index(out, "sia_b_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("sia_esc_total", "help", Label{"q", `a"b\c` + "\n"}).Inc()
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `sia_esc_total{q="a\"b\\c\n"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped label missing %q:\n%s", want, sb.String())
	}
}

func TestWritePrometheusMergedRegistries(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("sia_one_total", "h").Inc()
	r2.Counter("sia_two_total", "h").Add(2)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r1, r2); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(sb.String(), "sia_one_total 1") || !strings.Contains(sb.String(), "sia_two_total 2") {
		t.Errorf("merged exposition incomplete:\n%s", sb.String())
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("sia_j_total", "h", Label{"op", "filter"}).Add(5)
	h := r.Histogram("sia_j_seconds", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(3)

	var sb strings.Builder
	if err := WriteJSON(&sb, r); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if v, ok := got[`sia_j_total{op="filter"}`].(float64); !ok || v != 5 {
		t.Errorf("counter key missing or wrong: %v", got)
	}
	hv, ok := got["sia_j_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("histogram key missing: %v", got)
	}
	if hv["count"].(float64) != 2 {
		t.Errorf("histogram count = %v, want 2", hv["count"])
	}
	buckets := hv["buckets"].(map[string]any)
	if buckets["1"].(float64) != 1 || buckets["+Inf"].(float64) != 2 {
		t.Errorf("cumulative buckets wrong: %v", buckets)
	}
}

func TestExpvarVar(t *testing.T) {
	r := NewRegistry()
	if err := r.GaugeFunc("sia_ev_entries", "h", func() float64 { return 9 }); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(r.ExpvarVar().String()), &got); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v", err)
	}
	if got["sia_ev_entries"].(float64) != 9 {
		t.Errorf("expvar snapshot = %v", got)
	}
}
