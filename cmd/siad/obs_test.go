package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sia/internal/serve/api"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// TestMetricsEndpoint is the acceptance check for the exposition surface:
// after one synthesis, /metrics must serve Prometheus text that includes
// the per-server HTTP and cache series alongside the process-wide
// synthesis and solver series fed by the instrumented internal packages.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	if resp, _, _ := postSynthesize(t, ts, quickstartBody); resp.StatusCode != http.StatusOK {
		t.Fatal("seed request failed")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		// Per-server registry.
		"sia_cache_hits_total",
		"sia_cache_misses_total 1",
		"sia_http_requests_total",
		`sia_http_request_seconds_bucket{path="/v1/synthesize",le="+Inf"}`,
		"sia_process_uptime_seconds",
		// Process-wide Default registry, fed by internal packages.
		"sia_synthesis_duration_seconds_count",
		"sia_synthesis_runs_total",
		"sia_smt_sat_queries_total",
		"sia_smt_model_queries_total",
		"# TYPE sia_synthesis_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDraining checks shutdown semantics: once the drain flag is set, new
// synthesis work is refused with 503 and the liveness probe fails so load
// balancers stop routing here, while read-only endpoints keep serving.
func TestDraining(t *testing.T) {
	srv, ts := testServer(t)
	srv.StartDrain()

	resp, _, body := postSynthesize(t, ts, quickstartBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("synthesize while draining: status %d, body %s", resp.StatusCode, body)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Fatalf("draining error body %q not structured", body)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d", hresp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics must keep serving during drain: status %d", mresp.StatusCode)
	}
}

// TestAccessLog drives one synthesis and one probe through the middleware
// and checks each produced exactly one structured line with the documented
// fields, including the cache outcome on synthesize responses.
func TestAccessLog(t *testing.T) {
	var mu syncBuffer
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&mu, nil))
	_, ts := startServer(t, cfg)

	if resp, _, _ := postSynthesize(t, ts, quickstartBody); resp.StatusCode != http.StatusOK {
		t.Fatal("seed request failed")
	}
	if resp, _, _ := postSynthesize(t, ts, quickstartBody); resp.StatusCode != http.StatusOK {
		t.Fatal("warm request failed")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()

	var lines []map[string]any
	sc := bufio.NewScanner(strings.NewReader(mu.String()))
	for sc.Scan() {
		var m map[string]any
		if uerr := json.Unmarshal(sc.Bytes(), &m); uerr != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", uerr, sc.Text())
		}
		if m["msg"] == "request" {
			lines = append(lines, m)
		}
	}
	if len(lines) != 3 {
		t.Fatalf("got %d access-log lines, want 3:\n%s", len(lines), mu.String())
	}

	cold, warm, probe := lines[0], lines[1], lines[2]
	for i, m := range []map[string]any{cold, warm} {
		if m["method"] != "POST" || m["path"] != "/v1/synthesize" {
			t.Errorf("line %d: method/path = %v/%v", i, m["method"], m["path"])
		}
		if int(m["status"].(float64)) != http.StatusOK {
			t.Errorf("line %d: status = %v", i, m["status"])
		}
		if _, ok := m["duration"]; !ok {
			t.Errorf("line %d missing duration: %v", i, m)
		}
	}
	if cold["cache"] != "miss" {
		t.Errorf("cold request cache outcome = %v, want miss", cold["cache"])
	}
	if warm["cache"] != "hit" {
		t.Errorf("warm request cache outcome = %v, want hit", warm["cache"])
	}
	if probe["path"] != "/healthz" || probe["method"] != "GET" {
		t.Errorf("probe line = %v", probe)
	}
	if _, ok := probe["cache"]; ok {
		t.Errorf("healthz must not carry a cache outcome: %v", probe)
	}
}

// TestPprofGated: profiling routes exist only when opted in.
func TestPprofGated(t *testing.T) {
	_, ts := testServer(t) // pprof off
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without -pprof: status %d", resp.StatusCode)
	}

	cfg := testConfig()
	cfg.Pprof = true
	_, ts2 := startServer(t, cfg)
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with -pprof: status %d", resp2.StatusCode)
	}
}

func TestDebugVars(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars status %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("debug/vars is not JSON: %v", err)
	}
}

// syncBuffer is a bytes.Buffer safe for the handler goroutines that slog
// writes from while the test goroutine reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
