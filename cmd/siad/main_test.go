package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sia/internal/serve"
	"sia/internal/serve/api"
)

// testConfig is the replica the handler tests run against unless they say
// otherwise.
func testConfig() serve.Config {
	return serve.Config{
		Capacity:       64,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     time.Minute,
		Logger:         discardLogger(),
	}
}

// startServer builds a replica from cfg and serves its handler until the
// test ends.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func testServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	return startServer(t, testConfig())
}

const quickstartBody = `{
	"predicate": "l_shipdate - o_orderdate < 20 AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10 AND o_orderdate < DATE '1993-06-01'",
	"cols": ["l_commitdate", "l_shipdate"],
	"schema": [
		{"name": "l_shipdate", "type": "date"},
		{"name": "l_commitdate", "type": "date"},
		{"name": "o_orderdate", "type": "date"}
	]
}`

func postSynthesize(t *testing.T, ts *httptest.Server, body string) (*http.Response, api.SynthesizeResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out api.SynthesizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp, out, buf.String()
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestSynthesizeAndCacheHit(t *testing.T) {
	srv, ts := testServer(t)

	resp, cold, _ := postSynthesize(t, ts, quickstartBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", resp.StatusCode)
	}
	if !cold.Valid || cold.Predicate == "" || cold.Cached {
		t.Fatalf("cold response %+v", cold)
	}

	resp, warm, _ := postSynthesize(t, ts, quickstartBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}
	if !warm.Cached {
		t.Fatalf("repeat request not served from cache: %+v", warm)
	}
	if warm.Predicate != cold.Predicate || warm.Iterations != cold.Iterations {
		t.Fatalf("cached response differs from cold run:\ncold %+v\nwarm %+v", cold, warm)
	}

	cs := srv.Synth().Stats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("cache stats %+v, want 1 miss 1 hit", cs)
	}
}

// TestConcurrentRequestsCoalesce is the acceptance check: 32 concurrent
// identical requests execute exactly one CEGIS loop, asserted via the
// miss/coalesce counters.
func TestConcurrentRequestsCoalesce(t *testing.T) {
	srv, ts := testServer(t)
	const n = 32
	var wg sync.WaitGroup
	preds := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(quickstartBody))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var out api.SynthesizeResponse
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			preds[i] = out.Predicate
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if preds[i] != preds[0] {
			t.Fatalf("request %d got a different predicate", i)
		}
	}
	cs := srv.Synth().Stats()
	if cs.Misses != 1 {
		t.Fatalf("%d synthesis loops ran for %d identical requests (stats %+v)", cs.Misses, n, cs)
	}
	if cs.Hits+cs.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d (stats %+v)", cs.Hits+cs.Coalesced, n-1, cs)
	}
	if cs.InFlight != 0 {
		t.Fatalf("inflight = %d after all requests finished", cs.InFlight)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{`},
		{"unknown field", `{"predicte": "a < 1"}`},
		{"empty schema", `{"predicate": "a < 1", "cols": ["a"], "schema": []}`},
		{"bad type", `{"predicate": "a < 1", "cols": ["a"], "schema": [{"name": "a", "type": "text"}]}`},
		{"parse error", `{"predicate": "a <", "cols": ["a"], "schema": [{"name": "a", "type": "int"}]}`},
		{"unknown column", `{"predicate": "a < 1 AND b < 2", "cols": ["c"], "schema": [{"name": "a", "type": "int"}, {"name": "b", "type": "int"}]}`},
		{"negative option", `{"predicate": "a < 1", "cols": ["a"], "schema": [{"name": "a", "type": "int"}], "options": {"max_iterations": -1}}`},
		{"negative timeout", `{"predicate": "a < 1", "cols": ["a"], "schema": [{"name": "a", "type": "int"}], "timeout_ms": -5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _, body := postSynthesize(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %s", resp.StatusCode, body)
			}
			var e api.ErrorResponse
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not structured", body)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestRequestDeadline(t *testing.T) {
	_, ts := testServer(t)

	// A 1 ms budget cannot fit a synthesis run; the handler must answer
	// 504 with an error body rather than hanging. The oversized sampling
	// options keep the run well past any plausible timer latency, so the
	// deadline cannot lose the race to a fast synthesis.
	body := strings.Replace(quickstartBody, "\n}",
		",\n\t\"timeout_ms\": 1,\n\t\"options\": {\"initial_true\": 150, \"initial_false\": 150, \"samples_per_iteration\": 60}\n}", 1)
	start := time.Now()
	resp, _, raw := postSynthesize(t, ts, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timed-out request took %v", elapsed)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal([]byte(raw), &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q not structured", raw)
	}
}

func TestMaxTimeoutCap(t *testing.T) {
	// A client asking for an hour is capped to the server's max: the
	// context deadline must be at most maxTimeout from now. Exercised
	// indirectly: with maxTimeout of 1 ms even a huge timeout_ms request
	// times out.
	cfg := testConfig()
	cfg.DefaultTimeout, cfg.MaxTimeout = time.Millisecond, time.Millisecond
	_, ts := startServer(t, cfg)
	body := strings.Replace(quickstartBody, "\n}",
		",\n\t\"timeout_ms\": 3600000,\n\t\"options\": {\"initial_true\": 150, \"initial_false\": 150, \"samples_per_iteration\": 60}\n}", 1)
	resp, _, raw := postSynthesize(t, ts, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}
}

func TestStats(t *testing.T) {
	_, ts := testServer(t)
	if resp, _, _ := postSynthesize(t, ts, quickstartBody); resp.StatusCode != http.StatusOK {
		t.Fatal("seed request failed")
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.UptimeSeconds < 0 {
		t.Fatalf("uptime %v", st.UptimeSeconds)
	}
}
