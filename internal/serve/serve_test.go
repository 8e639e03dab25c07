package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sia/internal/core"
	"sia/internal/serve/api"
	"sia/internal/serve/client"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

func testConfig() Config {
	return Config{
		Capacity:       64,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     time.Minute,
		Logger:         discardLogger(),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

const simpleBody = `{
	"predicate": "a - b < 20 AND b < 0",
	"cols": ["a"],
	"schema": [
		{"name": "a", "type": "int"},
		{"name": "b", "type": "int"}
	]
}`

func post(t *testing.T, url, path, body string) (*http.Response, api.SynthesizeResponse, string) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out api.SynthesizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp, out, string(raw)
}

// TestV1Routes: synthesize and stats answer under /v1 only; the unversioned
// spellings of the original siad are gone.
func TestV1Routes(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	resp, first, _ := post(t, ts.URL, api.PathSynthesize, simpleBody)
	if resp.StatusCode != http.StatusOK || !first.Valid {
		t.Fatalf("v1 synthesize: status %d, %+v", resp.StatusCode, first)
	}
	resp, again, _ := post(t, ts.URL, api.PathSynthesize, simpleBody)
	if resp.StatusCode != http.StatusOK || !again.Cached || again.Predicate != first.Predicate {
		t.Fatalf("repeat not served from the cache: status %d, %+v vs %+v", resp.StatusCode, again, first)
	}

	sresp, err := http.Get(ts.URL + api.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	var st api.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Cache.Misses != 1 {
		t.Fatalf("stats %+v, want 1 miss", st.Cache)
	}

	if resp, _, _ := post(t, ts.URL, "/synthesize", simpleBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /synthesize: status %d, want 404", resp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats: status %d, want 404", gresp.StatusCode)
	}
}

// TestContentTypeEnforced: an explicit non-JSON media type is refused with
// 415; an absent Content-Type is tolerated.
func TestContentTypeEnforced(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	resp, err := http.Post(ts.URL+api.PathSynthesize, "text/plain", strings.NewReader(simpleBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain: status %d, want 415", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+api.PathSynthesize, strings.NewReader(simpleBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Del("Content-Type")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("absent Content-Type: status %d, want 200", resp2.StatusCode)
	}
}

// TestBodyCapEnforced is the regression test for the unbounded body read:
// a body past -max-body is refused with 413 and a structured error, and
// the connection survives.
func TestBodyCapEnforced(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 512
	_, ts := newTestServer(t, cfg)

	huge := fmt.Sprintf(`{"predicate": %q, "cols": ["a"], "schema": [{"name": "a", "type": "int"}]}`,
		"a < 1 AND "+strings.Repeat("a < 1000000 AND ", 200)+"a < 2")
	resp, _, raw := post(t, ts.URL, api.PathSynthesize, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (body %s)", resp.StatusCode, raw)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal([]byte(raw), &e); err != nil || e.Error == "" {
		t.Fatalf("413 body %q not structured", raw)
	}

	// Within the cap still works.
	resp2, out, _ := post(t, ts.URL, api.PathSynthesize, simpleBody)
	if resp2.StatusCode != http.StatusOK || !out.Valid {
		t.Fatalf("small body after oversized: status %d", resp2.StatusCode)
	}
}

// TestBatchEndpoint: items are answered independently with per-item
// statuses; one malformed item does not fail the batch.
func TestBatchEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.BatchTick = 5 * time.Millisecond
	_, ts := newTestServer(t, cfg)

	batch := `{"items": [
		` + simpleBody + `,
		{"predicate": "a <", "cols": ["a"], "schema": [{"name": "a", "type": "int"}]},
		{"predicate": "a - b < 5 AND b < 2", "cols": ["a"], "schema": [{"name": "a", "type": "int"}, {"name": "b", "type": "int"}]}
	]}`
	resp, err := http.Post(ts.URL+api.PathBatch, "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 3 {
		t.Fatalf("batch answered %d items, want 3", len(out.Items))
	}
	if out.Items[0].Status != http.StatusOK || out.Items[0].Result == nil || !out.Items[0].Result.Valid {
		t.Fatalf("item 0: %+v", out.Items[0])
	}
	if out.Items[1].Status != http.StatusBadRequest || out.Items[1].Error == "" {
		t.Fatalf("item 1: %+v, want 400 with error", out.Items[1])
	}
	if out.Items[2].Status != http.StatusOK || out.Items[2].Result == nil {
		t.Fatalf("item 2: %+v", out.Items[2])
	}
}

// TestTenantFairness: one tenant exhausting its bucket is shed with 429 and
// Retry-After while another tenant's requests are still admitted.
func TestTenantFairness(t *testing.T) {
	cfg := testConfig()
	cfg.TenantRate = 0.001 // effectively no refill within the test
	cfg.TenantBurst = 2
	_, ts := newTestServer(t, cfg)

	send := func(tenant string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+api.PathSynthesize, strings.NewReader(simpleBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := send("noisy"); resp.StatusCode != http.StatusOK {
			t.Fatalf("noisy request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	shed := send("noisy")
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("noisy request past burst: status %d, want 429", shed.StatusCode)
	}
	if ra := shed.Header.Get(api.RetryAfterHeader); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp := send("quiet"); resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet tenant shed alongside noisy one: status %d", resp.StatusCode)
	}
}

// --- cluster tests --------------------------------------------------------

// testCluster brings up n in-process replicas with real listeners; the
// returned swap functions allow kill-and-restart without losing the
// address.
type testReplica struct {
	addr string
	ts   *httptest.Server
	swap *swapHandler
	srv  *Server
	cfg  Config
}

type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

func testCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*testReplica {
	t.Helper()
	reps := make([]*testReplica, n)
	var addrs []string
	for i := range reps {
		sw := &swapHandler{}
		sw.h.Store(http.NotFoundHandler())
		ts := httptest.NewUnstartedServer(sw)
		reps[i] = &testReplica{ts: ts, swap: sw, addr: ts.Listener.Addr().String()}
		addrs = append(addrs, reps[i].addr)
		t.Cleanup(ts.Close)
	}
	for i, r := range reps {
		cfg := testConfig()
		cfg.Self = r.addr
		cfg.Peers = addrs
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		r.srv, r.cfg = srv, cfg
		r.swap.h.Store(srv.Handler())
		r.ts.Start()
	}
	return reps
}

// TestClusterShardRouting: every replica names the same owner for a key
// (deterministic routing), exactly one replica's cache stores it, and a
// repeat via any ingress is a hit.
func TestClusterShardRouting(t *testing.T) {
	reps := testCluster(t, 3, nil)

	var owner string
	for i, r := range reps {
		resp, out, raw := post(t, r.ts.URL, api.PathSynthesize, simpleBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d: status %d, body %s", i, resp.StatusCode, raw)
		}
		if out.Shard == "" {
			t.Fatalf("replica %d: response names no shard", i)
		}
		if owner == "" {
			owner = out.Shard
		} else if out.Shard != owner {
			t.Fatalf("replica %d routed to %q, others to %q", i, out.Shard, owner)
		}
		if i > 0 && !out.Cached {
			t.Fatalf("replica %d: repeat request missed the shard cache", i)
		}
	}

	// Exactly one cache holds the entry.
	holders := 0
	for _, r := range reps {
		if st := r.srv.Synth().Stats(); st.Entries > 0 {
			holders++
			if r.addr != owner {
				t.Fatalf("entry stored on %q, but shard header said %q", r.addr, owner)
			}
		}
	}
	if holders != 1 {
		t.Fatalf("%d replicas hold the entry, want exactly 1", holders)
	}

	// Total misses across the cluster: one CEGIS run for three ingresses.
	var misses uint64
	for _, r := range reps {
		misses += r.srv.Synth().Stats().Misses
	}
	if misses != 1 {
		t.Fatalf("cluster ran %d synthesis loops for one logical request", misses)
	}
}

// TestClusterRestartWarmsFromSnapshot: a killed replica restarted from its
// snapshot answers its owned keys from cache without new synthesis runs.
func TestClusterRestartWarmsFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	reps := testCluster(t, 3, func(i int, cfg *Config) {
		cfg.SnapshotPath = filepath.Join(dir, fmt.Sprintf("snap.%d", i))
	})

	// Seed several distinct keys through one ingress so every replica owns
	// a few.
	bodies := make([]string, 8)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"predicate": "a - b < %d AND b < %d", "cols": ["a"],
			"schema": [{"name": "a", "type": "int"}, {"name": "b", "type": "int"}]}`, 10+i, i)
		if resp, _, raw := post(t, reps[0].ts.URL, api.PathSynthesize, bodies[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d, body %s", i, resp.StatusCode, raw)
		}
	}

	// Kill replica 0: drain, snapshot, replace with a fresh server.
	r0 := reps[0]
	preStats := r0.srv.Synth().Stats()
	if preStats.Entries == 0 {
		t.Skip("ring assigned no keys to replica 0 (cannot exercise warm restart)")
	}
	r0.srv.StartDrain()
	if _, err := r0.srv.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	r0.srv.Close()
	srv2, err := New(r0.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.Close)
	r0.swap.h.Store(srv2.Handler())

	st2 := srv2.Synth().Stats()
	if st2.Entries != preStats.Entries {
		t.Fatalf("restored %d entries, pre-kill cache held %d", st2.Entries, preStats.Entries)
	}

	// Every seeded request must now be a hit through the restarted
	// replica, with zero new synthesis runs anywhere.
	var missesBefore uint64
	for _, r := range reps[1:] {
		missesBefore += r.srv.Synth().Stats().Misses
	}
	for i, b := range bodies {
		resp, out, raw := post(t, r0.ts.URL, api.PathSynthesize, b)
		if resp.StatusCode != http.StatusOK || !out.Cached {
			t.Fatalf("post-restart probe %d: status %d cached=%v body %s", i, resp.StatusCode, out.Cached, raw)
		}
	}
	var missesAfter uint64
	for _, r := range reps[1:] {
		missesAfter += r.srv.Synth().Stats().Misses
	}
	if st := srv2.Synth().Stats(); st.Misses != 0 || missesAfter != missesBefore {
		t.Fatalf("warm restart still ran synthesis: restarted=%d peers=%d->%d", st.Misses, missesBefore, missesAfter)
	}
}

// TestSnapshotCorruptionColdStart: truncated or garbage snapshot files
// produce a clean cold start, never a crash.
func TestSnapshotCorruptionColdStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")

	// Build a valid snapshot first.
	cfg := testConfig()
	cfg.SnapshotPath = path
	srvA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	if resp, _, _ := post(t, tsA.URL, api.PathSynthesize, simpleBody); resp.StatusCode != http.StatusOK {
		t.Fatal("seed failed")
	}
	if n, err := srvA.WriteSnapshot(); err != nil || n == 0 {
		t.Fatalf("snapshot write: n=%d err=%v", n, err)
	}
	tsA.Close()
	srvA.Close()

	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":   func([]byte) []byte { return []byte("not json at all") },
		"version":   func([]byte) []byte { return []byte(`{"version": 999, "entries": []}`) },
	} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p2 := filepath.Join(dir, name+".json")
			if err := os.WriteFile(p2, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.SnapshotPath = p2
			srv, err := New(cfg)
			if err != nil {
				t.Fatalf("corrupt snapshot must cold-start, got constructor error: %v", err)
			}
			defer srv.Close()
			if st := srv.Synth().Stats(); st.Entries != 0 {
				t.Fatalf("cold start restored %d entries from a corrupt file", st.Entries)
			}
		})
	}

	// And the intact file does restore.
	cfgB := testConfig()
	cfgB.SnapshotPath = path
	srvB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	if st := srvB.Synth().Stats(); st.Entries == 0 {
		t.Fatal("intact snapshot restored nothing")
	}
}

// TestClientSharedWithForwarding: the same client package used by external
// callers drives a request through a non-owner ingress, proving the fan-out
// path and the public path are one implementation.
func TestClientSharedWithForwarding(t *testing.T) {
	reps := testCluster(t, 3, nil)
	req := api.SynthesizeRequest{
		Predicate: "a - b < 20 AND b < 0",
		Cols:      []string{"a"},
		Schema: []api.SchemaColumn{
			{Name: "a", Type: "int"},
			{Name: "b", Type: "int"},
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, r := range reps {
		c := client.New(r.ts.URL)
		resp, err := c.Synthesize(ctx, req)
		if err != nil {
			t.Fatalf("ingress %d: %v", i, err)
		}
		if !resp.Valid {
			t.Fatalf("ingress %d: invalid result %+v", i, resp)
		}
		if i > 0 && !resp.Cached {
			t.Fatalf("ingress %d: repeat not served from shard cache", i)
		}
	}

	// Sentinel mapping across the wire.
	c := client.New(reps[0].ts.URL)
	_, err := c.Synthesize(ctx, api.SynthesizeRequest{Predicate: "a <", Cols: []string{"a"},
		Schema: []api.SchemaColumn{{Name: "a", Type: "int"}}})
	if !errors.Is(err, core.ErrInvalidOptions) {
		t.Fatalf("parse error not errors.Is-matchable: %v", err)
	}
}

// TestBatchFanOutNoGoroutineLeak: the handleBatch per-item fan-out
// (go func(i int) joined by wg.Wait) must unwind under cancelled request
// contexts — every item goroutine exits once its process call observes
// cancellation, and the goroutine count returns to baseline.
func TestBatchFanOutNoGoroutineLeak(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	base := runtime.NumGoroutine()

	items := make([]api.SynthesizeRequest, 8)
	for i := range items {
		items[i] = api.SynthesizeRequest{
			Predicate: fmt.Sprintf("a - b < %d AND b < %d", 10+i, i),
			Cols:      []string{"a"},
			Schema: []api.SchemaColumn{
				{Name: "a", Type: "int"},
				{Name: "b", Type: "int"},
			},
			TimeoutMS: 30_000,
		}
	}
	body, err := json.Marshal(api.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}

	hc := &http.Client{Transport: &http.Transport{}}
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(round%4)*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+api.PathBatch, strings.NewReader(string(body)))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
	}
	hc.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("batch fan-out leaked goroutines: baseline %d, now %d", base, runtime.NumGoroutine())
}
