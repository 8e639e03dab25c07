package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sia/internal/core"
	"sia/internal/predicate"
	"sia/internal/serve"
	serveapi "sia/internal/serve/api"
	serveclient "sia/internal/serve/client"
	"sia/internal/workload"
)

// serveRequest is one element of the stream in wire form.
type serveRequest struct {
	wire   serveapi.SynthesizeRequest
	tenant string
	source predicate.Predicate
	key    int // requests with equal predicate and target columns share a key
}

// wireRequests converts the generated stream to what a client sends: the
// predicate as SQL, the schema restricted to the columns it mentions, and
// the benchmark's one synthesis budget.
func wireRequests(stream []workload.ServeRequest) []*serveRequest {
	schema := workload.ServeSchema()
	keys := map[string]int{}
	out := make([]*serveRequest, len(stream))
	for i, sr := range stream {
		seen := map[string]bool{}
		var cols []serveapi.SchemaColumn
		for _, name := range append(predicate.Columns(sr.Query.Pred), sr.Cols...) {
			col, ok := schema.Lookup(name)
			if seen[name] || !ok {
				continue
			}
			seen[name] = true
			cols = append(cols, serveapi.SchemaColumn{Name: col.Name, Type: serveapi.FormatType(col.Type), Nullable: !col.NotNull})
		}
		sort.Slice(cols, func(a, b int) bool { return cols[a].Name < cols[b].Name })
		text := sr.Query.Pred.String()
		id := text + "|" + strings.Join(sr.Cols, ",")
		if _, ok := keys[id]; !ok {
			keys[id] = len(keys)
		}
		out[i] = &serveRequest{
			tenant: sr.Tenant,
			source: sr.Query.Pred,
			key:    keys[id],
			wire: serveapi.SynthesizeRequest{
				Predicate: text,
				Cols:      sr.Cols,
				Schema:    cols,
				TimeoutMS: 30000,
				Options:   wireOptions(),
			},
		}
	}
	return out
}

// replica is one in-process serve.Server behind a loopback listener.
type replica struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startReplica(capacity int) (*replica, error) {
	srv, err := serve.New(serve.Config{
		Capacity:  capacity,
		BatchTick: time.Millisecond,
		Logger:    slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, fmt.Errorf("bench: start replica: %w", err)
	}
	return &replica{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (r *replica) close() {
	r.ts.Close()
	r.srv.Close()
}

// serveClient is one closed-loop caller: it waits for each reply before
// sending its next request.
type serveClient struct {
	byTenant map[string]*serveclient.Client
	url      string
	hitMS    []float64 // latencies of responses flagged Cached
	missMS   []float64
	answers  map[answer]bool // distinct predicates served, by request key
	failed   []string
}

// answer is one predicate the server handed out for a request key.
type answer struct {
	key       int
	predicate string
	valid     bool
}

func newServeClient(url string) *serveClient {
	return &serveClient{byTenant: map[string]*serveclient.Client{}, url: url, answers: map[answer]bool{}}
}

// send issues request i of the stream; m, when there is one, records it.
func (c *serveClient) send(ctx context.Context, m *passMeter, i int, req *serveRequest) {
	cl := c.byTenant[req.tenant]
	if cl == nil {
		cl = serveclient.New(c.url, serveclient.WithRetries(0), serveclient.WithTenant(req.tenant))
		c.byTenant[req.tenant] = cl
	}
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	var tr *tracer
	if m != nil {
		tr = m.tr
	}
	start := time.Now()
	root := tr.begin(int32(i), -1, "bench.op")
	call := tr.begin(int32(i), root, "serve.client.Synthesize")
	resp, err := cl.Synthesize(ctx, req.wire)
	tr.end(call)
	tr.end(root)
	d := time.Since(start)
	if m != nil {
		m.observe(i, start)
	}
	if err != nil {
		c.failed = append(c.failed, fmt.Sprintf("request %s: %v", req.wire.Predicate, err))
		return
	}
	ms := float64(d.Nanoseconds()) / 1e6
	if resp.Cached {
		c.hitMS = append(c.hitMS, ms)
	} else {
		c.missMS = append(c.missMS, ms)
	}
	c.answers[answer{req.key, resp.Predicate, resp.Valid}] = true
}

// closedLoop sends reqs in order from n clients, each taking the next
// unsent request when its previous one is answered, and returns when every
// request has been answered.
func closedLoop(ctx context.Context, url string, n int, reqs []*serveRequest, m *passMeter) []*serveClient {
	clients := make([]*serveClient, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range clients {
		clients[c] = newServeClient(url)
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				c.send(ctx, m, i, reqs[i])
			}
		}(clients[c])
	}
	wg.Wait()
	return clients
}

// runServeMix drives a replica with as many closed-loop clients as workers,
// over loopback HTTP through the repo's own client. Every pass replays the
// same stream against a replica started for it, so every pass begins with
// an empty synthesis cache and meets the same hits, misses and evictions.
func runServeMix(ctx context.Context, rc runConfig) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	var reqs []*serveRequest
	err := repeatSetup(out, rc.sz.SetupRepeats, func(int) error {
		reqs = wireRequests(workload.GenerateServe(workload.ServeConfig{
			N:              rc.sz.ServeRequests,
			Templates:      rc.sz.ServeTemplates,
			Seed:           rc.seed,
			ZipfS:          1.01,
			RecurrenceRate: 0.98,
			Tenants:        4,
		}))
		rep, err := startReplica(rc.sz.ServeCapacity)
		if err != nil {
			return err
		}
		rep.close()
		return nil
	})
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(reqs))
	for i, r := range reqs {
		texts[i] = r.tenant + " " + r.wire.Predicate + " " + strings.Join(r.wire.Cols, ",")
	}
	out.inputs = inputFingerprint(texts...)

	// A long-lived server has a warm solver memo. One discarded request
	// per distinct query through a throw-away replica pays for that before
	// the clock starts, so the first pass is like the later ones.
	prereqStart := time.Now()
	var distinct []*serveRequest
	sourceOf := map[int]predicate.Predicate{}
	for _, r := range reqs {
		if _, ok := sourceOf[r.key]; !ok {
			sourceOf[r.key] = r.source
			distinct = append(distinct, r)
		}
	}
	warm, err := startReplica(len(distinct))
	if err != nil {
		return nil, err
	}
	warmers := closedLoop(ctx, warm.ts.URL, rc.workers, distinct, nil)
	warm.close()
	for _, c := range warmers {
		if len(c.failed) > 0 {
			return nil, fmt.Errorf("bench: warm-up %s", c.failed[0])
		}
	}
	prereq := time.Since(prereqStart).Seconds()

	served := map[answer]bool{}
	out.passes, err = runPasses(rc, func(traced bool) (*passResult, error) {
		rep, err := startReplica(rc.sz.ServeCapacity)
		if err != nil {
			return nil, err
		}
		defer rep.close()
		m, err := beginPass(len(reqs), traced)
		if err != nil {
			return nil, err
		}
		clients := closedLoop(ctx, rep.ts.URL, rc.workers, reqs, m)
		p, err := m.end()
		if err != nil {
			return nil, err
		}
		out.attempted += len(reqs)
		var hitMS, missMS []float64
		good := map[int]bool{}
		for _, c := range clients {
			out.failed += len(c.failed)
			out.findings = append(out.findings, c.failed...)
			hitMS = append(hitMS, c.hitMS...)
			missMS = append(missMS, c.missMS...)
			for a := range c.answers {
				served[a] = true
				if a.valid && a.predicate != "" {
					good[a.key] = true
				}
			}
		}
		out.useful = ratio(float64(len(good)), float64(len(distinct)))
		if traced {
			cs := rep.srv.Synth().Stats()
			stats, err := serveclient.New(rep.ts.URL).Stats(ctx)
			if err != nil {
				return nil, fmt.Errorf("bench: server stats: %w", err)
			}
			requests := float64(len(reqs))
			p.Layer["cache.hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses+cs.Coalesced))
			p.Layer["cache.coalesced"] = float64(cs.Coalesced)
			p.Layer["cache.evictions"] = float64(cs.Evictions)
			p.Layer["serve.hit_latency_p50_us"] = 1e3 * median(hitMS)
			p.Layer["serve.miss_latency_p50_ms"] = median(missMS)
			p.Layer["serve.hit_ratio"] = ratio(float64(len(hitMS)), float64(len(hitMS)+len(missMS)))
			p.Layer["serve.batched_ratio"] = ratio(float64(stats.Serve.BatchedRequests), requests)
			p.Layer["serve.shed_ratio"] = ratio(float64(stats.Serve.ShedTenant+stats.Serve.ShedCapacity), requests)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}

	// Every distinct predicate the server handed out, in any pass, goes
	// through the implication check against the request it answered.
	schema := workload.ServeSchema()
	var learned []synthesized
	var f findings
	for a := range served {
		res := &core.Result{Valid: a.valid}
		if a.predicate != "" {
			p, err := predicate.Parse(a.predicate, schema)
			if err != nil {
				f.check(false, "served predicate does not parse: %s: %v", a.predicate, err)
				continue
			}
			res.Predicate = p
		}
		learned = append(learned, synthesized{source: sourceOf[a.key], res: res})
	}
	checkImplications(&f, learned, rc.seed, rc.sz)
	out.attempted += f.checks
	out.failed += f.failed()
	out.findings = append(out.findings, f.msgs...)
	if rc.trace {
		out.layer["bench.prereq_s"] = prereq
	}
	return out, nil
}
