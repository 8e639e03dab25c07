package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/obs"
	"sia/internal/predicate"
)

// parsedRequest is a synthesis request after validation: the predicate is
// parsed, the schema built, the options normalized, the deadline clamped
// and the canonical cache key computed. Everything past the HTTP layer
// works on this form.
type parsedRequest struct {
	pred    predicate.Predicate
	cols    []string
	schema  *predicate.Schema
	opts    core.Options
	key     string        // canonical cache key (cache.KeyFor)
	timeout time.Duration // in (0, Config.MaxTimeout]
}

// batchOutcome is what a waiter receives.
type batchOutcome struct {
	res     *core.Result
	cached  bool // served without running a CEGIS loop for this request
	batched bool // served by a grouped (multi-predicate) run
	err     error
}

// batcher groups near-identical synthesis requests per tick so one CEGIS
// run serves the group — the step beyond the cache's singleflight, which
// only merges byte-identical keys that overlap in time.
//
// Requests are grouped by target-column subset (names, types, nullability)
// and options fingerprint. Within a tick window, a group fires as:
//
//   - one distinct predicate: a single cached run whose result every
//     member shares (tick-window coalescing);
//   - several distinct predicates: one run for the disjunction P1 OR …
//     OR Pn. A valid reduction R of the disjunction is a valid reduction
//     of every disjunct (Pi ⟹ ∨Pj ⟹ R over the target columns), so R
//     answers every member — possibly weaker than a dedicated run's
//     result, never wrong. Grouped results are stored under each member's
//     cache key with Optimal cleared, so recurring queries hit them.
//
// A zero tick disables grouping: requests go straight to the cache.
type batcher struct {
	tick  time.Duration
	synth *cache.Synthesizer
	// budget bounds a group run when no member carries a deadline.
	budget time.Duration

	mu     sync.Mutex
	groups map[string]*batchGroup

	// Metrics (nil-safe: a zero batcher with no registry skips them).
	batches   *obs.Counter // group firings
	batchReqs *obs.Counter // requests answered by a grouped run
	groupRuns *obs.Counter // firings that ran a disjunction
	sizes     *obs.Histogram
}

type batchGroup struct {
	members []*batchMember
}

type batchMember struct {
	req      parsedRequest
	deadline time.Time // zero when the waiter has no deadline
	ch       chan batchOutcome
}

func newBatcher(tick time.Duration, synth *cache.Synthesizer, budget time.Duration) *batcher {
	return &batcher{
		tick:   tick,
		synth:  synth,
		budget: budget,
		groups: map[string]*batchGroup{},
	}
}

// do answers one parsed request through the batch path: an immediate cache
// hit bypasses the tick; otherwise the request joins its group and waits
// for the group's run (or its own deadline, whichever comes first).
func (b *batcher) do(ctx context.Context, pr parsedRequest) batchOutcome {
	if res, ok := b.synth.Peek(pr.key); ok {
		return batchOutcome{res: res, cached: true}
	}
	if b.tick <= 0 {
		res, cached, err := b.synth.Synthesize(ctx, pr.pred, pr.cols, pr.schema, pr.opts)
		return batchOutcome{res: res, cached: cached, err: err}
	}

	m := &batchMember{req: pr, ch: make(chan batchOutcome, 1)}
	if dl, ok := ctx.Deadline(); ok {
		m.deadline = dl
	}
	gk := groupKeyFor(pr)
	b.mu.Lock()
	g := b.groups[gk]
	if g == nil {
		g = &batchGroup{}
		b.groups[gk] = g
		time.AfterFunc(b.tick, func() { b.fire(gk) })
	}
	g.members = append(g.members, m)
	b.mu.Unlock()

	select {
	case out := <-m.ch:
		if cerr := ctx.Err(); cerr != nil {
			// The result landed in the same instant the deadline passed;
			// deadline expiry wins, matching the cache's semantics.
			return batchOutcome{err: fmt.Errorf("%w: %w", core.ErrTimeout, cerr)}
		}
		return out
	case <-ctx.Done():
		return batchOutcome{err: fmt.Errorf("%w: %w", core.ErrTimeout, ctx.Err())}
	}
}

// fire runs one group: it claims the group's members, partitions them into
// compatible runs, executes, and broadcasts. Runs execute on the firing
// timer's goroutine — one group, one run at a time — with a context
// detached from any single waiter (the run belongs to the whole group).
func (b *batcher) fire(gk string) {
	b.mu.Lock()
	g := b.groups[gk]
	delete(b.groups, gk)
	b.mu.Unlock()
	if g == nil || len(g.members) == 0 {
		return
	}
	inc(b.batches)
	if b.sizes != nil {
		b.sizes.Observe(float64(len(g.members)))
	}

	// Dedup by cache key, preserving arrival order.
	order := []string{}
	byKey := map[string][]*batchMember{}
	for _, m := range g.members {
		if byKey[m.req.key] == nil {
			order = append(order, m.req.key)
		}
		byKey[m.req.key] = append(byKey[m.req.key], m)
	}

	ctx, cancel := b.groupContext(g.members)
	defer cancel()

	if len(order) == 1 {
		// One distinct predicate: a single run, every member shares it.
		ms := byKey[order[0]]
		pr := ms[0].req
		res, cached, err := b.synth.Synthesize(ctx, pr.pred, pr.cols, pr.schema, pr.opts)
		for i, m := range ms {
			m.ch <- batchOutcome{res: res, cached: cached || i > 0, err: err}
		}
		if len(ms) > 1 {
			add(b.batchReqs, uint64(len(ms)-1))
		}
		return
	}

	// Several distinct predicates: one disjunction run per compatible
	// sub-group; members whose schema conflicts with the union fall back
	// to solo runs.
	keys, schema := compatibleUnion(order, byKey)
	if len(keys) >= 2 {
		inc(b.groupRuns)
		add(b.batchReqs, b.runDisjunction(ctx, keys, byKey, schema))
	} else {
		// Fewer than two compatible keys means no disjunction ran; clear
		// keys so the solo fallback below answers every member — a single
		// "compatible" member would otherwise be claimed by neither path
		// and starve until its deadline.
		keys = nil
	}
	for _, k := range order {
		if !contains(keys, k) {
			ms := byKey[k]
			pr := ms[0].req
			res, cached, err := b.synth.Synthesize(ctx, pr.pred, pr.cols, pr.schema, pr.opts)
			for i, m := range ms {
				m.ch <- batchOutcome{res: res, cached: cached || i > 0, err: err}
			}
		}
	}
}

// runDisjunction executes one grouped CEGIS run over the disjunction of
// the distinct predicates in keys and broadcasts the shared result,
// storing it under each member key with Optimal cleared. Returns the
// number of requests answered.
func (b *batcher) runDisjunction(ctx context.Context, keys []string, byKey map[string][]*batchMember, schema *predicate.Schema) uint64 {
	preds := make([]predicate.Predicate, 0, len(keys))
	for _, k := range keys {
		preds = append(preds, byKey[k][0].req.pred)
	}
	first := byKey[keys[0]][0].req
	orPred := predicate.NewOr(preds...)
	res, _, err := b.synth.Synthesize(ctx, orPred, first.cols, schema, first.opts)

	var n uint64
	for _, k := range keys {
		ms := byKey[k]
		out := batchOutcome{err: err, batched: true}
		if err == nil {
			// Members share the group result, never marked optimal: the
			// dedicated run could be stronger. Stored under the member's
			// own key so the recurring form of this request hits.
			shared := *res
			shared.Optimal = false
			out.res = &shared
			b.synth.Put(k, &shared)
		}
		for _, m := range ms {
			m.ch <- out
			n++
		}
	}
	return n
}

// groupContext builds the detached context a group run executes under: its
// deadline is the latest member deadline (every member with budget left
// deserves the run to keep going), or now+budget when no member has one.
func (b *batcher) groupContext(members []*batchMember) (context.Context, context.CancelFunc) {
	var latest time.Time
	all := true
	for _, m := range members {
		if m.deadline.IsZero() {
			all = false
			break
		}
		if m.deadline.After(latest) {
			latest = m.deadline
		}
	}
	if all && !latest.IsZero() {
		return context.WithDeadline(context.Background(), latest)
	}
	if b.budget > 0 {
		return context.WithTimeout(context.Background(), b.budget)
	}
	return context.WithCancel(context.Background())
}

// compatibleUnion merges the visible schemas of the distinct requests in
// order, returning the keys whose columns agree on type and nullability
// plus the merged schema. The first conflicting request (and later ones
// conflicting with the accumulated union) are excluded and run solo.
func compatibleUnion(order []string, byKey map[string][]*batchMember) ([]string, *predicate.Schema) {
	merged := map[string]predicate.Column{}
	var names []string
	var keys []string
	for _, k := range order {
		pr := byKey[k][0].req
		visible := append(predicate.Columns(pr.pred), pr.cols...)
		ok := true
		pending := map[string]predicate.Column{}
		for _, name := range visible {
			col, found := pr.schema.Lookup(name)
			if !found {
				ok = false
				break
			}
			if prev, seen := merged[name]; seen {
				if prev != col {
					ok = false
					break
				}
				continue
			}
			if prev, seen := pending[name]; seen && prev != col {
				ok = false
				break
			}
			pending[name] = col
		}
		if !ok {
			continue
		}
		for name, col := range pending {
			if _, seen := merged[name]; !seen {
				merged[name] = col
				names = append(names, name)
			}
		}
		keys = append(keys, k)
	}
	sort.Strings(names)
	cols := make([]predicate.Column, len(names))
	for i, n := range names {
		cols[i] = merged[n]
	}
	return keys, predicate.NewSchema(cols...)
}

// groupKeyFor computes the batching group key: the target-column subset
// with types and nullability, plus the options fingerprint. Predicate text
// is deliberately excluded — that is what varies within a group.
func groupKeyFor(pr parsedRequest) string {
	cols := append([]string(nil), pr.cols...)
	sort.Strings(cols)
	var sb strings.Builder
	for _, c := range cols {
		col, _ := pr.schema.Lookup(c)
		fmt.Fprintf(&sb, "%s/%s/%t;", c, col.Type, col.NotNull)
	}
	sb.WriteByte('|')
	sb.WriteString(pr.opts.Fingerprint())
	return sb.String()
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// inc and add are nil-safe counter helpers: a batcher wired without
// metrics (tests) skips emission.
func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func add(c *obs.Counter, n uint64) {
	if c != nil {
		c.Add(n)
	}
}
