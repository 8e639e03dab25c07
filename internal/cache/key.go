// Package cache is a synthesis-result cache with request coalescing: it
// memoizes core.SynthesizeContext results keyed by a canonical form of
// (predicate, cols, schema, options), bounds its memory with an LRU, and
// deduplicates concurrent identical requests so N callers share one CEGIS
// loop (singleflight). The paper notes synthesis results are reusable
// across recurring queries (§6.2); this package is what makes that reuse
// cheap in a serving context (cmd/siad) and in repeated experiment runs.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"sia/internal/core"
	"sia/internal/predicate"
)

// KeyFor returns the canonical cache key for a synthesis request, or
// ok=false when the request is uncacheable: a Tracer (whose side effects
// must run on every call) bypasses the cache.
//
// The key is syntactic, not semantic: two predicates that are logically
// equivalent but print differently (e.g. "a < 1 AND b < 2" vs
// "b < 2 AND a < 1") occupy separate entries. Deciding semantic equality
// would itself need the solver — the cost the cache exists to avoid — and
// recurring queries arrive syntactically identical anyway. Target columns
// are order-insensitive (synthesis sorts them internally), so they are
// sorted before hashing. Of the schema, only the columns the request can
// observe — those of the predicate and the target set — contribute, making
// keys stable when unrelated columns are added to a catalog. Options
// contribute via their Fingerprint (defaults applied, Tracer
// excluded).
//
// Same arguments, same result: KeyFor reads nothing but its arguments, so
// equal requests always share a key (TestKeyFor,
// TestCacheHitIdenticalToColdRun).
func KeyFor(p predicate.Predicate, cols []string, schema *predicate.Schema, opts core.Options) (key string, ok bool) {
	if opts.Tracer != nil {
		return "", false
	}
	sortedCols := append([]string(nil), cols...)
	sort.Strings(sortedCols)

	// Schema restriction: every column mentioned by the predicate or
	// requested as a target, described as name/type/nullability.
	seen := map[string]bool{}
	var visible []string
	note := func(c string) {
		if !seen[c] {
			seen[c] = true
			visible = append(visible, c)
		}
	}
	for _, c := range predicate.Columns(p) {
		note(c)
	}
	for _, c := range cols {
		note(c)
	}
	sort.Strings(visible)
	var schemaDesc strings.Builder
	for _, name := range visible {
		typ, notNull := "?", false
		if schema != nil {
			if col, found := schema.Lookup(name); found {
				typ, notNull = col.Type.String(), col.NotNull
			}
		}
		fmt.Fprintf(&schemaDesc, "%s/%s/%t;", name, typ, notNull)
	}

	h := sha256.New()
	fmt.Fprintf(h, "pred\x00%s\x00cols\x00%s\x00schema\x00%s\x00opts\x00%s",
		p.String(), strings.Join(sortedCols, ","), schemaDesc.String(), opts.Fingerprint())
	return hex.EncodeToString(h.Sum(nil)), true
}
