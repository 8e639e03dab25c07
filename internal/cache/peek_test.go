package cache

import (
	"context"
	"testing"

	"sia/internal/core"
)

// TestPeekSemantics: Peek serves stored entries counting a hit, refuses
// absent keys without counting a miss (Misses keeps meaning "CEGIS loops
// started"), and refreshes the entry's LRU position.
func TestPeekSemantics(t *testing.T) {
	c := NewSynthesizer(2)
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek invented an entry")
	}
	if s := c.Stats(); s.Misses != 0 || s.Hits != 0 {
		t.Fatalf("negative Peek moved counters: %+v", s)
	}

	c.Put("a", result(1))
	res, ok := c.Peek("a")
	if !ok || res.Iterations != 1 {
		t.Fatalf("Peek(a) = %v, %v", res, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("positive Peek counters: %+v", s)
	}

	// Peek refreshes recency: after peeking "a", inserting past capacity
	// evicts "b", not "a".
	c.Put("b", result(2))
	c.Peek("a")
	c.Put("c", result(3))
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("peeked entry was evicted before an unpeeked one")
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("LRU tail survived eviction")
	}
}

// TestPutSemantics: Put stores without counting a miss, overwrites in
// place, and evicts past capacity.
func TestPutSemantics(t *testing.T) {
	c := NewSynthesizer(2)
	c.Put("k", result(1))
	c.Put("k", result(2))
	if res, ok := c.Peek("k"); !ok || res.Iterations != 2 {
		t.Fatalf("overwrite: %v, %v", res, ok)
	}
	if s := c.Stats(); s.Misses != 0 || s.Entries != 1 {
		t.Fatalf("stats after Put: %+v", s)
	}

	c.Put("l", result(3))
	c.Put("m", result(4))
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats after eviction: %+v", s)
	}

	// A Put entry serves do as a plain hit.
	res, cached, err := c.do(context.Background(), "m", func(context.Context) (*core.Result, error) {
		t.Fatal("do recomputed a Put entry")
		return nil, nil
	})
	if err != nil || !cached || res.Iterations != 4 {
		t.Fatalf("do over Put: res=%v cached=%v err=%v", res, cached, err)
	}
}

// TestExportMRUOrder: Export walks most recently used first and returns a
// snapshot unaffected by later mutations.
func TestExportMRUOrder(t *testing.T) {
	c := NewSynthesizer(8)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, result(i))
	}
	c.Peek("a") // "a" becomes MRU

	exp := c.Export()
	if len(exp) != 3 {
		t.Fatalf("exported %d entries", len(exp))
	}
	want := []string{"a", "c", "b"}
	for i, e := range exp {
		if e.Key != want[i] {
			t.Fatalf("export order %v, want %v", keysOf(exp), want)
		}
	}

	c.Put("d", result(9))
	if len(exp) != 3 {
		t.Fatal("export snapshot grew with the cache")
	}
}

func keysOf(es []Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Key
	}
	return out
}
