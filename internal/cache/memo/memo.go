// Package memo provides a small, bounded, concurrency-safe memoization
// cache with LRU eviction. It is the store under both internal/cache's
// synthesis results and the SMT quantifier-elimination memo: a hard
// footprint bound and deterministic eviction, nothing more. It never
// computes values itself: the caller decides what is safe to store, which
// matters when a computation can be aborted mid-way (a cancelled
// elimination must not poison the table).
package memo

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map from K to V. The zero value is not usable;
// call New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache bounded to capacity entries. capacity must be
// positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("memo: capacity must be positive")
	}
	return &Cache[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the value stored under k and reports whether it was present,
// marking the entry as most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add stores v under k, making it the most recently used entry, and
// reports whether an older entry was evicted to make room. Adding an
// existing key overwrites its value without eviction.
func (c *Cache[K, V]) Add(k K, v V) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).val = v
		return false
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		evicted = true
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
	return evicted
}

// Len returns the number of entries currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Each calls fn on every entry, most recently used first, without changing
// recency. It walks a copy taken under the lock, so fn sees one consistent
// snapshot and may itself use the cache.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	c.mu.Lock()
	snap := make([]entry[K, V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		snap = append(snap, *el.Value.(*entry[K, V]))
	}
	c.mu.Unlock()
	for _, e := range snap {
		fn(e.key, e.val)
	}
}

// Purge empties the cache.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}
