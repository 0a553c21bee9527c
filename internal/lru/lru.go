// Package lru provides the one string-keyed LRU bookkeeping structure the
// repository's caches share (api.ResponseCache and the RAM tier of
// openbox's region store). It is deliberately not goroutine-safe:
// every consumer already holds its own mutex around cache operations and
// keeps its own hit/miss/eviction counters, which differ per cache.
package lru

import "container/list"

// Cache is a least-recently-used map from string keys to values. A
// capacity <= 0 means unbounded. The zero value is not usable; call New.
type Cache[V any] struct {
	cap     int
	entries map[string]*list.Element
	ll      *list.List // front = most recently used
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache holding at most capacity entries
// (capacity <= 0 means unbounded).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		ll:      list.New(),
	}
}

// Get returns the value under key, promoting it to most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Add inserts v under key and reports what happened. When the key is
// already present the incumbent is kept and promoted — concurrent fillers
// that raced to compute the same value then all share one result — and
// returned as kept. On a fresh insert that overflows the capacity the
// least-recently-used entry is dropped and evicted is true.
func (c *Cache[V]) Add(key string, v V) (kept V, inserted, evicted bool) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, false, false
	}
	c.entries[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	if c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
		return v, true, true
	}
	return v, true, false
}

// AddWithEvicted behaves exactly like Add but also returns the displaced
// value when an eviction happened, so byte-accounting callers can subtract
// the evicted entry's footprint without a second lookup.
func (c *Cache[V]) AddWithEvicted(key string, v V) (kept V, inserted, evicted bool, displaced V) {
	var zero V
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, false, false, zero
	}
	c.entries[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	if c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		old := oldest.Value.(*entry[V])
		delete(c.entries, old.key)
		return v, true, true, old.val
	}
	return v, true, false, zero
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return c.ll.Len() }
