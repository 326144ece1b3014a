// Package cache provides a small, typed LRU cache with optional TTL
// expiry and optional per-entry weights — the building block behind the
// store's plan cache and result cache. It is generic, so cached values are never boxed through `any`,
// and hand-rolls its doubly-linked recency list instead of using
// container/list (whose Element.Value is an interface and would allocate
// per node on every insert).
package cache

import (
	"sync"
	"time"
)

// entry is one cache slot, threaded on the recency list (head = most
// recently used).
type entry[K comparable, V any] struct {
	key        K
	val        V
	expires    time.Time // zero when the cache has no TTL
	weight     int
	prev, next *entry[K, V]
}

// LRU is a fixed-capacity least-recently-used cache with optional TTL.
// Capacity bounds the total weight of the cached entries; every entry
// weighs 1 unless a weigher is installed (SetWeigher). All methods are safe
// for concurrent use.
type LRU[K comparable, V any] struct {
	mu         sync.Mutex
	capacity   int
	weight     int // total weight of the cached entries
	weigh      func(K, V) int
	ttl        time.Duration
	now        func() time.Time
	items      map[K]*entry[K, V]
	head, tail *entry[K, V]
	onEvict    func(K, V)
}

// New builds an LRU holding at most capacity entries, or at most capacity
// total weight under a weigher (capacity < 1 is treated as 1). ttl == 0 disables expiry.
func New[K comparable, V any](capacity int, ttl time.Duration) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		ttl:      ttl,
		now:      time.Now,
		items:    make(map[K]*entry[K, V], capacity),
	}
}

// SetClock injects the time source (tests).
func (c *LRU[K, V]) SetClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// SetOnEvict installs a callback invoked (outside any promotion, but under
// the cache lock) whenever an entry leaves the cache by capacity eviction
// or TTL expiry — not by Remove or Purge.
func (c *LRU[K, V]) SetOnEvict(fn func(K, V)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// SetWeigher installs the entry weight function; install it before the
// first Add. Weights below 1 count as 1. An entry heavier than the whole
// capacity is evicted on insert, so the total never exceeds capacity.
func (c *LRU[K, V]) SetWeigher(fn func(K, V) int) {
	c.mu.Lock()
	c.weigh = fn
	c.mu.Unlock()
}

// Get returns the live value for key and marks it most recently used.
// Expired entries are evicted and report a miss.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	if c.expired(e) {
		c.evict(e)
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Add inserts or replaces key's value, marks it most recently used, and
// evicts least recently used entries while over capacity.
func (c *LRU[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	w := 1
	if c.weigh != nil {
		w = max(c.weigh(key, val), 1)
	}
	e, ok := c.items[key]
	if ok {
		c.weight -= e.weight
		e.val, e.expires, e.weight = val, expires, w
		c.moveToFront(e)
	} else {
		e = &entry[K, V]{key: key, val: val, expires: expires, weight: w}
		c.items[key] = e
		c.pushFront(e)
	}
	c.weight += w
	for c.weight > c.capacity {
		c.evict(c.tail)
	}
}

// Remove deletes key if present (no eviction callback).
func (c *LRU[K, V]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.unlink(e)
		delete(c.items, key)
		c.weight -= e.weight
	}
}

// Purge empties the cache (no eviction callbacks).
func (c *LRU[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.items)
	c.head, c.tail = nil, nil
	c.weight = 0
}

// Len returns the current number of entries, including any not yet
// observed to be expired.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Weight returns the total weight of the current entries (their number
// when no weigher is installed).
func (c *LRU[K, V]) Weight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weight
}

func (c *LRU[K, V]) expired(e *entry[K, V]) bool {
	return !e.expires.IsZero() && c.now().After(e.expires)
}

func (c *LRU[K, V]) evict(e *entry[K, V]) {
	c.unlink(e)
	delete(c.items, e.key)
	c.weight -= e.weight
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
}

func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *LRU[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *LRU[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
