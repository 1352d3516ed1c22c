// Package epochlru is the engine's one cache shape: an LRU keyed by string
// whose entries are stamped with a catalog epoch and discarded lazily once
// the epoch moves. The plan cache (compiled plans, package plancache) and
// the partition-OID cache (static selectors' leaf sets, package oidcache)
// are two instantiations of it. Both exist for the same reason: the paper
// keeps plans independent of partition count and resolves partitions at
// run time, so a compiled artefact stays reusable until the catalog
// changes underneath it.
//
// Contract:
//
//   - The epoch is a single atomic counter. Whatever could invalidate an
//     entry bumps it; which changes those are is the owner's decision.
//   - Callers read Epoch before computing a value and pass that reading to
//     Put. A value computed concurrently with a bump is therefore stamped
//     stale and never served, because Put stamps the observed epoch, never
//     the current one.
//   - Get discards a stale entry on sight and counts it as an invalidation
//     plus a miss.
//   - One mutex guards one list and one map. The cache is not sharded: its
//     most contended user, the OID cache, is hit concurrently by every
//     segment instance of every execution and has always run on one mutex,
//     no workload shows shards paying for themselves, and one LRU over the
//     whole capacity never evicts earlier than per-shard LRUs would.
//   - A nil *Cache and a Cache with capacity <= 0 are valid and never hit.
//   - Stored values are shared with every caller that hits them; callers
//     must treat them as immutable.
package epochlru

import (
	"container/list"
	"sync"
	"sync/atomic"

	"partopt/internal/obs"
)

// Metrics are optional registry instruments the cache mirrors its counters
// into. All fields are nil-safe.
type Metrics struct {
	Hits, Misses, Evictions, Invalidations *obs.Counter
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Entries       int
	Capacity      int
	Epoch         uint64
}

// Cache is an epoch-stamped LRU of V values.
type Cache[V any] struct {
	epoch atomic.Uint64
	met   Metrics

	hits, misses, evictions, invalidations atomic.Int64

	mu       sync.Mutex
	capacity int
	ll       list.List // of *item[V]; front = most recently used
	items    map[string]*list.Element
}

type item[V any] struct {
	key   string
	val   V
	epoch uint64
}

// New creates a cache holding up to capacity entries. capacity <= 0
// disables caching: every Get misses and Put drops.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{capacity: capacity, items: map[string]*list.Element{}}
}

// SetMetrics mirrors the cache counters into registry instruments. Call it
// before the cache is shared.
func (c *Cache[V]) SetMetrics(m Metrics) {
	if c != nil {
		c.met = m
	}
}

// Epoch returns the current epoch.
func (c *Cache[V]) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Bump advances the epoch, invalidating every cached entry lazily.
func (c *Cache[V]) Bump() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Add(1)
}

// Get returns the value under key if it exists and was stamped with the
// current epoch.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.miss()
		return v, false
	}
	it := el.Value.(*item[V])
	if it.epoch != c.epoch.Load() {
		c.ll.Remove(el)
		delete(c.items, key)
		c.mu.Unlock()
		c.invalidations.Add(1)
		c.met.Invalidations.Inc()
		c.miss()
		return v, false
	}
	c.ll.MoveToFront(el)
	// Read the value under the lock: a concurrent Put of the same key
	// overwrites it.val in place.
	v = it.val
	c.mu.Unlock()
	c.hits.Add(1)
	c.met.Hits.Inc()
	return v, true
}

// Put stores v under key, stamped with the epoch the caller observed
// before computing it. Inserting over a full cache evicts the least
// recently used entry.
func (c *Cache[V]) Put(key string, v V, epoch uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.capacity <= 0 {
		c.mu.Unlock()
		return
	}
	if el, ok := c.items[key]; ok {
		it := el.Value.(*item[V])
		it.val, it.epoch = v, epoch
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.items[key] = c.ll.PushFront(&item[V]{key: key, val: v, epoch: epoch})
	var evicted int64
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*item[V]).key)
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.met.Evictions.Add(evicted)
	}
}

// Purge drops every entry without touching the epoch or counters.
func (c *Cache[V]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.purgeLocked()
	c.mu.Unlock()
}

// SetCapacity resizes the cache in place, purging its entries so the new
// bound holds exactly from here on. n <= 0 disables caching. The epoch and
// counters carry over.
func (c *Cache[V]) SetCapacity(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.capacity = n
	c.purgeLocked()
	c.mu.Unlock()
}

func (c *Cache[V]) purgeLocked() {
	c.ll.Init()
	clear(c.items)
}

// Len counts the cached entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Capacity returns the configured entry limit (<= 0 when disabled).
func (c *Cache[V]) Capacity() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Snapshot returns the cache's counters.
func (c *Cache[V]) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, capacity := c.ll.Len(), c.capacity
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       entries,
		Capacity:      capacity,
		Epoch:         c.epoch.Load(),
	}
}

func (c *Cache[V]) miss() {
	c.misses.Add(1)
	c.met.Misses.Inc()
}
