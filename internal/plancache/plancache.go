// Package plancache is the engine's compiled-plan cache: a sharded LRU
// keyed on normalized query fingerprints, with a catalog epoch for
// invalidation. It exists because the paper's partition-selection machinery
// makes compiled plans reusable across parameter values — the selector
// re-derives its partition set from the execution's parameters at Open —
// so the optimizer, the hot path of short queries under serving traffic,
// can be skipped entirely on a hit.
//
// Concurrency model:
//
//   - Shards carry independent mutexes; a Get/Put touches exactly one.
//   - The epoch is a single atomic counter. Every catalog or settings
//     change that could invalidate a compiled plan bumps it; entries
//     remember the epoch they were compiled under and are discarded
//     lazily, at lookup, when the epochs disagree.
//   - A racing writer that compiled under epoch N and publishes after a
//     DDL bumped to N+1 stores a stale-stamped entry; the next Get
//     discards it. No stale plan is ever returned across a bump, because
//     callers read the epoch before compiling and Put stamps that epoch,
//     never the current one.
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"partopt/internal/legacy"
	"partopt/internal/obs"
	"partopt/internal/plan"
)

// Entry is one compiled SELECT: everything the executor needs that would
// otherwise be recomputed by bind + optimize.
type Entry struct {
	// Plan is the physical plan (the legacy planner's main plan).
	Plan plan.Node
	// Legacy carries the legacy planner's prep steps; nil under Orca.
	Legacy *legacy.Planned
	// Columns are the result column names.
	Columns []string
	// NumParams is the bound statement's parameter count, lifted literals
	// included.
	NumParams int
	// PlanSize is the serialized size of Plan alone (Rows.PlanSize).
	PlanSize int
	// TotalSize adds the legacy prep plans (Engine.PlanSize).
	TotalSize int
	// OptGroups and OptNanos describe the memo search that produced Plan
	// (EXPLAIN ANALYZE's "optimization:" header). OptGroups is 0 for
	// legacy-planned entries; cache hits replay the figures of the
	// compilation that created the entry.
	OptGroups int
	OptNanos  int64

	epoch uint64
}

// Metrics are optional engine-registry instruments the cache mirrors its
// counters into. All fields are nil-safe.
type Metrics struct {
	Hits, Misses, Evictions, Invalidations *obs.Counter
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	Hits, Misses, Evictions, Invalidations int64
	Entries                                int
	Epoch                                  uint64
}

// Cache is a sharded LRU of compiled plans. A nil *Cache and a Cache with
// capacity <= 0 are both valid and never hit.
type Cache struct {
	capacity int
	epoch    atomic.Uint64
	met      Metrics

	hits, misses, evictions, invalidations atomic.Int64

	shards []shard
}

type shard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruItem struct {
	key string
	ent *Entry
}

const defaultShards = 8

// New creates a cache holding up to capacity entries. capacity <= 0
// disables caching: every Get misses and Put drops. Small caches collapse
// to one shard so eviction order is the plain LRU order.
func New(capacity int) *Cache {
	c := &Cache{capacity: capacity}
	n := defaultShards
	if capacity < defaultShards {
		n = 1
	}
	c.shards = make([]shard, n)
	for i := range c.shards {
		c.shards[i] = shard{
			cap:   (capacity + n - 1) / n,
			ll:    list.New(),
			items: map[string]*list.Element{},
		}
	}
	return c
}

// SetMetrics mirrors the cache counters into registry instruments.
func (c *Cache) SetMetrics(m Metrics) {
	if c != nil {
		c.met = m
	}
}

// Capacity returns the configured entry limit (<= 0 when disabled).
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Epoch returns the current catalog epoch. Callers read it before
// compiling and pass it to Put, so plans compiled concurrently with an
// invalidating change are stamped stale.
func (c *Cache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Bump advances the epoch, invalidating every cached entry lazily.
func (c *Cache) Bump() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Add(1)
}

// Get returns the entry under key if it exists and was compiled under the
// current epoch. A stale entry is removed and counted as an invalidation
// (plus the miss).
func (c *Cache) Get(key string) (*Entry, bool) {
	if c == nil || c.capacity <= 0 {
		c.miss()
		return nil, false
	}
	s := &c.shards[c.shardOf(key)]
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.miss()
		return nil, false
	}
	it := el.Value.(*lruItem)
	if it.ent.epoch != c.epoch.Load() {
		s.ll.Remove(el)
		delete(s.items, key)
		s.mu.Unlock()
		c.invalidations.Add(1)
		c.met.Invalidations.Inc()
		c.miss()
		return nil, false
	}
	s.ll.MoveToFront(el)
	// Read the entry pointer before unlocking: a concurrent Put over the
	// same key overwrites it.ent under the shard lock, and an unlocked read
	// after release would race with that write.
	ent := it.ent
	s.mu.Unlock()
	c.hits.Add(1)
	c.met.Hits.Inc()
	return ent, true
}

// Put stores ent under key, stamped with the epoch the caller observed
// before compiling. Inserting over a full shard evicts its least recently
// used entry.
func (c *Cache) Put(key string, ent *Entry, epoch uint64) {
	if c == nil || c.capacity <= 0 || ent == nil {
		return
	}
	ent.epoch = epoch
	s := &c.shards[c.shardOf(key)]
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*lruItem).ent = ent
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.ll.PushFront(&lruItem{key: key, ent: ent})
	var evicted int
	for s.ll.Len() > s.cap && s.cap > 0 {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*lruItem).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		c.met.Evictions.Add(int64(evicted))
	}
}

// Purge drops every entry without touching the epoch or counters.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		s.items = map[string]*list.Element{}
		s.mu.Unlock()
	}
}

// Len counts the cached entries across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns the cache's counters.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
		Epoch:         c.epoch.Load(),
	}
}

func (c *Cache) miss() {
	if c == nil {
		return
	}
	c.misses.Add(1)
	c.met.Misses.Inc()
}

// shardOf hashes a key to its shard (FNV-1a).
func (c *Cache) shardOf(key string) int {
	if len(c.shards) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(c.shards)))
}
