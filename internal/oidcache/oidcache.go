// Package oidcache caches partition-selection results: the leaf OID sets a
// fully static PartitionSelector computes at Open by intersecting its
// derived per-level interval sets with the table's partition constraints
// (desc.Select — the paper's f*T traversal). Under serving traffic the same
// plan re-opens with the same bound parameter values over and over, and
// every segment process of every execution repeats an identical traversal;
// the cache collapses those to one traversal per distinct (table, derived
// intervals) pair.
//
// Keying contract:
//
//   - Entries are keyed by the table's OID plus a canonical rendering of
//     the DERIVED per-level interval sets — not the predicate text. Two
//     predicates that derive the same intervals (k = 5 vs k BETWEEN 5 AND
//     5) share an entry; the same parameterized predicate bound to
//     different values does not. Interval sets are stored unnormalized by
//     the deriver, so order-different renderings of one logical set miss
//     instead of colliding — a performance, never a correctness, matter.
//   - Entries remember the catalog epoch they were computed under and are
//     dropped lazily when the epochs disagree. Any change that could alter
//     a table's partition layout (DDL) must Bump the epoch; data writes
//     need not, since desc.Select is a pure function of the partition
//     descriptor and the intervals.
//   - Join-driven ("hub") selectors never consult the cache: their
//     selections derive from streamed build rows, not static intervals,
//     and their static residue is the whole domain — caching it would fill
//     the cache with full-expansion entries of the star schema's largest
//     tables.
package oidcache

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"partopt/internal/obs"
	"partopt/internal/part"
	"partopt/internal/types"
)

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

// Cache is an LRU of computed OID sets. A nil *Cache and a Cache with
// capacity <= 0 are both valid and never hit.
type Cache struct {
	capacity int
	epoch    atomic.Uint64
	met      Metrics

	hits, misses, evictions, invalidations atomic.Int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruItem struct {
	key   string
	oids  []part.OID
	epoch uint64
}

// New creates a cache holding up to capacity entries. capacity <= 0
// disables caching: every Get misses and Put drops.
func New(capacity int) *Cache {
	return &Cache{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// SetCapacity resizes the cache, purging its entries so the new bound
// holds exactly from here on. n <= 0 disables caching.
func (c *Cache) SetCapacity(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.capacity = n
	c.ll.Init()
	c.items = map[string]*list.Element{}
	c.mu.Unlock()
}

// Epoch returns the current catalog epoch. Callers read it before computing
// a selection and pass it to Put, so sets computed concurrently with a DDL
// change are stamped stale.
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

// Get returns the OID set under key if it exists and was computed under the
// current epoch. The returned slice is shared — callers must not modify it.
// A stale entry is removed and counted as an invalidation (plus the miss).
func (c *Cache) Get(key string) ([]part.OID, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if c.capacity <= 0 {
		c.mu.Unlock()
		c.miss()
		return nil, false
	}
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.miss()
		return nil, false
	}
	it := el.Value.(*lruItem)
	if it.epoch != c.epoch.Load() {
		c.ll.Remove(el)
		delete(c.items, key)
		c.mu.Unlock()
		c.invalidations.Add(1)
		c.met.Invalidations.Inc()
		c.miss()
		return nil, false
	}
	c.ll.MoveToFront(el)
	// Read the slice header under the lock: a concurrent Put of the same
	// key overwrites it.oids in place.
	oids := it.oids
	c.mu.Unlock()
	c.hits.Add(1)
	c.met.Hits.Inc()
	return oids, true
}

// Put stores an OID set, stamped with the epoch the caller observed before
// computing it. The cache keeps its own copy of the slice. Inserting over a
// full cache evicts the least recently used entry.
func (c *Cache) Put(key string, oids []part.OID, epoch uint64) {
	if c == nil {
		return
	}
	cp := make([]part.OID, len(oids))
	copy(cp, oids)
	c.mu.Lock()
	if c.capacity <= 0 {
		c.mu.Unlock()
		return
	}
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem)
		it.oids, it.epoch = cp, epoch
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, oids: cp, epoch: epoch})
	var evicted int
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
		evicted++
	}
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		c.met.Evictions.Add(int64(evicted))
	}
}

// Len counts the cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge drops every entry without touching the epoch or counters.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ll.Init()
	c.items = map[string]*list.Element{}
	c.mu.Unlock()
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

// Key renders a cache key from a table identity and its selector's derived
// per-level interval sets. The rendering is canonical over interval
// structure: bounds carry their datum kind so 5 (int) and '5' (string)
// cannot collide.
func Key(table part.OID, sets []types.IntervalSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", table)
	for _, s := range sets {
		b.WriteByte('|')
		for i, iv := range s.Ivs {
			if i > 0 {
				b.WriteByte(';')
			}
			writeBound(&b, iv.LoUnb, iv.LoIncl, iv.Lo)
			b.WriteByte(',')
			writeBound(&b, iv.HiUnb, iv.HiIncl, iv.Hi)
		}
	}
	return b.String()
}

func writeBound(b *strings.Builder, unb, incl bool, v types.Datum) {
	if unb {
		b.WriteByte('*')
		return
	}
	if incl {
		b.WriteByte('[')
	} else {
		b.WriteByte('(')
	}
	fmt.Fprintf(b, "%d:%s", v.Kind(), v.String())
}

// Constrained reports whether any level's set narrows the domain — a set is
// unconstrained when it is the single unbounded interval WholeDomain()
// produces. Callers skip the cache for fully unconstrained selectors: the
// entry would be the table's whole expansion, repeated per table.
func Constrained(sets []types.IntervalSet) bool {
	for _, s := range sets {
		if len(s.Ivs) != 1 {
			return true
		}
		if !s.Ivs[0].LoUnb || !s.Ivs[0].HiUnb {
			return true
		}
	}
	return false
}
