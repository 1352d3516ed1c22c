package epochlru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutHitMiss(t *testing.T) {
	c := New[int](4)
	if _, ok := c.Get("a"); ok {
		t.Fatalf("hit on empty cache")
	}
	c.Put("a", 7, c.Epoch())
	if v, ok := c.Get("a"); !ok || v != 7 {
		t.Fatalf("Get = %v, %v; want 7, true", v, ok)
	}
	want := Stats{Hits: 1, Misses: 1, Entries: 1, Capacity: 4}
	if st := c.Snapshot(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// A value computed under the old epoch but published after a bump must not
// be served: Put stamps the caller's observed epoch, not the current one.
func TestPutWithStaleEpochNeverHits(t *testing.T) {
	c := New[int](4)
	observed := c.Epoch()
	c.Bump() // DDL lands while the value is computed
	c.Put("a", 1, observed)
	if _, ok := c.Get("a"); ok {
		t.Fatalf("entry stamped with a pre-bump epoch was served")
	}
}

// A bump invalidates lazily: the stale entry is removed at the next Get and
// counted as one invalidation plus a miss; a second Get is a plain miss.
func TestEpochInvalidation(t *testing.T) {
	c := New[int](4)
	c.Put("a", 1, c.Epoch())
	c.Bump()
	for i := 0; i < 2; i++ {
		if _, ok := c.Get("a"); ok {
			t.Fatalf("Get %d: stale entry survived the epoch bump", i)
		}
	}
	want := Stats{Misses: 2, Invalidations: 1, Capacity: 4, Epoch: 1}
	if st := c.Snapshot(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// Touching an entry protects it from eviction.
func TestLRUEviction(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1, 0)
	c.Put("b", 2, 0)
	if _, ok := c.Get("a"); !ok { // a is now most recent
		t.Fatalf("a missing")
	}
	c.Put("c", 3, 0) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatalf("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	if ev := c.Snapshot().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

// Capacity 0 and a nil cache are both valid and never hit.
func TestDisabledAndNilCache(t *testing.T) {
	c := New[int](0)
	c.Put("a", 1, 0)
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Fatalf("disabled cache stored or served an entry")
	}

	var nc *Cache[int]
	nc.Put("a", 1, nc.Epoch())
	if _, ok := nc.Get("a"); ok {
		t.Fatalf("nil cache hit")
	}
	nc.Bump()
	nc.SetCapacity(4)
	nc.SetMetrics(Metrics{})
	nc.Purge()
	if nc.Capacity() != 0 || nc.Len() != 0 || nc.Snapshot() != (Stats{}) {
		t.Fatalf("nil cache reports non-zero state")
	}
}

func TestReplaceExistingKey(t *testing.T) {
	c := New[int](4)
	c.Put("a", 1, 0)
	c.Put("a", 2, 0)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("Get = %v, %v; want the replacement", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// Purge drops entries but keeps the epoch and counters.
func TestPurge(t *testing.T) {
	c := New[int](16)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 0)
	}
	c.Get("k0")
	c.Bump()
	c.Purge()
	want := Stats{Hits: 1, Capacity: 16, Epoch: 1}
	if st := c.Snapshot(); st != want {
		t.Errorf("stats after Purge = %+v, want %+v", st, want)
	}
}

// SetCapacity purges and re-bounds in place; zero disables.
func TestSetCapacity(t *testing.T) {
	c := New[int](4)
	c.Put("k", 1, 0)
	c.SetCapacity(1)
	if c.Len() != 0 || c.Capacity() != 1 {
		t.Fatalf("after SetCapacity(1): Len %d, Capacity %d; want 0, 1", c.Len(), c.Capacity())
	}
	c.Put("a", 1, 0)
	c.Put("b", 2, 0)
	if c.Len() != 1 {
		t.Fatalf("Len = %d exceeds the new capacity 1", c.Len())
	}
	c.SetCapacity(0)
	c.Put("k", 1, 0)
	if _, ok := c.Get("k"); ok {
		t.Fatalf("disabled cache hit")
	}
}

// Hammer Get/Put/Bump from many goroutines; run under -race. Every value is
// the epoch it was stamped with, so a hit must carry an epoch that was
// current at some instant during the Get, and the bound must hold.
func TestConcurrentAccess(t *testing.T) {
	c := New[uint64](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				before := c.Epoch()
				if v, ok := c.Get(key); ok {
					if after := c.Epoch(); v < before || v > after {
						t.Errorf("hit stamped %d outside [%d, %d]", v, before, after)
						return
					}
				} else {
					c.Put(key, before, before)
				}
				if g == 0 && i%50 == 0 {
					c.Bump()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds capacity 8", c.Len())
	}
}

// Regression for a Get/Put data race: Get used to read the stored value
// after unlocking, racing a Put that overwrites the same key in place (two
// segments both miss, both compute, both Put, while a third hits).
// Meaningful under -race.
func TestGetRacingPutOverwrite(t *testing.T) {
	c := New[int](8)
	const key = "hot"
	c.Put(key, 1, c.Epoch())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 2000; i++ {
				if g%2 == 0 {
					c.Put(key, i, c.Epoch())
					continue
				}
				if v, ok := c.Get(key); ok && v == 0 {
					t.Error("hit returned the zero value")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
