package oidcache

import (
	"fmt"
	"sync"
	"testing"

	"partopt/internal/part"
	"partopt/internal/types"
)

func set(ivs ...types.Interval) types.IntervalSet { return types.IntervalSet{Ivs: ivs} }

// Key is canonical over interval structure and kind-tags every bound: the
// same logical intervals render identically, different tables / values /
// datum kinds / inclusivity never collide.
func TestKeyCanonicalAndCollisionFree(t *testing.T) {
	p5 := set(types.PointInterval(types.NewInt(5)))
	if Key(1, []types.IntervalSet{p5}) != Key(1, []types.IntervalSet{p5}) {
		t.Fatalf("identical inputs render differently")
	}
	distinct := []string{
		Key(1, []types.IntervalSet{p5}),
		Key(2, []types.IntervalSet{p5}),
		Key(1, []types.IntervalSet{set(types.PointInterval(types.NewInt(6)))}),
		Key(1, []types.IntervalSet{set(types.PointInterval(types.NewString("5")))}),
		Key(1, []types.IntervalSet{set(types.RangeInterval(types.NewInt(5), types.NewInt(6)))}),
		Key(1, []types.IntervalSet{set(types.Unbounded())}),
		Key(1, []types.IntervalSet{p5, p5}),
		Key(1, nil),
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if j, dup := seen[k]; dup {
			t.Errorf("keys %d and %d collide: %q", j, i, k)
		}
		seen[k] = i
	}
}

// Constrained skips exactly the selectors whose every level is the single
// unbounded interval — those would cache whole-table expansions.
func TestConstrained(t *testing.T) {
	whole := types.WholeDomain()
	cases := []struct {
		sets []types.IntervalSet
		want bool
	}{
		{nil, false},
		{[]types.IntervalSet{whole}, false},
		{[]types.IntervalSet{whole, whole}, false},
		{[]types.IntervalSet{set(types.PointInterval(types.NewInt(5)))}, true},
		{[]types.IntervalSet{whole, set(types.RangeInterval(types.NewInt(1), types.NewInt(2)))}, true},
		{[]types.IntervalSet{set()}, true}, // empty set = empty selection, still constrained
		{[]types.IntervalSet{set(types.Interval{LoUnb: true, Hi: types.NewInt(9), HiIncl: true})}, true},
	}
	for i, tc := range cases {
		if got := Constrained(tc.sets); got != tc.want {
			t.Errorf("case %d: Constrained = %v, want %v", i, got, tc.want)
		}
	}
}

// The cache behaviours below are tested generically in package epochlru;
// these cases pin them for the []part.OID instantiation the executor uses,
// whose hits hand one shared slice to every concurrent selector.

// A hit returns the stored set; a miss after Bump is counted as an
// invalidation plus a miss, and the stale entry is gone for good.
func TestGetPutEpochStaleness(t *testing.T) {
	c := New(4)
	key := Key(7, []types.IntervalSet{set(types.PointInterval(types.NewInt(5)))})

	if _, ok := c.Get(key); ok {
		t.Fatalf("empty cache hit")
	}
	c.Put(key, []part.OID{10, 11}, c.Epoch())
	got, ok := c.Get(key)
	if !ok || len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("Get = %v, %v; want [10 11], true", got, ok)
	}

	c.Bump()
	if _, ok := c.Get(key); ok {
		t.Fatalf("stale entry survived the epoch bump")
	}
	// The stale entry was removed, not just skipped: a second Get is a
	// plain miss, not another invalidation.
	if _, ok := c.Get(key); ok {
		t.Fatalf("stale entry resurrected")
	}
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 3 || s.Invalidations != 1 {
		t.Errorf("counters = %+v, want 1 hit, 3 misses, 1 invalidation", s)
	}
	if s.Entries != 0 {
		t.Errorf("entries = %d, want 0 after invalidation", s.Entries)
	}
}

// Put stamps the entry with the epoch the caller OBSERVED, not the current
// one: a selection computed concurrently with a DDL bump must land stale.
func TestPutWithObservedEpochLandsStale(t *testing.T) {
	c := New(4)
	observed := c.Epoch()
	c.Bump() // DDL races the computation
	c.Put("k", []part.OID{1}, observed)
	if _, ok := c.Get("k"); ok {
		t.Fatalf("entry computed under a stale epoch hit")
	}
}

// The cache is LRU: touching an entry protects it from eviction.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", []part.OID{1}, 0)
	c.Put("b", []part.OID{2}, 0)
	if _, ok := c.Get("a"); !ok { // a is now most recent
		t.Fatalf("a missing")
	}
	c.Put("c", []part.OID{3}, 0) // evicts b
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

// Concurrent Get/Put/Bump must be race-free (run under -race) and keep the
// entry count within capacity.
func TestConcurrentAccess(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				if _, ok := c.Get(k); !ok {
					c.Put(k, []part.OID{part.OID(i)}, c.Epoch())
				}
				if i%50 == 0 {
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

// Regression test for a Get/Put data race: Get used to read the item's
// slice after unlocking, racing a Put that overwrites the same key in place
// (two segments of one query both miss, both compute, both Put, while a
// third hits). Meaningful under -race.
func TestGetRacingPutOverwrite(t *testing.T) {
	c := New(8)
	const key = "hot"
	c.Put(key, []part.OID{1}, c.Epoch())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g%2 == 0 {
					c.Put(key, []part.OID{part.OID(i), part.OID(i + 1)}, c.Epoch())
					continue
				}
				if oids, ok := c.Get(key); ok && len(oids) == 0 {
					t.Error("hit returned an empty OID set")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
