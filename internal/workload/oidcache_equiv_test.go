package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"partopt"
)

// Differential OID-cache fuzzer: the same query sweep against a caching
// engine and a cache-disabled twin must agree on row multisets and
// partition counts. The sweep repeats templates with varying literals so
// the cached engine serves most selector openings from remembered OID
// sets; a mid-sweep DDL bumps the catalog epoch and the remembered sets
// must lazily invalidate, never serve stale. Any divergence is a cache
// bug — selection itself is identical on both engines.
func TestFuzzOIDCacheEquivalence(t *testing.T) {
	cached, uncached := buildCacheEquivPair(t)
	uncached.SetPlanCacheCapacity(partopt.DefaultPlanCacheCapacity)
	uncached.SetOIDCacheCapacity(0)
	days := DefaultStarConfig().Days()
	rnd := rand.New(rand.NewSource(20140622))

	templates := []func(lo, hi int) string{
		func(lo, hi int) string {
			return fmt.Sprintf("SELECT sum(amount) FROM store_sales WHERE date_id BETWEEN %d AND %d", lo, hi)
		},
		func(lo, _ int) string {
			return fmt.Sprintf("SELECT count(*) FROM web_sales WHERE date_id = %d", lo)
		},
		func(lo, _ int) string {
			return fmt.Sprintf("SELECT quantity, count(*) FROM catalog_sales WHERE date_id < %d GROUP BY quantity", 1+lo)
		},
		func(lo, hi int) string {
			// Static range intersected with a join-driven (hub) selection:
			// only the static part may be served from the cache.
			return fmt.Sprintf(`SELECT count(*) FROM store_sales s, date_dim d
				WHERE s.date_id = d.date_id AND s.date_id >= %d AND d.moy = %d`, lo, 1+lo%12)
		},
		func(lo, hi int) string {
			// Outer join with a static fact-side residue.
			return fmt.Sprintf(`SELECT count(*) FROM date_dim d LEFT JOIN store_sales s
				ON d.date_id = s.date_id WHERE d.month BETWEEN %d AND %d`, 1+lo%24, 1+hi%24)
		},
	}

	check := func(i int, q string) {
		t.Helper()
		want, err := uncached.Query(q)
		if err != nil {
			t.Fatalf("query %d uncached: %v\n%s", i, err, q)
		}
		got, err := cached.Query(q)
		if err != nil {
			t.Fatalf("query %d cached: %v\n%s", i, err, q)
		}
		assertSameData(t, fmt.Sprintf("query %d (%s)", i, q), want, got, false)
		for tab, n := range want.PartsScanned {
			if got.PartsScanned[tab] != n {
				t.Fatalf("query %d: PartsScanned[%s] = %d cached vs %d uncached\n%s",
					i, tab, got.PartsScanned[tab], n, q)
			}
		}
	}

	var postDDL []string
	for i := 0; i < 80; i++ {
		if i == 40 {
			// Partition-layout DDL: the epoch bump must stamp every cached
			// set stale; the sweep's repeated keys then re-miss and refill.
			for _, eng := range []*partopt.Engine{cached, uncached} {
				if err := eng.CreateTable("oid_epoch_probe",
					partopt.Columns("k", partopt.TypeInt, "v", partopt.TypeInt),
					partopt.DistributedBy("k"),
					partopt.PartitionByRangeInt("k", 0, 100, 4),
				); err != nil {
					t.Fatalf("mid-sweep CreateTable: %v", err)
				}
			}
		}
		tmpl := templates[i%len(templates)]
		lo := rnd.Intn(days)
		q := tmpl(lo, lo+rnd.Intn(days-lo))
		check(i, q)
		if i >= 40 {
			postDDL = append(postDDL, q)
		}
	}

	st := cached.OIDCacheStats()
	if st.Hits == 0 {
		t.Fatalf("sweep never hit the OID cache: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Fatalf("mid-sweep DDL caused no invalidation: %+v", st)
	}
	off := uncached.OIDCacheStats()
	if off.Hits != 0 || off.Entries != 0 {
		t.Fatalf("disabled OID cache reports activity: %+v", off)
	}

	// Warm replay of the post-DDL half: every static selection it needs is
	// cached at the current epoch, so no selector opening — on any of the
	// segment instances that open concurrently — traverses the descriptor
	// (each miss is one traversal), and the hits grow. Hub and
	// unconstrained selectors bypass the cache and count neither.
	for i, q := range postDDL {
		if _, err := cached.Query(q); err != nil {
			t.Fatalf("replay %d: %v\n%s", i, err, q)
		}
	}
	warm := cached.OIDCacheStats()
	if warm.Misses != st.Misses {
		t.Errorf("warm replay missed the OID cache %d time(s), want 0", warm.Misses-st.Misses)
	}
	if warm.Hits <= st.Hits {
		t.Errorf("warm replay never hit the OID cache: %+v", warm)
	}
}
