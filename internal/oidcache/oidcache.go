// Package oidcache caches partition-selection results: the leaf OID sets a
// fully static PartitionSelector computes at Open by intersecting its
// derived per-level interval sets with the table's partition constraints
// (desc.Select — the paper's f*T traversal). Under serving traffic the same
// plan re-opens with the same bound parameter values over and over, and
// every segment process of every execution repeats an identical traversal;
// the cache collapses those to one traversal per distinct (table, derived
// intervals) pair. The cache itself is an epoch-stamped LRU (package
// epochlru); this package adds the key and the eligibility rule.
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
//   - Only changes to a table's partition layout (DDL) bump the epoch; data
//     writes need not, since desc.Select is a pure function of the
//     partition descriptor and the intervals.
//   - Join-driven ("hub") selectors never consult the cache: their
//     selections derive from streamed build rows, not static intervals,
//     and their static residue is the whole domain — caching it would fill
//     the cache with full-expansion entries of the star schema's largest
//     tables.
//   - Cached sets are shared by every selector that hits them and must not
//     be modified. desc.Select returns a fresh slice, so a computed set is
//     stored as is.
package oidcache

import (
	"fmt"
	"strings"

	"partopt/internal/epochlru"
	"partopt/internal/part"
	"partopt/internal/types"
)

// Cache is an LRU of computed OID sets.
type Cache = epochlru.Cache[[]part.OID]

// New creates a cache holding up to capacity entries; capacity <= 0
// disables caching.
func New(capacity int) *Cache { return epochlru.New[[]part.OID](capacity) }

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
