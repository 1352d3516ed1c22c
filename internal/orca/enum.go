package orca

import (
	"math/bits"

	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/plan"
)

// Join-order enumeration. insert routes every inner join through
// insertInnerCore, which flattens the maximal inner-join core rooted there
// (nested inner joins and their conjuncts; any other operator is a leaf)
// and builds memo groups for join orders beyond the written one:
//
//   - Up to maxDPLeaves leaves: exhaustive DP over connected subgraphs
//     (DPsub): one group per connected leaf subset, one join expression per
//     connected split of that subset. Conjuncts attach at the first join
//     whose two sides both touch them, so every plan in the space applies
//     each conjunct exactly once.
//
//   - Above the cutoff: greedy operator ordering (GOO) — repeatedly merge
//     the connected pair with the smallest estimated join output. Star and
//     snowflake graphs degrade gracefully: the greedy pass picks the
//     selective dimension joins first and never considers the exponential
//     bushy space.
//
// Shapes the enumerator cannot represent keep the as-written pairwise
// insertion (insertJoinPairwise): two-leaf cores (nothing to reorder),
// cores over 64 leaves, conjuncts touching fewer than two leaves (filters
// hiding in ON clauses), disconnected join graphs (cross joins as
// written), and — for the greedy path only — hyper-conjuncts spanning
// three or more leaves.
//
// All enumeration happens at insert time, before the search starts; groups
// and their expressions are immutable during search.

// innerCore is one flattened maximal inner-join region.
type innerCore struct {
	leaves []logical.Node
	rels   []map[int]bool // per-leaf relation sets (disjoint)
	conjs  []expr.Expr    // predicate conjuncts in as-written order
	masks  []uint64       // per-conjunct leaf masks
	adj    []uint64       // per-leaf adjacency masks (shared conjunct)
}

// flattenInner splits a tree into inner-join leaves and conjuncts.
func flattenInner(n logical.Node, leaves *[]logical.Node, conjs *[]expr.Expr) {
	if j, ok := n.(*logical.Join); ok && j.Type == plan.InnerJoin {
		flattenInner(j.Left, leaves, conjs)
		flattenInner(j.Right, leaves, conjs)
		*conjs = append(*conjs, expr.Conjuncts(j.Pred)...)
		return
	}
	*leaves = append(*leaves, n)
}

// buildCore analyzes the core rooted at x; ok is false when the shape must
// fall back to pairwise insertion.
func buildCore(x *logical.Join, maxDP int) (*innerCore, bool) {
	c := &innerCore{}
	flattenInner(x, &c.leaves, &c.conjs)
	n := len(c.leaves)
	if n <= 2 || n > 64 {
		return nil, false
	}

	// Map relation instance → leaf. Leaves carry disjoint binder-assigned
	// instance ids; a duplicate would make conjunct attribution ambiguous.
	relLeaf := map[int]int{}
	c.rels = make([]map[int]bool, n)
	for i, leaf := range c.leaves {
		rels := leaf.Rels()
		for r := range rels {
			if _, dup := relLeaf[r]; dup {
				return nil, false
			}
			relLeaf[r] = i
		}
		c.rels[i] = rels
	}

	c.masks = make([]uint64, len(c.conjs))
	c.adj = make([]uint64, n)
	hyper := false
	for ci, conj := range c.conjs {
		var mask uint64
		for id := range expr.ColsUsed(conj) {
			li, ok := relLeaf[id.Rel]
			if !ok {
				// Column from outside the core (correlated shapes).
				return nil, false
			}
			mask |= 1 << li
		}
		if bits.OnesCount64(mask) < 2 {
			// A constant or single-leaf conjunct inside an ON clause: the
			// as-written tree already evaluates it at the right join.
			return nil, false
		}
		if bits.OnesCount64(mask) > 2 {
			hyper = true
		}
		c.masks[ci] = mask
		for li := 0; li < n; li++ {
			if mask&(1<<li) != 0 {
				c.adj[li] |= mask &^ (1 << li)
			}
		}
	}
	if !c.connected((uint64(1) << n) - 1) {
		return nil, false
	}
	if hyper && n > maxDP {
		// The greedy path needs a directly-applicable conjunct per merge.
		return nil, false
	}
	return c, true
}

// connected reports whether the leaves of mask form one connected component
// of the conjunct graph.
func (c *innerCore) connected(mask uint64) bool {
	if mask == 0 {
		return false
	}
	seen := mask & (^mask + 1) // lowest set bit
	for {
		grow := seen
		for li := 0; li < len(c.adj); li++ {
			if seen&(1<<li) != 0 {
				grow |= c.adj[li] & mask
			}
		}
		if grow == seen {
			return seen == mask
		}
		seen = grow
	}
}

// predFor conjoins the conjuncts applicable at the split (s, o): contained
// in the union and touching both sides. As-written conjunct order is kept
// so rebuilt predicates print and serialize stably.
func (c *innerCore) predFor(s, o uint64) expr.Expr {
	var parts []expr.Expr
	union := s | o
	for ci, mask := range c.masks {
		if mask&^union == 0 && mask&s != 0 && mask&o != 0 {
			parts = append(parts, c.conjs[ci])
		}
	}
	return expr.Conj(parts...)
}

// relsFor unions the relation sets of the leaves in mask.
func (c *innerCore) relsFor(mask uint64) map[int]bool {
	out := map[int]bool{}
	for li := 0; li < len(c.leaves); li++ {
		if mask&(1<<li) != 0 {
			for r := range c.rels[li] {
				out[r] = true
			}
		}
	}
	return out
}

// insertInnerCore enumerates join orders for the inner-join core rooted at
// x and returns the root group covering every leaf.
func (m *memo) insertInnerCore(x *logical.Join) (*group, error) {
	core, ok := buildCore(x, m.o.maxDPLeaves())
	if !ok {
		return m.insertJoinPairwise(x)
	}
	// Leaf groups in as-written order (group ids stay deterministic).
	leafGroups := make([]*group, len(core.leaves))
	for i, leaf := range core.leaves {
		g, err := m.insert(leaf)
		if err != nil {
			return nil, err
		}
		leafGroups[i] = g
	}
	if len(core.leaves) <= m.o.maxDPLeaves() {
		return m.enumerateDP(core, leafGroups), nil
	}
	return m.enumerateGreedy(core, leafGroups), nil
}

// joinLexpr builds one enumerated join expression. The logical.Join payload
// carries only the type and predicate; implementJoin reads nothing else.
func joinLexpr(pred expr.Expr, build, probe *group) *lexpr {
	return newJoinLexpr(&logical.Join{Type: plan.InnerJoin, Pred: pred}, build, probe)
}

// enumerateDP runs DPsub: one group per connected leaf subset in ascending
// mask order, one join expression per ordered connected split. Ascending
// submask order makes the two-leaf case degenerate to the pairwise
// [join(L,R), join(R,L)] list, so enumerated and as-written groups cost
// tie-breaks identically.
func (m *memo) enumerateDP(core *innerCore, leafGroups []*group) *group {
	n := len(core.leaves)
	full := (uint64(1) << n) - 1
	sub := make(map[uint64]*group, 1<<n)
	for i, g := range leafGroups {
		sub[uint64(1)<<i] = g
	}
	for mask := uint64(3); mask <= full; mask++ {
		if bits.OnesCount64(mask) < 2 || !core.connected(mask) {
			continue
		}
		g := m.newGroup(core.relsFor(mask))
		for s := (0 - mask) & mask; s != mask; s = (s - mask) & mask {
			o := mask ^ s
			bg, pg := sub[s], sub[o]
			if bg == nil || pg == nil {
				continue // a side is not connected: no group was built
			}
			g.lexprs = append(g.lexprs, joinLexpr(core.predFor(s, o), bg, pg))
		}
		sub[mask] = g
	}
	return sub[full]
}

// enumerateGreedy runs GOO: maintain one set per leaf and repeatedly merge
// the connected pair with the smallest estimated join output (ties to the
// lowest pair indexes, so the result is deterministic). Each merge becomes
// a group holding both child orders, like the pairwise path.
func (m *memo) enumerateGreedy(core *innerCore, leafGroups []*group) *group {
	type set struct {
		mask  uint64
		g     *group
		rows  float64
		alive bool
	}
	sets := make([]*set, len(leafGroups))
	for i, g := range leafGroups {
		sets[i] = &set{
			mask:  uint64(1) << i,
			g:     g,
			rows:  m.logicalRows(core.leaves[i]),
			alive: true,
		}
	}
	for remaining := len(sets); remaining > 1; remaining-- {
		bi, bj := -1, -1
		var bestRows float64
		for i := 0; i < len(sets); i++ {
			if !sets[i].alive {
				continue
			}
			for j := i + 1; j < len(sets); j++ {
				if !sets[j].alive {
					continue
				}
				if core.predFor(sets[i].mask, sets[j].mask) == nil {
					continue
				}
				rows := joinOutRows(plan.InnerJoin, sets[i].rows, sets[j].rows)
				if bi < 0 || rows < bestRows {
					bi, bj, bestRows = i, j, rows
				}
			}
		}
		if bi < 0 {
			// Unreachable for connected binary-conjunct graphs (buildCore
			// rejects everything else), kept as a safety net.
			for i := 0; i < len(sets); i++ {
				if sets[i].alive {
					if bi < 0 {
						bi = i
					} else if bj < 0 {
						bj = i
					}
				}
			}
		}
		a, b := sets[bi], sets[bj]
		pred := core.predFor(a.mask, b.mask)
		g := m.newGroup(core.relsFor(a.mask | b.mask))
		g.lexprs = append(g.lexprs, joinLexpr(pred, a.g, b.g))
		g.lexprs = append(g.lexprs, joinLexpr(pred, b.g, a.g))
		outRows := joinOutRows(plan.InnerJoin, a.rows, b.rows) * m.selectivity(pred)
		if outRows < 1 {
			outRows = 1
		}
		a.mask |= b.mask
		a.g = g
		a.rows = outRows
		b.alive = false
	}
	for _, s := range sets {
		if s.alive {
			return s.g
		}
	}
	return nil
}

// logicalRows estimates a logical subtree's output cardinality for the
// greedy enumerator (never used for final plan costs — those come from the
// physical search).
func (m *memo) logicalRows(n logical.Node) float64 {
	switch x := n.(type) {
	case *logical.Get:
		return m.o.tableRows(x.Table)
	case *logical.Select:
		r := m.logicalRows(x.Child) * m.selectivity(x.Pred)
		if r < 1 {
			r = 1
		}
		return r
	case *logical.Project:
		return m.logicalRows(x.Child)
	case *logical.GroupBy:
		r := m.logicalRows(x.Child) / 3
		if r < 1 {
			r = 1
		}
		return r
	case *logical.Join:
		return joinOutRows(x.Type, m.logicalRows(x.Left), m.logicalRows(x.Right))
	}
	return 1000
}
