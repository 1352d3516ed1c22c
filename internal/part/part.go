// Package part implements partitioned-table metadata: single- and
// multi-level (hierarchical) partition descriptors with range or list
// (categorical) schemes, the tuple-routing function fT, and the
// partition-selection function f*T of the paper (§2.1).
//
// Partitions are identified by OIDs. Leaf partitions are the physically
// stored tables (paper §3.2: "on disk, partitions are represented as
// separate physical tables, with associated check constraint"); interior
// nodes exist only in metadata. Every constraint has the canonical form
// pk ∈ ∪ᵢ(aᵢ₁, aᵢₖ) — a types.IntervalSet.
package part

import (
	"fmt"
	"sort"

	"partopt/internal/types"
)

// OID identifies a partition (or a root partitioned table) uniquely within
// a catalog.
type OID int32

// InvalidOID is the ⊥ of the paper's partitioning function fT: the value
// returned for tuples that map to no partition.
const InvalidOID OID = -1

// Scheme distinguishes range from list (categorical) partitioning.
type Scheme uint8

// Partitioning schemes.
const (
	Range Scheme = iota // half-open [start, end) ranges
	List                // explicit value lists
)

func (s Scheme) String() string {
	if s == List {
		return "list"
	}
	return "range"
}

// Level describes one level of the partitioning hierarchy.
type Level struct {
	KeyOrd int    // ordinal of the partitioning key column in the table schema
	Scheme Scheme // range or list
}

// Node is one element of the partition hierarchy. Nodes at the deepest
// level are leaves and carry the physical partition OID.
type Node struct {
	OID        OID
	Name       string
	Constraint types.IntervalSet // check constraint on this level's key
	Children   []*Node           // nil at the deepest level

	sortedKids bool // Children form a sorted disjoint range sequence
}

// Desc is the complete partitioning descriptor of one table.
type Desc struct {
	RootOID OID
	Levels  []Level
	Roots   []*Node // top-level partitions

	leaves      []*Node                     // cached leaf list in hierarchy order
	byOID       map[OID]*Node               // every node by OID
	paths       map[OID][]types.IntervalSet // leaf OID → per-level constraints
	sortedRoots bool                        // Roots form a sorted disjoint range sequence
}

// NumLevels returns the number of partitioning levels.
func (d *Desc) NumLevels() int { return len(d.Levels) }

// KeyOrds returns the key column ordinals, one per level.
func (d *Desc) KeyOrds() []int {
	out := make([]int, len(d.Levels))
	for i, l := range d.Levels {
		out[i] = l.KeyOrd
	}
	return out
}

// finalize computes the cached leaf list and lookup maps. Builders call it;
// descriptors are immutable afterwards.
func (d *Desc) finalize() {
	d.byOID = map[OID]*Node{}
	d.paths = map[OID][]types.IntervalSet{}
	d.leaves = d.leaves[:0]
	var walk func(n *Node, depth int, path []types.IntervalSet)
	for _, r := range d.Roots {
		walk = func(n *Node, depth int, path []types.IntervalSet) {
			d.byOID[n.OID] = n
			n.sortedKids = sortedGroup(n.Children)
			path = append(path, n.Constraint)
			if len(n.Children) == 0 {
				if depth != len(d.Levels)-1 {
					panic(fmt.Sprintf("part: leaf %q at depth %d of %d-level table", n.Name, depth, len(d.Levels)))
				}
				d.leaves = append(d.leaves, n)
				cp := make([]types.IntervalSet, len(path))
				copy(cp, path)
				d.paths[n.OID] = cp
				return
			}
			for _, c := range n.Children {
				walk(c, depth+1, path)
			}
		}
		walk(r, 0, nil)
	}
	d.sortedRoots = sortedGroup(d.Roots)
}

// sortedGroup reports whether a sibling group forms an ascending sequence
// of pairwise-disjoint single-interval constraints — the shape produced by
// range partitioning. Selection and routing binary-search such groups
// instead of scanning every constraint; small groups stay on the linear
// path, where scanning is already cheap.
func sortedGroup(group []*Node) bool {
	if len(group) < 8 {
		return false
	}
	for _, n := range group {
		if len(n.Constraint.Ivs) != 1 || n.Constraint.Ivs[0].Empty() {
			return false
		}
	}
	for i := 1; i < len(group); i++ {
		if !group[i-1].Constraint.Ivs[0].Before(group[i].Constraint.Ivs[0]) {
			return false
		}
	}
	return true
}

// NumLeaves returns the number of leaf (physical) partitions.
func (d *Desc) NumLeaves() int { return len(d.leaves) }

// Expansion returns all leaf partition OIDs — the builtin
// partition_expansion(rootOid) of paper Table 1.
func (d *Desc) Expansion() []OID {
	out := make([]OID, len(d.leaves))
	for i, n := range d.leaves {
		out[i] = n.OID
	}
	return out
}

// LeafConstraint pairs a leaf OID with its per-level check constraints —
// one row of the builtin partition_constraints(rootOid) of paper Table 1.
type LeafConstraint struct {
	OID         OID
	Constraints []types.IntervalSet // one per level
}

// Constraints returns the constraint table for all leaves — the builtin
// partition_constraints(rootOid).
func (d *Desc) Constraints() []LeafConstraint {
	out := make([]LeafConstraint, len(d.leaves))
	for i, n := range d.leaves {
		out[i] = LeafConstraint{OID: n.OID, Constraints: d.paths[n.OID]}
	}
	return out
}

// LeafPath returns the per-level constraints of one leaf.
func (d *Desc) LeafPath(oid OID) ([]types.IntervalSet, bool) {
	p, ok := d.paths[oid]
	return p, ok
}

// Node returns the hierarchy node with the given OID.
func (d *Desc) Node(oid OID) (*Node, bool) {
	n, ok := d.byOID[oid]
	return n, ok
}

// Route implements fT: it maps the partitioning-key values of a tuple to
// the leaf partition that must store it, or InvalidOID (⊥) when no
// partition accepts the tuple. keys holds one datum per level. It is also
// the builtin partition_selection(rootOid, value) (paper §2.1: for pk = c
// predicates, f*T coincides with fT(c)).
func (d *Desc) Route(keys []types.Datum) OID {
	if len(keys) != len(d.Levels) {
		panic(fmt.Sprintf("part: Route got %d keys for %d levels", len(keys), len(d.Levels)))
	}
	nodes, sorted := d.Roots, d.sortedRoots
	var found *Node
	for lvl := 0; lvl < len(d.Levels); lvl++ {
		found = routeLevel(nodes, sorted, keys[lvl])
		if found == nil {
			return InvalidOID
		}
		nodes, sorted = found.Children, found.sortedKids
	}
	return found.OID
}

// routeLevel finds the sibling whose constraint contains v, binary-searching
// sorted range groups and scanning the rest.
func routeLevel(nodes []*Node, sorted bool, v types.Datum) *Node {
	if sorted && !v.IsNull() {
		// First constraint whose upper bound does not lie below v; only that
		// one can contain v in an ascending disjoint sequence.
		i := sort.Search(len(nodes), func(i int) bool {
			iv := &nodes[i].Constraint.Ivs[0]
			if iv.HiUnb {
				return true
			}
			c := types.Compare(iv.Hi, v)
			return c > 0 || (c == 0 && iv.HiIncl)
		})
		if i < len(nodes) && nodes[i].Constraint.Contains(v) {
			return nodes[i]
		}
		return nil
	}
	for _, n := range nodes {
		if n.Constraint.Contains(v) {
			return n
		}
	}
	return nil
}

// Select implements f*T for interval sets: given one derived IntervalSet
// per level (use types.WholeDomain() for unconstrained levels), it returns
// the OIDs of all leaf partitions whose constraints overlap every level's
// set. The result over-approximates: a tuple satisfying the originating
// predicate is guaranteed to live in one of the returned partitions.
func (d *Desc) Select(sets []types.IntervalSet) []OID {
	if len(sets) != len(d.Levels) {
		panic(fmt.Sprintf("part: Select got %d sets for %d levels", len(sets), len(d.Levels)))
	}
	var out []OID
	var emit func(n *Node, lvl int)
	var group func(nodes []*Node, sorted bool, lvl int)
	emit = func(n *Node, lvl int) {
		if len(n.Children) == 0 {
			out = append(out, n.OID)
			return
		}
		group(n.Children, n.sortedKids, lvl+1)
	}
	group = func(nodes []*Node, sorted bool, lvl int) {
		set := sets[lvl]
		if sorted && len(set.Ivs) == 1 && !set.Ivs[0].Empty() {
			// Sorted disjoint ranges against one predicate interval: the
			// overlapping constraints form one contiguous run. Binary-search
			// its start (this is the hot path of a cached plan's runtime
			// partition selector) and scan until the run ends. For non-empty
			// single intervals, overlap is exactly "neither lies entirely
			// before the other".
			iv := set.Ivs[0]
			lo := sort.Search(len(nodes), func(i int) bool {
				return !nodes[i].Constraint.Ivs[0].Before(iv)
			})
			for i := lo; i < len(nodes); i++ {
				if iv.Before(nodes[i].Constraint.Ivs[0]) {
					break
				}
				emit(nodes[i], lvl)
			}
			return
		}
		for _, n := range nodes {
			if n.Constraint.Overlaps(set) {
				emit(n, lvl)
			}
		}
	}
	group(d.Roots, d.sortedRoots, 0)
	return out
}

// Aligned reports whether two single-level descriptors have identical
// partitioning schemes: the same number of leaves with pairwise equal
// constraints, in order. Aligned schemes admit partition-wise joins: the
// i-th leaf of one table can only match the i-th leaf of the other.
func Aligned(a, b *Desc) bool {
	if a == nil || b == nil || a.NumLevels() != 1 || b.NumLevels() != 1 {
		return false
	}
	if len(a.leaves) != len(b.leaves) {
		return false
	}
	for i := range a.leaves {
		if !a.leaves[i].Constraint.Equal(b.leaves[i].Constraint) {
			return false
		}
	}
	return true
}

// String summarizes the descriptor for EXPLAIN and debugging output.
func (d *Desc) String() string {
	return fmt.Sprintf("partitioned(root=%d, levels=%d, leaves=%d)", d.RootOID, len(d.Levels), len(d.leaves))
}
