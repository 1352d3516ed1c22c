package plan

import (
	"fmt"

	"partopt/internal/expr"
)

// Validate checks the structural invariants a physical plan must hold
// whatever the optimizer costed:
//
//   - the paper's colocation rule (§3.1): no Motion lies between a
//     PartitionSelector, the dynamic scan it feeds, and their lowest common
//     ancestor — the pair talks through a per-process mailbox;
//   - split aggregation: every Partial HashAgg has exactly one Final HashAgg
//     above it with at least one Motion in between, and every Final has its
//     Partial — a Final reads state columns by position, so feeding it
//     anything else silently computes garbage;
//   - outer joins: a preserved side is never pruned from outside — a dynamic
//     scan inside the preserved child of an outer HashJoin is fed by no
//     selector in the join's other child unless it is static (predicates on
//     its own partitioning keys only); selectors above the join belong to
//     joins that drop the pruned rows anyway — and never broadcast: no
//     Broadcast Motion on
//     the preserved child's spine, where it would null-extend an unmatched
//     row once per segment.
//
// It returns an error naming the first violation.
func Validate(root Node) error {
	type site struct {
		n    Node
		path []Node // root .. n inclusive
	}
	var selectors, scans, partials, outers []site
	finals := 0
	var path []Node
	var walk func(n Node)
	walk = func(n Node) {
		path = append(path, n)
		here := func() site { return site{n: n, path: append([]Node(nil), path...)} }
		switch x := n.(type) {
		case *PartitionSelector:
			selectors = append(selectors, here())
		case *DynamicScan, *DynamicIndexScan:
			scans = append(scans, here())
		case *HashJoin:
			if x.Type.Outer() {
				outers = append(outers, here())
			}
		case *HashAgg:
			switch x.Stage {
			case AggPartial:
				partials = append(partials, here())
			case AggFinal:
				finals++
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
		path = path[:len(path)-1]
	}
	walk(root)

	for _, sc := range scans {
		id := partScanID(sc.n)
		for _, sel := range selectors {
			if sel.n.(*PartitionSelector).PartScanID != id {
				continue
			}
			lca := 0 // length of the common path prefix; path[lca-1] is the LCA
			for lca < len(sel.path) && lca < len(sc.path) && sel.path[lca] == sc.path[lca] {
				lca++
			}
			for _, leg := range [][]Node{sel.path[lca:], sc.path[lca:]} {
				for _, n := range leg {
					if _, ok := n.(*Motion); ok {
						return fmt.Errorf("plan: %s separates %s from %s", n.Label(), sel.n.Label(), sc.n.Label())
					}
				}
			}
		}
	}

	for _, oj := range outers {
		j := oj.n.(*HashJoin)
		preserved := j.Build
		if j.Type.ProbePreserved() {
			preserved = j.Probe
		}
		for _, sc := range scans {
			if !onPath(sc.path, preserved) {
				continue
			}
			// Only a selector in the join's other child prunes the preserved
			// side by the join's own keys. One above the join belongs to a
			// join higher up, which drops the rows it prunes anyway.
			for _, sel := range selectors {
				s := sel.n.(*PartitionSelector)
				if s.PartScanID == partScanID(sc.n) && onPath(sel.path, j) && !onPath(sel.path, preserved) && !staticSelector(s) {
					return fmt.Errorf("plan: %s prunes the preserved side of %s from outside it", s.Label(), j.Label())
				}
			}
		}
		if b := broadcastOnSpine(preserved); b != nil {
			return fmt.Errorf("plan: %s broadcasts the preserved side of %s", b.Label(), j.Label())
		}
	}

	for _, p := range partials {
		var final Node
		motions := 0
		for i := len(p.path) - 2; i >= 0; i-- {
			switch x := p.path[i].(type) {
			case *Motion:
				if final == nil {
					motions++
				}
			case *HashAgg:
				if x.Stage == AggFinal {
					if final != nil {
						return fmt.Errorf("plan: %s has more than one Final stage above it", p.n.Label())
					}
					final = x
				}
			}
		}
		if final == nil {
			return fmt.Errorf("plan: %s has no Final stage above it", p.n.Label())
		}
		if motions == 0 {
			return fmt.Errorf("plan: no Motion between %s and %s", p.n.Label(), final.Label())
		}
	}
	if finals != len(partials) {
		return fmt.Errorf("plan: %d Final aggregation stage(s) over %d Partial", finals, len(partials))
	}
	return nil
}

// onPath reports whether n lies on a root-to-node path.
func onPath(path []Node, n Node) bool {
	for _, x := range path {
		if x == n {
			return true
		}
	}
	return false
}

// staticSelector reports whether a selector's predicates use no column but
// its own partitioning keys: its choice does not depend on any other rows.
func staticSelector(s *PartitionSelector) bool {
	ords := map[int]bool{}
	if s.Table.Part != nil {
		for _, o := range s.Table.Part.KeyOrds() {
			ords[o] = true
		}
	}
	for _, p := range s.Preds {
		if p == nil {
			continue
		}
		for id := range expr.ColsUsed(p) {
			if id.Rel != s.PartScanID || !ords[id.Ord] {
				return false
			}
		}
	}
	return true
}

// broadcastOnSpine returns the Broadcast Motion that delivers n's rows, if
// any: the walk follows row-preserving operators (Filter, Project, a
// pass-through PartitionSelector, the last child of a Sequence) down from n.
func broadcastOnSpine(n Node) *Motion {
	for n != nil {
		switch x := n.(type) {
		case *Motion:
			if x.Kind == BroadcastMotion {
				return x
			}
			return nil
		case *Filter:
			n = x.Child
		case *Project:
			n = x.Child
		case *PartitionSelector:
			n = x.Child
		case *Sequence:
			n = x.Kids[len(x.Kids)-1]
		default:
			return nil
		}
	}
	return nil
}

func partScanID(n Node) int {
	if s, ok := n.(*DynamicIndexScan); ok {
		return s.PartScanID
	}
	return n.(*DynamicScan).PartScanID
}
