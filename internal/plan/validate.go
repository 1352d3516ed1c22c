package plan

import "fmt"

// Validate checks the structural invariants a physical plan must hold
// whatever the optimizer costed:
//
//   - the paper's colocation rule (§3.1): no Motion lies between a
//     PartitionSelector, the dynamic scan it feeds, and their lowest common
//     ancestor — the pair talks through a per-process mailbox;
//   - split aggregation: every Partial HashAgg has exactly one Final HashAgg
//     above it with at least one Motion in between, and every Final has its
//     Partial — a Final reads state columns by position, so feeding it
//     anything else silently computes garbage.
//
// It returns an error naming the first violation.
func Validate(root Node) error {
	type site struct {
		n    Node
		path []Node // root .. n inclusive
	}
	var selectors, scans, partials []site
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

func partScanID(n Node) int {
	if s, ok := n.(*DynamicIndexScan); ok {
		return s.PartScanID
	}
	return n.(*DynamicScan).PartScanID
}
