// Package core implements the paper's primary contribution (§2.3–§2.4):
// the PartitionSelector placement algorithms. Given a physical operator
// tree that contains DynamicScans but no PartitionSelectors, Place computes
// where selectors go so that partition elimination is maximal:
//
//   - Algorithm 1 (PlacePartSelectors) — the recursive driver,
//   - Algorithm 2 — the default ComputePartSelectors for operators without
//     partition-filtering predicates (Project, GroupBy, Sequence, ...),
//   - Algorithm 3 — Select (Filter): predicates on a partitioning key
//     augment the travelling PartSelectorSpec,
//   - Algorithm 4 — Join: specs for probe-side scans are pushed into the
//     first-executed (build/"outer") child when the join predicate
//     constrains the partitioning key — dynamic partition elimination,
//
// extended per §2.4 with per-level key/predicate lists for multi-level
// (hierarchical) partitioning.
//
// The algorithms operate on Motion-free trees, as in the paper: the Orca
// integration (internal/orca) is what reconciles placement with data
// movement. Relation instance ids double as partScanIds.
package core

import (
	"fmt"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/plan"
)

// PartSelectorSpec is the travelling specification of one PartitionSelector
// that still needs to be placed (paper Fig. 7, extended in Fig. 11 to lists
// for multi-level tables).
type PartSelectorSpec struct {
	PartScanID int
	Table      *catalog.Table
	PartKeys   []expr.ColID // one per partitioning level
	PartPreds  []expr.Expr  // one per level; nil entries mean "no predicate"
}

// clone returns a deep-enough copy (predicate slices are copied; the
// expressions themselves are immutable).
func (s *PartSelectorSpec) clone() *PartSelectorSpec {
	preds := make([]expr.Expr, len(s.PartPreds))
	copy(preds, s.PartPreds)
	return &PartSelectorSpec{
		PartScanID: s.PartScanID,
		Table:      s.Table,
		PartKeys:   s.PartKeys,
		PartPreds:  preds,
	}
}

// specFor builds the initial (predicate-free) spec for a DynamicScan.
func specFor(ds *plan.DynamicScan) *PartSelectorSpec {
	ords := ds.Table.Part.KeyOrds()
	keys := make([]expr.ColID, len(ords))
	for i, ord := range ords {
		keys[i] = expr.ColID{Rel: ds.Rel, Ord: ord}
	}
	return &PartSelectorSpec{
		PartScanID: ds.PartScanID,
		Table:      ds.Table,
		PartKeys:   keys,
		PartPreds:  make([]expr.Expr, len(ords)),
	}
}

// CollectSpecs builds the input spec list for Place: one spec per
// DynamicScan in the tree, in pre-order.
func CollectSpecs(root plan.Node) []*PartSelectorSpec {
	var specs []*PartSelectorSpec
	plan.Walk(root, func(n plan.Node) bool {
		if ds, ok := n.(*plan.DynamicScan); ok {
			specs = append(specs, specFor(ds))
		}
		return true
	})
	return specs
}

// HasPartScanID reports whether the DynamicScan with the given id lives in
// the subtree rooted at n (paper helper Operator::HasPartScanId).
func HasPartScanID(n plan.Node, id int) bool {
	found := false
	plan.Walk(n, func(x plan.Node) bool {
		if found {
			return false
		}
		if ds, ok := x.(*plan.DynamicScan); ok && ds.PartScanID == id {
			found = true
			return false
		}
		return true
	})
	return found
}

// Place runs the placement pass over a plan: it collects the specs of every
// DynamicScan and invokes Algorithm 1. The result is a tree in which every
// DynamicScan has a reachable PartitionSelector.
func Place(root plan.Node) plan.Node {
	return PlacePartSelectors(root, CollectSpecs(root))
}

// PlacePartSelectors is Algorithm 1: it dispatches to the operator's
// ComputePartSelectors to split the input specs into "enforce on top of
// this node" and per-child lists, recurses, and wraps the rebuilt node with
// the on-top selectors.
func PlacePartSelectors(n plan.Node, input []*PartSelectorSpec) plan.Node {
	onTop, childSpecs := computePartSelectors(n, input)
	children := n.Children()
	newChildren := make([]plan.Node, len(children))
	for i, child := range children {
		newChildren[i] = PlacePartSelectors(child, childSpecs[i])
	}
	return enforcePartSelectors(onTop, rebuild(n, newChildren))
}

// computePartSelectors dispatches on the operator type, mirroring the
// paper's per-operator overloads.
func computePartSelectors(n plan.Node, input []*PartSelectorSpec) (onTop []*PartSelectorSpec, childSpecs [][]*PartSelectorSpec) {
	childSpecs = make([][]*PartSelectorSpec, len(n.Children()))
	switch x := n.(type) {
	case *plan.DynamicScan:
		// The spec has reached its own scan: enforce directly on top.
		// Anything else reaching a leaf is a producer-side spec for a scan
		// elsewhere and is enforced here too (this subtree's rows drive it).
		onTop = append(onTop, input...)
	case *plan.Filter:
		onTop, childSpecs = computeSelect(x, input, childSpecs)
	case *plan.HashJoin:
		onTop, childSpecs = computeJoin(x, input, childSpecs)
	default:
		onTop, childSpecs = computeDefault(n, input, childSpecs)
	}
	return onTop, childSpecs
}

// computeDefault is Algorithm 2: push each spec to the child subtree that
// defines its DynamicScan, or enforce on top when none does.
func computeDefault(n plan.Node, input []*PartSelectorSpec, childSpecs [][]*PartSelectorSpec) ([]*PartSelectorSpec, [][]*PartSelectorSpec) {
	var onTop []*PartSelectorSpec
	children := n.Children()
	for _, spec := range input {
		if !HasPartScanID(n, spec.PartScanID) {
			onTop = append(onTop, spec)
			continue
		}
		for i, child := range children {
			if HasPartScanID(child, spec.PartScanID) {
				childSpecs[i] = append(childSpecs[i], spec)
				break
			}
		}
	}
	return onTop, childSpecs
}

// computeSelect is Algorithm 3: extract partition-filtering predicates from
// the Select's condition and augment the spec before pushing it down.
func computeSelect(f *plan.Filter, input []*PartSelectorSpec, childSpecs [][]*PartSelectorSpec) ([]*PartSelectorSpec, [][]*PartSelectorSpec) {
	var onTop []*PartSelectorSpec
	for _, spec := range input {
		if !HasPartScanID(f, spec.PartScanID) {
			onTop = append(onTop, spec)
			continue
		}
		keyPreds, found := expr.FindPredsOnKeys(spec.PartKeys, f.Pred)
		if found {
			newSpec := spec.clone()
			for lvl, p := range keyPreds {
				if p != nil {
					newSpec.PartPreds[lvl] = expr.Conj(p, newSpec.PartPreds[lvl])
				}
			}
			childSpecs[0] = append(childSpecs[0], newSpec)
			continue
		}
		childSpecs[0] = append(childSpecs[0], spec)
	}
	return onTop, childSpecs
}

// computeJoin is Algorithm 4. Child 0 is the build side — the "outer" child
// in the paper's execution-order sense (it runs first), so it is the only
// valid producer side for dynamic elimination of a probe-side scan.
func computeJoin(j *plan.HashJoin, input []*PartSelectorSpec, childSpecs [][]*PartSelectorSpec) ([]*PartSelectorSpec, [][]*PartSelectorSpec) {
	var onTop []*PartSelectorSpec
	for _, spec := range input {
		if !HasPartScanID(j, spec.PartScanID) {
			onTop = append(onTop, spec)
			continue
		}
		keyPreds, found := expr.FindPredsOnKeys(spec.PartKeys, j.Cond)
		definedInOuter := HasPartScanID(j.Build, spec.PartScanID)
		switch {
		case definedInOuter:
			// The consumer runs first; the producer cannot live on the
			// inner side without destroying producer-before-consumer order.
			childSpecs[0] = append(childSpecs[0], spec)
		case !found:
			// No join predicate on the key: resolve near the scan.
			childSpecs[1] = append(childSpecs[1], spec)
		default:
			// Dynamic partition elimination: augment and push to the
			// first-executed side, whose rows will drive selection.
			newSpec := spec.clone()
			for lvl, p := range keyPreds {
				if p != nil {
					newSpec.PartPreds[lvl] = expr.Conj(p, newSpec.PartPreds[lvl])
				}
			}
			childSpecs[0] = append(childSpecs[0], newSpec)
		}
	}
	return onTop, childSpecs
}

// enforcePartSelectors wraps node with one pass-through PartitionSelector
// per spec (paper helper EnforcePartSelectors). A selector enforced
// directly on top of its own DynamicScan keeps only predicate levels it can
// evaluate without external rows — dynamic levels would need the scan's own
// output, inverting the producer/consumer order.
func enforcePartSelectors(specs []*PartSelectorSpec, node plan.Node) plan.Node {
	out := node
	for i := len(specs) - 1; i >= 0; i-- {
		spec := specs[i]
		preds := spec.PartPreds
		if ds, ok := node.(*plan.DynamicScan); ok && ds.PartScanID == spec.PartScanID {
			preds = make([]expr.Expr, len(spec.PartPreds))
			for lvl, p := range spec.PartPreds {
				preds[lvl] = expr.StaticConjuncts(p, spec.PartKeys[lvl])
			}
		}
		out = plan.NewPartitionSelector(spec.Table, spec.PartScanID, preds, out)
	}
	return out
}

// rebuild reproduces a node with new children. Nodes are treated as
// immutable: a fresh node is built whenever any child changed.
func rebuild(n plan.Node, newChildren []plan.Node) plan.Node {
	old := n.Children()
	same := len(old) == len(newChildren)
	if same {
		for i := range old {
			if old[i] != newChildren[i] {
				same = false
				break
			}
		}
	}
	if same {
		return n
	}
	switch x := n.(type) {
	case *plan.Filter:
		return plan.NewFilter(x.Pred, newChildren[0])
	case *plan.Project:
		return plan.NewProject(x.Cols, newChildren[0])
	case *plan.HashJoin:
		return plan.NewHashJoin(x.Type, x.BuildKeys, x.ProbeKeys, x.Residual, newChildren[0], newChildren[1], x.Cond)
	case *plan.HashAgg:
		return plan.NewStagedHashAgg(x.Stage, x.Groups, x.Aggs, newChildren[0])
	case *plan.Sequence:
		return plan.NewSequence(newChildren...)
	case *plan.Append:
		out := plan.NewFilteredAppend(x.ParamID, newChildren...)
		return out
	case *plan.Motion:
		return plan.NewMotion(x.Kind, x.HashKeys, newChildren[0])
	case *plan.Update:
		return plan.NewUpdate(x.Table, x.Rel, x.Sets, newChildren[0])
	case *plan.PartitionSelector:
		return plan.NewPartitionSelector(x.Table, x.PartScanID, x.Preds, newChildren[0])
	default:
		panic(fmt.Sprintf("core: cannot rebuild %T with new children", n))
	}
}

// Validate checks the placement invariant the executor relies on: every
// DynamicScan has a PartitionSelector with its partScanId somewhere in the
// tree, positioned so the selector completes before the scan opens. It
// returns an error describing the first violation.
func Validate(root plan.Node) error {
	var scanIDs []int
	plan.Walk(root, func(n plan.Node) bool {
		if ds, ok := n.(*plan.DynamicScan); ok {
			scanIDs = append(scanIDs, ds.PartScanID)
		}
		return true
	})
	for _, id := range scanIDs {
		if !hasSelector(root, id) {
			return fmt.Errorf("core: DynamicScan(%d) has no PartitionSelector", id)
		}
	}
	return nil
}

func hasSelector(root plan.Node, id int) bool {
	found := false
	plan.Walk(root, func(n plan.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*plan.PartitionSelector); ok && sel.PartScanID == id {
			found = true
			return false
		}
		return true
	})
	return found
}
