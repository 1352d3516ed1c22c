package exec

import (
	"partopt/internal/expr"
	"partopt/internal/plan"
)

// Column liveness for the hash join's output.
//
// An inner or outer hash join emits build ++ probe columns, gathered into
// lanes batch by batch (hashJoinOp.emit). The operators above usually read
// a few of them: a star join's aggregate reads the fact's measure and
// perhaps one dimension attribute. deriveJoinMasks walks the plan once per
// execution, top down and across Motions, and records for every such join
// the output positions some ancestor reads. emit gathers only those; a dead
// position carries a zero vec.View, which reads as NULL, so every width —
// Batch.rows, the Motion sender, every layout above — stays what it was.
//
// Ancestors read columns by name or by position. By name: Filter
// predicates, Project expressions, the group keys and arguments of a
// Single or Partial aggregate, Motion hash keys, the keys and residuals of
// ancestor joins, and PartitionSelector predicates. By position, which
// reads every column: Sort, a Final aggregate (it reads a Partial's state
// row), Update and Delete (target columns and RowID), the partition-wise
// join and the root's result.

// joinMasks holds, for each inner or outer HashJoin, which output positions
// some ancestor reads. A join the map does not hold, and every join of a
// nil map, emits all its columns.
type joinMasks map[*plan.HashJoin][]bool

// deriveJoinMasks computes the masks of every inner and outer HashJoin in
// the plan. A plan without one gets nil, without allocating.
func deriveJoinMasks(root plan.Node) joinMasks {
	if !hasEmittingJoin(root) {
		return nil
	}
	m := joinMasks{}
	m.walk(root, nil)
	return m
}

// hasEmittingJoin reports whether the plan holds an inner or outer
// HashJoin. Single-child nodes are descended through their fields, since
// Children allocates its slice.
func hasEmittingJoin(n plan.Node) bool {
	for {
		switch x := n.(type) {
		case *plan.HashJoin:
			if x.Type != plan.SemiJoin || hasEmittingJoin(x.Build) {
				return true
			}
			n = x.Probe
		case *plan.Filter:
			n = x.Child
		case *plan.Project:
			n = x.Child
		case *plan.HashAgg:
			n = x.Child
		case *plan.Motion:
			n = x.Child
		case *plan.Sort:
			n = x.Child
		case *plan.Limit:
			n = x.Child
		case *plan.Update:
			n = x.Child
		case *plan.Delete:
			n = x.Child
		case *plan.PartitionSelector:
			if x.Child == nil {
				return false
			}
			n = x.Child
		case *plan.Sequence:
			return anyEmittingJoin(x.Kids)
		case *plan.Append:
			return anyEmittingJoin(x.Kids)
		case *plan.PartitionWiseJoin, *plan.Scan, *plan.DynamicScan, *plan.IndexScan, *plan.DynamicIndexScan:
			return false
		default:
			return anyEmittingJoin(n.Children())
		}
	}
}

func anyEmittingJoin(kids []plan.Node) bool {
	for _, k := range kids {
		if hasEmittingJoin(k) {
			return true
		}
	}
	return false
}

// walk visits n, whose output positions need marks as read (nil: every
// position), and derives what each child's output must carry.
func (m joinMasks) walk(n plan.Node, need []bool) {
	switch x := n.(type) {
	case *plan.Scan, *plan.DynamicScan, *plan.IndexScan, *plan.DynamicIndexScan:
	case *plan.Filter:
		m.walk(x.Child, widen(need, x.Child.Layout(), x.Pred))
	case *plan.Motion:
		m.walk(x.Child, widen(need, x.Child.Layout(), x.HashKeys...))
	case *plan.Limit:
		m.walk(x.Child, need)
	case *plan.PartitionSelector:
		if x.Child != nil {
			m.walk(x.Child, widen(need, x.Child.Layout(), x.Preds...))
		}
	case *plan.Sequence:
		last := len(x.Kids) - 1
		for _, k := range x.Kids[:last] {
			m.walk(k, nil)
		}
		m.walk(x.Kids[last], need)
	case *plan.Append:
		for _, k := range x.Kids {
			m.walk(k, need)
		}
	case *plan.Project:
		l := x.Child.Layout()
		read := make([]bool, l.Width())
		for _, c := range x.Cols {
			markCols(read, l, c.E)
		}
		m.walk(x.Child, read)
	case *plan.HashAgg:
		if x.Stage == plan.AggFinal {
			m.walk(x.Child, nil)
			return
		}
		l := x.Child.Layout()
		read := make([]bool, l.Width())
		for _, g := range x.Groups {
			markCols(read, l, g.E)
		}
		for _, a := range x.Aggs {
			markCols(read, l, a.Arg)
		}
		m.walk(x.Child, read)
	case *plan.HashJoin:
		m.walkJoin(x, need)
	default:
		for _, c := range n.Children() {
			m.walk(c, nil)
		}
	}
}

// walkJoin records an inner or outer join's mask and derives its sides'
// needs: the output positions of each side, plus its keys and the
// residual's columns. A semi join emits the probe row itself, so what is
// read of its output is read of its probe side; it gathers nothing and
// has no mask.
func (m joinMasks) walkJoin(j *plan.HashJoin, need []bool) {
	bl, pl := j.Build.Layout(), j.Probe.Layout()
	var bneed, pneed []bool
	if j.Type == plan.SemiJoin {
		bneed, pneed = make([]bool, bl.Width()), widen(need, pl)
	} else if need != nil {
		m[j] = need
		bw := bl.Width()
		bneed, pneed = widen(need[:bw], bl), widen(need[bw:], pl)
	}
	for _, k := range j.BuildKeys {
		markCols(bneed, bl, k)
	}
	for _, k := range j.ProbeKeys {
		markCols(pneed, pl, k)
	}
	markCols(bneed, bl, j.Residual)
	markCols(pneed, pl, j.Residual)
	m.walk(j.Build, bneed)
	m.walk(j.Probe, pneed)
}

// widen returns a fresh copy of need over layout l's width with every
// column es reference marked; nil (every position) stays nil.
func widen(need []bool, l expr.Layout, es ...expr.Expr) []bool {
	if need == nil {
		return nil
	}
	out := make([]bool, l.Width())
	copy(out, need)
	for _, e := range es {
		markCols(out, l, e)
	}
	return out
}

// markCols marks the position in l of every column e references. A nil
// set already holds every position; columns l does not hold are ignored.
func markCols(set []bool, l expr.Layout, e expr.Expr) {
	if set == nil || e == nil {
		return
	}
	expr.Walk(e, func(x expr.Expr) bool {
		if c, ok := x.(*expr.Col); ok {
			if p, ok := l[c.ID]; ok && p >= 0 && p < len(set) {
				set[p] = true
			}
		}
		return true
	})
}
