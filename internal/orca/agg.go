package orca

import (
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/plan"
)

// implementGroupBy produces the aggregation alternatives of a GroupBy. An
// aggregate's input usually dwarfs its output, and a Motion is the most
// expensive thing a row can meet, so the question is on which side of the
// Motion the folding happens:
//
//   - single stage: the child already delivers every row of a group to one
//     segment (hashed on — a subset of — the group columns, natively or
//     through a Redistribute the Hashed request enforces) or to every
//     segment (replicated), so one HashAgg finishes the job where the rows
//     are;
//   - partial → Gather → final: each segment folds its own rows into group
//     states, only the states cross the Gather, and the coordinator
//     combines them. Offered for the Singleton request only (the Final
//     stage delivers on the coordinator);
//   - partial → Redistribute(group columns) → final: the same split with the
//     combine step spread over the segments, for group counts too large to
//     funnel through one process.
//
// A scalar aggregate has no group columns to hash on, so it always splits
// around the Gather — unless its child is replicated, when one segment
// aggregates its full copy alone.
func (m *memo) implementGroupBy(le *lexpr, op *logical.GroupBy, req request) []*result {
	child := le.children[0]
	cols, plainKeys := groupCols(op)
	toCoord := req.dist.Kind == SingletonDist

	var out []*result
	single := func(sub *result) {
		if !sub.valid || !sub.delivered.Satisfies(req.dist) {
			return
		}
		node := plan.NewHashAgg(op.Groups, op.Aggs, sub.node)
		cost := sub.cost + sub.rows*costAggRow
		if mot, ok := sub.node.(*plan.Motion); ok && mot.Kind == plan.RedistributeMotion {
			cost += m.sliceStart() // the Redistribute exists for this aggregate alone
		}
		rows := m.groupCount(op, sub.rows)
		plan.SetEstimates(node, rows, cost)
		out = append(out, &result{valid: true, cost: cost, rows: rows, delivered: sub.delivered, node: node})
	}

	if !toCoord && plainKeys && len(cols) > 0 {
		single(m.optimize(child, request{dist: HashedOn(cols...), specs: req.specs}))
	}
	sub := m.optimize(child, request{dist: AnySpec(), specs: req.specs})
	if !sub.valid {
		return out
	}
	if sub.delivered.Kind == ReplicatedDist || (plainKeys && hashedWithin(sub.delivered, cols)) {
		// Every segment sees whole groups already; a Partial stage would
		// count a replicated child once per segment.
		if !toCoord {
			single(sub)
		}
		return out
	}

	groups := m.groupCount(op, sub.rows)
	segs := float64(m.o.Segments)
	partRows := groups * segs // every segment may meet every group
	if partRows > sub.rows {
		partRows = sub.rows
	}
	part := plan.NewStagedHashAgg(plan.AggPartial, op.Groups, op.Aggs, sub.node)
	cost := sub.cost + sub.rows*costAggRow
	plan.SetEstimates(part, partRows, cost)
	if toCoord {
		// The coordinator is one process: what it folds is not spread over
		// the segments, so a row costs it Segments times a segment's row.
		moved := m.o.gather(&result{cost: cost, rows: partRows, delivered: sub.delivered, node: part})
		node := plan.NewStagedHashAgg(plan.AggFinal, op.Groups, op.Aggs, moved.node)
		cost = moved.cost + partRows*costAggRow*segs
		plan.SetEstimates(node, groups, cost)
		return append(out, &result{valid: true, cost: cost, rows: groups, delivered: Singleton(), node: node})
	}
	if len(op.Groups) == 0 {
		return out
	}
	outs := make([]expr.ColID, len(op.Groups))
	keys := make([]expr.Expr, len(op.Groups))
	for i, g := range op.Groups {
		outs[i] = g.Out
		keys[i] = expr.NewCol(g.Out, g.Name)
	}
	if delivered := HashedOn(outs...); delivered.Satisfies(req.dist) {
		motion := plan.NewMotion(plan.RedistributeMotion, keys, part)
		cost += partRows*costRedistRow + m.sliceStart()
		plan.SetEstimates(motion, partRows, cost)
		node := plan.NewStagedHashAgg(plan.AggFinal, op.Groups, op.Aggs, motion)
		cost += partRows * costAggRow
		plan.SetEstimates(node, groups, cost)
		out = append(out, &result{valid: true, cost: cost, rows: groups, delivered: delivered, node: node})
	}
	return out
}

// groupCols returns the group keys as column identities; ok is false when
// any key is a computed expression.
func groupCols(op *logical.GroupBy) (cols []expr.ColID, ok bool) {
	for _, g := range op.Groups {
		c, isCol := g.E.(*expr.Col)
		if !isCol {
			return nil, false
		}
		cols = append(cols, c.ID)
	}
	return cols, true
}

// hashedWithin reports whether d hashes on a non-empty subset of cols: rows
// that agree on all of cols then agree on d's columns too, so every group
// lives on one segment.
func hashedWithin(d DistSpec, cols []expr.ColID) bool {
	if d.Kind != HashedDist || len(d.Cols) == 0 {
		return false
	}
	for _, dc := range d.Cols {
		found := false
		for _, c := range cols {
			if c == dc {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// groupCount estimates how many groups an aggregate over rows input rows
// produces: the product of the group columns' distinct-value counts, capped
// by the input. A key without statistics — or a computed one — falls back
// to a third of the input; a scalar aggregate is one group.
func (m *memo) groupCount(op *logical.GroupBy, rows float64) float64 {
	rows = atLeast(rows, 1)
	groups := 1.0
	for _, g := range op.Groups {
		c, ok := g.E.(*expr.Col)
		if !ok {
			return atLeast(rows/3, 1)
		}
		cs := m.colStats(c.ID)
		if cs == nil || cs.NDV <= 0 {
			return atLeast(rows/3, 1)
		}
		groups *= float64(cs.NDV)
		if groups >= rows {
			return rows
		}
	}
	return groups
}

// sliceStart is the fixed cost of a slice that exists only because the
// aggregate put a Motion below the root Gather: one more goroutine per
// segment and a channel per segment pair.
func (m *memo) sliceStart() float64 { return costSliceStart * float64(m.o.Segments) }
