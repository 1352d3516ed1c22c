package orca

import (
	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// Cost model constants, in abstract per-row units. Absolute values are
// meaningless; the ratios are what drive plan choice: moving a row costs
// more than scanning it, broadcasting costs a per-segment multiple, and
// partition selection is nearly free relative to the scans it avoids.
const (
	costScanRow        = 1.0
	costFilterRow      = 0.1
	costProjectRow     = 0.05
	costAggRow         = 1.0
	costBuildRow       = 1.2
	costProbeRow       = 0.8
	costJoinOutRow     = 0.1
	costRedistRow      = 2.0
	costBcastRow       = 2.0 // multiplied by segment count
	costSelectorBase   = 1.0
	costSelectorPerRow = 0.05
	costSliceStart     = 1000.0 // per segment; see sliceStart (agg.go)
)

// tableRows returns the estimated base cardinality of a table.
func (o *Optimizer) tableRows(t *catalog.Table) float64 {
	if t.Stats != nil && t.Stats.RowCount > 0 {
		return float64(t.Stats.RowCount)
	}
	return 1000
}

// nativeDist is the distribution a base-table scan delivers.
func (o *Optimizer) nativeDist(g *logical.Get) DistSpec {
	if g.Table.Dist.Kind == catalog.DistReplicated {
		return Replicated()
	}
	cols := make([]expr.ColID, len(g.Table.Dist.KeyOrds))
	for i, ord := range g.Table.Dist.KeyOrds {
		cols[i] = expr.ColID{Rel: g.Rel, Ord: ord}
	}
	return HashedOn(cols...)
}

// selectivity estimates the row fraction a predicate keeps. With collected
// statistics (the paper\'s future work: "better modeling of costs") it uses
// NDV for equality and min/max linear interpolation for ranges; without
// statistics it falls back to classic per-conjunct constants.
func (m *memo) selectivity(pred expr.Expr) float64 {
	if pred == nil {
		return 1
	}
	sel := 1.0
	for _, c := range expr.Conjuncts(pred) {
		sel *= m.conjunctSelectivity(c)
	}
	if sel < 0.001 {
		sel = 0.001
	}
	return sel
}

func (m *memo) conjunctSelectivity(c expr.Expr) float64 {
	switch x := c.(type) {
	case *expr.Cmp:
		return m.cmpSelectivity(x)
	case *expr.InList:
		if col, ok := x.Arg.(*expr.Col); ok {
			if cs := m.colStats(col.ID); cs != nil && cs.NDV > 0 {
				return clamp01(float64(len(x.List)) / float64(cs.NDV))
			}
		}
		return 0.2
	case *expr.Or:
		// Disjunction: union bound over the branches, capped at 1.
		f := 0.0
		for _, a := range x.Args {
			f += m.conjunctSelectivity(a)
		}
		return clamp01(f)
	default:
		return 0.5
	}
}

func (m *memo) cmpSelectivity(x *expr.Cmp) float64 {
	col, operand, flipped := splitColCmp(x)
	if col == nil {
		if x.Op == expr.EQ {
			return 0.1
		}
		return 0.33
	}
	cs := m.colStats(col.ID)
	if cs == nil {
		if x.Op == expr.EQ {
			return 0.1
		}
		return 0.33
	}
	switch x.Op {
	case expr.EQ:
		if cs.NDV > 0 {
			return clamp01(1 / float64(cs.NDV))
		}
		return 0.1
	case expr.NE:
		if cs.NDV > 0 {
			return clamp01(1 - 1/float64(cs.NDV))
		}
		return 0.9
	default:
		// Range: interpolate the constant into [min, max].
		v, ok, err := expr.EvalConst(operand, nil)
		if err != nil || !ok || v.IsNull() || cs.Min.IsNull() || cs.Max.IsNull() {
			return 0.33
		}
		if !numericKind(v) || !numericKind(cs.Min) || !numericKind(cs.Max) {
			return 0.33
		}
		lo, hi, val := cs.Min.Float(), cs.Max.Float(), v.Float()
		if hi <= lo {
			return 0.33
		}
		below := clamp01((val - lo) / (hi - lo))
		op := x.Op
		if flipped {
			op = op.Flip()
		}
		switch op {
		case expr.LT, expr.LE:
			return atLeast(below, 0.001)
		case expr.GT, expr.GE:
			return atLeast(1-below, 0.001)
		}
		return 0.33
	}
}

// splitColCmp returns the column side of a comparison, the other operand,
// and whether the column was on the right-hand side. col is nil when the
// comparison is not col-vs-expression.
func splitColCmp(x *expr.Cmp) (*expr.Col, expr.Expr, bool) {
	if c, ok := x.L.(*expr.Col); ok {
		return c, x.R, false
	}
	if c, ok := x.R.(*expr.Col); ok {
		return c, x.L, true
	}
	return nil, nil, false
}

func numericKind(d types.Datum) bool {
	switch d.Kind() {
	case types.KindInt, types.KindFloat, types.KindDate:
		return true
	}
	return false
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func atLeast(f, lo float64) float64 {
	if f < lo {
		return lo
	}
	return f
}

// staticOnlyPreds strips predicate levels down to the conjuncts a selector
// sitting directly above its own DynamicScan can evaluate: those whose only
// column is the level's partitioning key.
func staticOnlyPreds(spec *SpecReq) []expr.Expr {
	out := make([]expr.Expr, len(spec.Preds))
	for lvl, p := range spec.Preds {
		out[lvl] = expr.StaticConjuncts(p, spec.Keys[lvl])
	}
	return out
}

// hubSpec reports whether a selector spec is "hub"-shaped: it carries
// partition predicates, but none of them survive staticOnlyPreds — every
// conjunct references columns beyond the level's own partitioning key,
// i.e. the pruning is entirely join-driven. A hub selector's *static*
// selection is the whole table, so caching it would pin full leaf-OID
// expansions of the largest fact tables in the OID cache; the executor
// skips the cache for selectors flagged this way.
func hubSpec(spec *SpecReq) bool {
	any := false
	for _, p := range spec.Preds {
		if p != nil {
			any = true
			break
		}
	}
	if !any {
		return false
	}
	for _, p := range staticOnlyPreds(spec) {
		if p != nil {
			return false
		}
	}
	return true
}

// staticFraction estimates the fraction of leaf partitions a static
// selector retains by running f*T over the predicate-derived intervals.
// Parameter-bearing predicates cannot be evaluated at plan time; they get
// an optimistic prepared-statement default.
func (o *Optimizer) staticFraction(spec *SpecReq, preds []expr.Expr) float64 {
	desc := spec.Table.Part
	total := desc.NumLeaves()
	if total == 0 {
		return 1
	}
	hasParam := false
	sets := make([]types.IntervalSet, len(preds))
	eval := expr.ConstEval(nil)
	for lvl, p := range preds {
		if p == nil {
			sets[lvl] = types.WholeDomain()
			continue
		}
		if expr.HasParam(p) {
			hasParam = true
		}
		sets[lvl] = expr.DeriveIntervals(p, spec.Keys[lvl], eval)
	}
	fraction := float64(len(desc.Select(sets))) / float64(total)
	if hasParam && fraction > 0.1 {
		fraction = 0.1
	}
	return fraction
}

// joinOutRows estimates join output cardinality: the foreign-key heuristic
// for inner joins, a moderate pass-through rate for semi joins, and the
// inner estimate floored by the preserved side for outer joins — every
// preserved row appears at least once (matched or null-extended), so no
// filter or key skew can push an outer join's output below that side's
// cardinality. The floor keeps costing honest when the inner estimate
// shrinks; plan-shape soundness (no broadcast of a preserved side, no
// elimination against it) is enforced structurally in implementJoin.
func joinOutRows(t plan.JoinType, buildRows, probeRows float64) float64 {
	if t == plan.SemiJoin {
		rows := probeRows * 0.5
		if rows < 1 {
			rows = 1
		}
		return rows
	}
	inner := probeRows
	if buildRows > probeRows {
		inner = buildRows
	}
	switch {
	case t.BuildPreserved():
		return atLeast(inner, buildRows)
	case t.ProbePreserved():
		return atLeast(inner, probeRows)
	}
	return inner
}

// costPWDiscount is the per-row discount of a partition-wise join relative
// to a monolithic hash join: per-pair hash tables are small and
// cache-resident, and no data moves. See the ablation tests.
const costPWDiscount = 0.7

// costIndexRow is the per-fetched-row cost of an index lookup — cheaper
// than a sequential scan row because only qualifying rows are touched.
const costIndexRow = 0.3
