package exec

import (
	"partopt/internal/expr"
	"partopt/internal/types"
)

// deriveIndexSet turns the scan predicate into the indexed column's
// interval set.
func deriveIndexSet(ctx *Ctx, rel, colOrd int, pred expr.Expr) types.IntervalSet {
	key := expr.ColID{Rel: rel, Ord: colOrd}
	return expr.DeriveIntervals(pred, key, expr.ConstEval(ctx.Params.Vals))
}
