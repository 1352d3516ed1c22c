package expr

import (
	"partopt/internal/types"
)

// Predicate analysis for partition selection.
//
// FindPredOnKey is the helper of the paper's Algorithms 3 and 4: given a
// scalar predicate, extract the portion that constrains a partitioning key
// so it can be attached to a PartSelectorSpec. DeriveIntervals turns such a
// predicate into an IntervalSet over the key's domain — the engine of the
// partition-selection function f*T (paper §2.1): any tuple satisfying the
// predicate has its key inside the derived set, so partitions whose
// constraints don't overlap the set can be skipped.

// ConstrainsKey reports whether e is a single conjunct usable for partition
// selection on key: a comparison or IN-list anchored at the key column with
// a key-free other side, or a disjunction of such conjuncts.
func ConstrainsKey(e Expr, key ColID) bool {
	switch x := e.(type) {
	case *Cmp:
		if x.Op == NE {
			return false // inequality cannot prune intervals
		}
		if c, ok := x.L.(*Col); ok && c.ID == key && !UsesCol(x.R, key) {
			return true
		}
		if c, ok := x.R.(*Col); ok && c.ID == key && !UsesCol(x.L, key) {
			return true
		}
		return false
	case *InList:
		if c, ok := x.Arg.(*Col); ok && c.ID == key {
			for _, item := range x.List {
				if UsesCol(item, key) {
					return false
				}
			}
			return true
		}
		return false
	case *Or:
		for _, arg := range x.Args {
			ok := false
			for _, conj := range Conjuncts(arg) {
				if ConstrainsKey(conj, key) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return len(x.Args) > 0
	}
	return false
}

// FindPredOnKey extracts from pred the conjuncts that constrain key,
// returning their conjunction, or nil when pred places no usable
// restriction on the key.
func FindPredOnKey(key ColID, pred Expr) Expr {
	var kept []Expr
	for _, c := range Conjuncts(pred) {
		if ConstrainsKey(c, key) {
			kept = append(kept, c)
		}
	}
	return Conj(kept...)
}

// StaticConjuncts keeps the conjuncts of pred whose only column is key —
// what a selector directly above its own scan can evaluate without rows
// from elsewhere. Parameters are allowed: they bind at Open.
func StaticConjuncts(pred Expr, key ColID) Expr {
	var kept []Expr
	for _, c := range Conjuncts(pred) {
		static := true
		for id := range ColsUsed(c) {
			static = static && id == key
		}
		if static {
			kept = append(kept, c)
		}
	}
	return Conj(kept...)
}

// SplitJoinPred separates the equi-join conjuncts of pred, the equalities
// with one side over leftRels' columns only and the other over rightRels'
// only, from the rest. The i-th equi conjunct becomes leftKeys[i] =
// rightKeys[i], oriented left to right; the other conjuncts are returned
// conjoined as residual.
func SplitJoinPred(pred Expr, leftRels, rightRels map[int]bool) (leftKeys, rightKeys []Expr, residual Expr) {
	var rest []Expr
	for _, c := range Conjuncts(pred) {
		cmp, ok := c.(*Cmp)
		if !ok || cmp.Op != EQ {
			rest = append(rest, c)
			continue
		}
		switch l, r := joinSide(cmp.L, leftRels, rightRels), joinSide(cmp.R, leftRels, rightRels); {
		case l == 0 && r == 1:
			leftKeys = append(leftKeys, cmp.L)
			rightKeys = append(rightKeys, cmp.R)
		case l == 1 && r == 0:
			leftKeys = append(leftKeys, cmp.R)
			rightKeys = append(rightKeys, cmp.L)
		default:
			rest = append(rest, c)
		}
	}
	return leftKeys, rightKeys, Conj(rest...)
}

// joinSide classifies e by the join side whose columns it reads: 0 only
// leftRels', 1 only rightRels', -1 both or neither.
func joinSide(e Expr, leftRels, rightRels map[int]bool) int {
	usedLeft, usedRight := false, false
	for id := range ColsUsed(e) {
		switch {
		case leftRels[id.Rel]:
			usedLeft = true
		case rightRels[id.Rel]:
			usedRight = true
		}
	}
	switch {
	case usedLeft && !usedRight:
		return 0
	case usedRight && !usedLeft:
		return 1
	}
	return -1
}

// FindPredsOnKeys is the multi-level variant (paper §2.4): it returns one
// (possibly nil) predicate per partitioning level. The second result is
// false when no level is constrained at all.
func FindPredsOnKeys(keys []ColID, pred Expr) ([]Expr, bool) {
	out := make([]Expr, len(keys))
	any := false
	for i, k := range keys {
		out[i] = FindPredOnKey(k, pred)
		if out[i] != nil {
			any = true
		}
	}
	return out, any
}

// OperandEval resolves the non-key side of a selection predicate to a
// value. It reports ok=false when the operand cannot be evaluated in the
// current context (e.g. it references columns that are not bound yet).
type OperandEval func(e Expr) (v types.Datum, ok bool)

// ConstEval returns an OperandEval for static selection: only expressions
// free of column references evaluate, using the given parameter values.
func ConstEval(params []types.Datum) OperandEval {
	return func(e Expr) (types.Datum, bool) {
		v, ok, err := EvalConst(e, params)
		if err != nil || !ok {
			return types.Null, false
		}
		return v, true
	}
}

// EnvEval returns an OperandEval for dynamic selection: operands evaluate
// against the given environment (the current outer row), and fail when they
// reference columns outside the environment's layout.
func EnvEval(env *Env) OperandEval {
	return func(e Expr) (types.Datum, bool) {
		for id := range ColsUsed(e) {
			if _, bound := env.Layout[id]; !bound {
				return types.Null, false
			}
		}
		v, err := Eval(e, env)
		if err != nil {
			return types.Null, false
		}
		return v, true
	}
}

// DeriveIntervals computes an over-approximation of the set of key values
// for which pred can be true. The result is sound for pruning: a partition
// whose constraint does not overlap the returned set cannot contain a
// satisfying tuple. Conservative fallback is the whole domain.
//
// A nil pred yields the whole domain. Comparisons whose operand evaluates
// to NULL yield the empty set (NULL comparisons are never true).
func DeriveIntervals(pred Expr, key ColID, eval OperandEval) types.IntervalSet {
	if pred == nil {
		return types.WholeDomain()
	}
	switch x := pred.(type) {
	case *And:
		out := types.WholeDomain()
		for _, a := range x.Args {
			out = out.Intersect(DeriveIntervals(a, key, eval))
		}
		return out
	case *Or:
		var out types.IntervalSet
		for _, a := range x.Args {
			out = out.Union(DeriveIntervals(a, key, eval))
		}
		return out
	case *Cmp:
		return deriveFromCmp(x, key, eval)
	case *InList:
		return deriveFromInList(x, key, eval)
	}
	return types.WholeDomain()
}

func deriveFromCmp(c *Cmp, key ColID, eval OperandEval) types.IntervalSet {
	op := c.Op
	var operand Expr
	if col, ok := c.L.(*Col); ok && col.ID == key && !UsesCol(c.R, key) {
		operand = c.R
	} else if col, ok := c.R.(*Col); ok && col.ID == key && !UsesCol(c.L, key) {
		operand = c.L
		op = op.Flip()
	} else {
		return types.WholeDomain()
	}
	v, ok := eval(operand)
	if !ok {
		return types.WholeDomain()
	}
	if v.IsNull() {
		return types.SetOf() // key <op> NULL is never true
	}
	switch op {
	case EQ:
		return types.SetOf(types.PointInterval(v))
	case LT:
		return types.SetOf(types.Below(v, false))
	case LE:
		return types.SetOf(types.Below(v, true))
	case GT:
		return types.SetOf(types.Above(v, false))
	case GE:
		return types.SetOf(types.Above(v, true))
	default: // NE — cannot express complement of a point; no pruning
		return types.WholeDomain()
	}
}

func deriveFromInList(in *InList, key ColID, eval OperandEval) types.IntervalSet {
	col, ok := in.Arg.(*Col)
	if !ok || col.ID != key {
		return types.WholeDomain()
	}
	var out types.IntervalSet
	for _, item := range in.List {
		if UsesCol(item, key) {
			return types.WholeDomain()
		}
		v, ok := eval(item)
		if !ok {
			return types.WholeDomain()
		}
		if v.IsNull() {
			continue // NULL list item matches nothing
		}
		out.Ivs = append(out.Ivs, types.PointInterval(v))
	}
	return out
}

// KeyEqualitySource returns, for dynamic partition elimination, the
// expression whose per-row value equals the partitioning key under pred:
// the other side of an equality conjunct anchored at key. ok is false when
// pred contains no such equality. This identifies predicates like
// R.A = T.pk (paper Fig. 5(d)) where scanning R drives selection on T.
func KeyEqualitySource(key ColID, pred Expr) (Expr, bool) {
	for _, c := range Conjuncts(pred) {
		cmp, ok := c.(*Cmp)
		if !ok || cmp.Op != EQ {
			continue
		}
		if col, ok := cmp.L.(*Col); ok && col.ID == key && !UsesCol(cmp.R, key) {
			return cmp.R, true
		}
		if col, ok := cmp.R.(*Col); ok && col.ID == key && !UsesCol(cmp.L, key) {
			return cmp.L, true
		}
	}
	return nil, false
}
