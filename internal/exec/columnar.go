package exec

import (
	"errors"
	"math"
	"slices"
	"strings"

	"partopt/internal/expr"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// Columnar execution: batches flowing out of heap scans carry zero-copy
// column views (Batch.Cols/Sel), the hash join emits lanes of its own, and
// the hot kernels — filter predicates, join and Redistribute key hashing,
// the join's key check, the hash aggregate's group resolution and folds —
// run as tight typed loops over those vectors instead of per-datum
// expr.Eval dispatch. Key hashing, the key check and aggregation have no
// row path: keyLanes copies the keys (and aggregate inputs) of a batch
// without lanes (Motion receivers, sort, aggregate output, index reads,
// spill reloads) into lanes of its own. A filter over such a batch runs
// its row loop, which is also the reference the filter kernels are tested
// against.
//
// Two rules keep this invisible to everything else:
//
//  1. Rows are always reachable: a batch either carries them or carries
//     lanes they are materialized from on demand (Batch.rows, counted per
//     batch), and Batch.Len is explicit. Row-only operators, the stats
//     layer (EXPLAIN ANALYZE actuals count Len) and the spill paths see
//     the same rows whichever representation the producer chose.
//  2. Every kernel agrees with the boxed datums — the same types.Compare
//     ordering (including NaN and cross-kind numeric rules) and the same
//     types.HashDatum mixing. A filter kernel that cannot type a batch
//     refuses it (errVecFallback) and the row loop runs instead; refusal
//     is always safe because of rule 1.

// errVecFallback signals that a compiled vector kernel cannot handle this
// particular batch (mixed lane, incomparable kinds); the caller runs the
// row-at-a-time path for the batch instead. Never visible outside exec.
var errVecFallback = errors.New("exec: vectorized kernel fallback")

// ---------------------------------------------------------------- predicate compiler

// vpNode is one node of a compiled vectorized predicate in negation normal
// form. sel appends to out, in order, the slots of cand where the node is
// TRUE and returns the extended slice. Slots are batch positions
// 0..b.Len()-1; a nil cand offers every slot, so a caller never passes an
// empty, non-nil cand. A filter keeps only TRUE rows, and with NOT pushed
// down to the leaves a NULL is dropped exactly like a FALSE, so no node
// tracks NULLs. Callers pass out empty; it may share storage with cand (a
// conjunction narrows in place), which is safe because a node reads cand[j]
// before it writes out[j] or any earlier slot. sel reports errVecFallback
// when the batch's lanes don't support a typed loop.
type vpNode interface {
	sel(b *Batch, cand, out []int32) ([]int32, error)
}

// operand is a compile-time resolved comparison operand.
type operand struct {
	pos   int // column position in the batch, or -1
	val   types.Datum
	isCol bool
}

func resolveOperand(e expr.Expr, layout expr.Layout, params []types.Datum) (operand, bool) {
	switch x := e.(type) {
	case *expr.Col:
		pos, ok := layout[x.ID]
		if !ok || pos < 0 {
			return operand{}, false
		}
		return operand{pos: pos, isCol: true}, true
	case *expr.Const:
		return operand{pos: -1, val: x.Val}, true
	case *expr.Param:
		if x.Idx < 0 || x.Idx >= len(params) {
			return operand{}, false
		}
		return operand{pos: -1, val: params[x.Idx]}, true
	}
	return operand{}, false
}

// compileVP compiles a predicate (negated when neg is set) into typed
// vector loops in negation normal form. It returns nil when the shape is
// not supported (arithmetic, nested subexpressions beyond Col/Const/Param
// operands, unresolvable columns) — the caller then keeps the row path.
// Params are bound at compile time (per Open), exactly like the row path
// reads them per evaluation.
//
// NOT is pushed to the leaves: a negated comparison takes the complement
// operator (c op k fails exactly where c op.Negate() k holds, since both
// read the one types.Compare result), AND and OR swap (De Morgan holds in
// three-valued logic), IS NULL toggles, IN becomes NOT IN and a bare bool
// column selects false. A leaf and its complement are NULL on the same
// rows, so the rewrite keeps exactly the rows the row path keeps.
func compileVP(e expr.Expr, layout expr.Layout, params []types.Datum, neg bool) vpNode {
	switch x := e.(type) {
	case *expr.Cmp:
		l, lok := resolveOperand(x.L, layout, params)
		r, rok := resolveOperand(x.R, layout, params)
		if !lok || !rok {
			return nil
		}
		op := x.Op
		if neg {
			op = op.Negate()
		}
		switch {
		case l.isCol && r.isCol:
			return &vpCmpCol{op: op, lpos: l.pos, rpos: r.pos}
		case l.isCol:
			return &vpCmpConst{op: op, pos: l.pos, val: r.val}
		case r.isCol:
			return &vpCmpConst{op: op.Flip(), pos: r.pos, val: l.val}
		default:
			return nil // const-const: leave to the row path
		}
	case *expr.And:
		return compileJunction(x.Args, !neg, layout, params, neg)
	case *expr.Or:
		return compileJunction(x.Args, neg, layout, params, neg)
	case *expr.Not:
		return compileVP(x.Arg, layout, params, !neg)
	case *expr.IsNull:
		col, ok := x.Arg.(*expr.Col)
		if !ok {
			return nil
		}
		pos, ok := layout[col.ID]
		if !ok || pos < 0 {
			return nil
		}
		return &vpIsNull{pos: pos, negate: x.Negate != neg}
	case *expr.InList:
		col, ok := x.Arg.(*expr.Col)
		if !ok {
			return nil
		}
		pos, ok := layout[col.ID]
		if !ok || pos < 0 {
			return nil
		}
		vals := make([]types.Datum, 0, len(x.List))
		hasNull := false
		for _, item := range x.List {
			op, iok := resolveOperand(item, layout, params)
			if !iok || op.isCol {
				return nil
			}
			if op.val.IsNull() {
				hasNull = true
				continue
			}
			vals = append(vals, op.val)
		}
		return &vpIn{pos: pos, vals: vals, hasNull: hasNull, not: neg}
	case *expr.Col:
		// Bare boolean column as predicate.
		pos, ok := layout[x.ID]
		if !ok || pos < 0 {
			return nil
		}
		return &vpBoolCol{pos: pos, want: !neg}
	}
	return nil
}

// compileJunction compiles args, each negated when neg is set, under a
// conjunction (and) or a disjunction — the caller has already swapped the
// two for a negated junction.
func compileJunction(args []expr.Expr, and bool, layout expr.Layout, params []types.Datum, neg bool) vpNode {
	kids := make([]vpNode, len(args))
	for i, a := range args {
		if kids[i] = compileVP(a, layout, params, neg); kids[i] == nil {
			return nil
		}
	}
	if and {
		return vpAnd(kids)
	}
	return &vpOr{kids: kids}
}

// opMatch translates a types.Compare result through a comparison operator —
// the same mapping expr.Eval's Cmp case applies.
func opMatch(op expr.CmpOp, c int) bool {
	switch op {
	case expr.EQ:
		return c == 0
	case expr.NE:
		return c != 0
	case expr.LT:
		return c < 0
	case expr.LE:
		return c <= 0
	case expr.GT:
		return c > 0
	case expr.GE:
		return c >= 0
	}
	return false
}

// batchView fetches the view for a column position, nil when out of range.
func batchView(b *Batch, pos int) *vec.View {
	if pos < 0 || pos >= len(b.Cols) {
		return nil
	}
	return &b.Cols[pos]
}

// selRow maps output slot k to its window row. It also maps a candidate
// index j to its slot, with cand in place of sel.
func selRow(sel []int32, k int) int {
	if sel == nil {
		return k
	}
	return int(sel[k])
}

// candLen is the number of slots cand offers out of a batch of n.
func candLen(cand []int32, n int) int {
	if cand == nil {
		return n
	}
	return len(cand)
}

// ---------------------------------------------------------------- cmp col/const

// vpCmpConst compares a column with a constant. The operator and the lane
// family (int, date and bool lanes as int64, floats, strings) are resolved
// once per batch, and one loop per operator compares the lane values
// without looking at NULLs; a NULL pass then drops the kept slots whose row
// is NULL, and runs only when the window has a NULL.
type vpCmpConst struct {
	op  expr.CmpOp
	pos int
	val types.Datum

	// scratch is made on the first batch that needs a buffer: compileVP
	// builds a node per filter Open, and most never need one.
	scratch *cmpScratch
}

// cmpScratch holds a vpCmpConst's reused buffers: the candidate form's
// row and slot lists under a Sel, and an int or date lane read as floats.
type cmpScratch struct {
	rows, slots []int32
	flts        []float64
}

func (c *vpCmpConst) buf() *cmpScratch {
	if c.scratch == nil {
		c.scratch = new(cmpScratch)
	}
	return c.scratch
}

func (c *vpCmpConst) sel(b *Batch, cand, out []int32) ([]int32, error) {
	v := batchView(b, c.pos)
	if v == nil || v.Mixed {
		return out, errVecFallback
	}
	if c.val.IsNull() || v.Kind == types.KindNull {
		return out, nil // a NULL comparand or a declared-NULL lane: every comparison is NULL
	}
	n, start := b.Len(), len(out)
	rows, slots := c.candidates(b, cand)
	ck := c.val.Kind()
	numeric := ck == types.KindInt || ck == types.KindDate || ck == types.KindFloat
	switch {
	case ck == v.Kind && (ck == types.KindInt || ck == types.KindDate || ck == types.KindBool):
		// int, date or bool against its own kind; a bool is 0 or 1 in Ints.
		var cv int64
		if ck == types.KindBool {
			cv = int64(b2i(c.val.Bool()))
		} else {
			cv = c.val.Int()
		}
		out = cmpLoop(c.op, v.Ints[v.Base:], cv, rows, slots, n, out)
	case (v.Kind == types.KindInt || v.Kind == types.KindDate) && numeric:
		// An int or date lane against another numeric kind compares as
		// float (types.Compare's cross-kind rule): read the window's
		// values as floats first.
		w := n
		for _, i := range b.Sel {
			w = max(w, int(i)+1)
		}
		s := c.buf()
		s.flts = s.flts[:0]
		for _, x := range v.Ints[v.Base : v.Base+w] {
			s.flts = append(s.flts, float64(x))
		}
		out = cmpFloats(c.op, s.flts, c.val.Float(), rows, slots, n, out)
	case v.Kind == types.KindFloat && numeric:
		out = cmpFloats(c.op, v.Flts[v.Base:], c.val.Float(), rows, slots, n, out)
	case v.Kind == types.KindString && ck == types.KindString:
		out = cmpLoop(c.op, v.Strs[v.Base:], c.val.Str(), rows, slots, n, out)
	default:
		return out, errVecFallback
	}
	return dropNulls(v, b.Sel, n, out, start), nil
}

// candidates returns the window row and the slot of each slot the
// comparison is offered, for cmpLoop's candidate form; both are nil for
// its dense form, when there is neither a cand nor a Sel.
func (c *vpCmpConst) candidates(b *Batch, cand []int32) (rows, slots []int32) {
	switch {
	case b.Sel == nil:
		return cand, cand
	case cand == nil:
		s := c.buf()
		s.slots = s.slots[:0]
		for k := range b.Len() {
			s.slots = append(s.slots, int32(k))
		}
		return b.Sel[:b.Len()], s.slots
	}
	s := c.buf()
	s.rows = s.rows[:0]
	for _, k := range cand {
		s.rows = append(s.rows, b.Sel[k])
	}
	return s.rows, cand
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cmpLoop appends to out the slots whose lane value x satisfies x op c,
// NULLs aside, in one loop per operator. The dense form (rows nil) reads
// lane[0:n], slot k being row k; the candidate form reads lane[rows[j]] for
// slot slots[j], which may share storage with out (it is read first). A
// loop stores every slot and moves past it only when it is kept, so it
// does not branch on the comparison; out grows by append's rule, not to
// each batch's size. GT and GE are written !(x <= c) and !(x < c): for
// ints and strings that is x > c and x >= c, and for floats it keeps a NaN
// x, which types.Compare sorts after every number (cmpFloats rewrites a
// NaN c).
func cmpLoop[T int64 | float64 | string](op expr.CmpOp, lane []T, c T, rows, slots []int32, n int, out []int32) []int32 {
	m := n
	if rows != nil {
		m = len(rows)
	}
	w := len(out)
	out = slices.Grow(out, m)[:w+m]
	if rows == nil {
		lane = lane[:n]
		switch op {
		case expr.EQ:
			for k, x := range lane {
				out[w] = int32(k)
				w += b2i(x == c)
			}
		case expr.NE:
			for k, x := range lane {
				out[w] = int32(k)
				w += b2i(x != c)
			}
		case expr.LT:
			for k, x := range lane {
				out[w] = int32(k)
				w += b2i(x < c)
			}
		case expr.LE:
			for k, x := range lane {
				out[w] = int32(k)
				w += b2i(x <= c)
			}
		case expr.GT:
			for k, x := range lane {
				out[w] = int32(k)
				w += b2i(!(x <= c))
			}
		case expr.GE:
			for k, x := range lane {
				out[w] = int32(k)
				w += b2i(!(x < c))
			}
		}
		return out[:w]
	}
	switch op {
	case expr.EQ:
		for j, i := range rows {
			out[w] = slots[j]
			w += b2i(lane[i] == c)
		}
	case expr.NE:
		for j, i := range rows {
			out[w] = slots[j]
			w += b2i(lane[i] != c)
		}
	case expr.LT:
		for j, i := range rows {
			out[w] = slots[j]
			w += b2i(lane[i] < c)
		}
	case expr.LE:
		for j, i := range rows {
			out[w] = slots[j]
			w += b2i(lane[i] <= c)
		}
	case expr.GT:
		for j, i := range rows {
			out[w] = slots[j]
			w += b2i(!(lane[i] <= c))
		}
	case expr.GE:
		for j, i := range rows {
			out[w] = slots[j]
			w += b2i(!(lane[i] < c))
		}
	}
	return out[:w]
}

// cmpFloats is cmpLoop over floats in types.Compare's order: a NaN sorts
// after every number and equals another NaN, and -0 equals +0. A NaN c
// becomes the comparison with an infinity that keeps the same rows.
func cmpFloats(op expr.CmpOp, lane []float64, c float64, rows, slots []int32, n int, out []int32) []int32 {
	if math.IsNaN(c) {
		switch op {
		case expr.EQ, expr.GE: // x is NaN
			op, c = expr.GT, math.Inf(1)
		case expr.NE, expr.LT: // x is a number
			op, c = expr.LE, math.Inf(1)
		case expr.LE: // every x
			op, c = expr.GE, math.Inf(-1)
		default: // GT: no x
			return out
		}
	}
	return cmpLoop(op, lane, c, rows, slots, n, out)
}

// dropNulls is the NULL pass of a comparison: it drops from out[start:]
// the slots whose row is NULL in v. It reads the bitmap only when the
// window holds a NULL (under a Sel, when v has a bitmap at all).
func dropNulls(v *vec.View, sel []int32, n int, out []int32, start int) []int32 {
	nulls := v.Nulls
	if len(nulls) == 0 || (sel == nil && !anyNull(nulls, v.Base, v.Base+n)) {
		return out
	}
	w := start
	for _, k := range out[start:] {
		r := v.Base + selRow(sel, int(k))
		out[w] = k
		w += b2i(r>>6 >= len(nulls) || nulls[r>>6]&(1<<(r&63)) == 0)
	}
	return out[:w]
}

// anyNull reports whether bitmap nulls has a bit set in [lo, hi).
func anyNull(nulls []uint64, lo, hi int) bool {
	for w := lo >> 6; w < len(nulls) && w<<6 < hi; w++ {
		word := nulls[w]
		if w == lo>>6 {
			word &= ^uint64(0) << (lo & 63)
		}
		if (w+1)<<6 > hi {
			word &= 1<<(hi&63) - 1
		}
		if word != 0 {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------- cmp col/col

type vpCmpCol struct {
	op   expr.CmpOp
	lpos int
	rpos int
}

func (c *vpCmpCol) sel(b *Batch, cand, out []int32) ([]int32, error) {
	l := batchView(b, c.lpos)
	r := batchView(b, c.rpos)
	if l == nil || r == nil || l.Mixed || r.Mixed {
		return out, errVecFallback
	}
	sel, m := b.Sel, candLen(cand, b.Len())
	intKind := func(k types.Kind) bool { return k == types.KindInt || k == types.KindDate }
	numKind := func(k types.Kind) bool { return intKind(k) || k == types.KindFloat }
	switch {
	case l.Kind == r.Kind && (intKind(l.Kind) || l.Kind == types.KindBool):
		for j := 0; j < m; j++ {
			k := selRow(cand, j)
			if i := selRow(sel, k); !l.Null(i) && !r.Null(i) &&
				opMatch(c.op, types.CompareInt64(l.Ints[l.Base+i], r.Ints[r.Base+i])) {
				out = append(out, int32(k))
			}
		}
	case numKind(l.Kind) && numKind(r.Kind):
		for j := 0; j < m; j++ {
			k := selRow(cand, j)
			i := selRow(sel, k)
			if l.Null(i) || r.Null(i) {
				continue
			}
			var lf, rf float64
			if l.Kind == types.KindFloat {
				lf = l.Flts[l.Base+i]
			} else {
				lf = float64(l.Ints[l.Base+i])
			}
			if r.Kind == types.KindFloat {
				rf = r.Flts[r.Base+i]
			} else {
				rf = float64(r.Ints[r.Base+i])
			}
			if opMatch(c.op, types.CompareFloat64(lf, rf)) {
				out = append(out, int32(k))
			}
		}
	case l.Kind == types.KindString && r.Kind == types.KindString:
		for j := 0; j < m; j++ {
			k := selRow(cand, j)
			if i := selRow(sel, k); !l.Null(i) && !r.Null(i) &&
				opMatch(c.op, strings.Compare(l.Strs[l.Base+i], r.Strs[r.Base+i])) {
				out = append(out, int32(k))
			}
		}
	default:
		return out, errVecFallback
	}
	return out, nil
}

// ---------------------------------------------------------------- AND / OR

// vpAnd narrows: each conjunct reads only the survivors of the previous
// one, in place, and the chain stops once none are left.
type vpAnd []vpNode

func (v vpAnd) sel(b *Batch, cand, out []int32) ([]int32, error) {
	out, err := v[0].sel(b, cand, out)
	for _, kid := range v[1:] {
		if err != nil || len(out) == 0 {
			break
		}
		out, err = kid.sel(b, out, out[:0])
	}
	return out, err
}

// vpOr offers each disjunct only the candidates no earlier disjunct kept;
// the kept slots are then the candidates left out of rest.
type vpOr struct {
	kids []vpNode
	rest []int32 // reused: candidates no disjunct has kept yet
	hit  []int32 // reused: one disjunct's kept slots
}

func (v *vpOr) sel(b *Batch, cand, out []int32) ([]int32, error) {
	m := candLen(cand, b.Len())
	rest := v.rest[:0]
	for j := 0; j < m; j++ {
		rest = append(rest, int32(selRow(cand, j)))
	}
	for _, kid := range v.kids {
		if len(rest) == 0 {
			break
		}
		hit, err := kid.sel(b, rest, v.hit[:0])
		v.hit = hit
		if err != nil {
			return out, err
		}
		// hit is an ordered subset of rest: drop it from rest in one pass.
		w := 0
		for _, k := range rest {
			if len(hit) > 0 && hit[0] == k {
				hit = hit[1:]
				continue
			}
			rest[w] = k
			w++
		}
		rest = rest[:w]
	}
	v.rest = rest
	for j := 0; j < m; j++ {
		k := int32(selRow(cand, j))
		if len(rest) > 0 && rest[0] == k {
			rest = rest[1:]
			continue
		}
		out = append(out, k)
	}
	return out, nil
}

// ---------------------------------------------------------------- IS NULL / IN / bool col

type vpIsNull struct {
	pos    int
	negate bool
}

func (v *vpIsNull) sel(b *Batch, cand, out []int32) ([]int32, error) {
	cv := batchView(b, v.pos)
	if cv == nil {
		return out, errVecFallback
	}
	for j, m := 0, candLen(cand, b.Len()); j < m; j++ {
		k := selRow(cand, j)
		if cv.Null(selRow(b.Sel, k)) != v.negate {
			out = append(out, int32(k))
		}
	}
	return out, nil
}

// vpIn is IN, or NOT IN under not. x IN (...) is TRUE when a non-NULL x
// equals an item; x NOT IN (...) is TRUE when a non-NULL x equals no item
// and the list holds no NULL.
type vpIn struct {
	pos     int
	vals    []types.Datum // non-NULL list items
	hasNull bool
	not     bool
}

func (v *vpIn) sel(b *Batch, cand, out []int32) ([]int32, error) {
	cv := batchView(b, v.pos)
	if cv == nil {
		return out, errVecFallback
	}
	if v.not && v.hasNull {
		return out, nil
	}
	for j, m := 0, candLen(cand, b.Len()); j < m; j++ {
		k := selRow(cand, j)
		i := selRow(b.Sel, k)
		if cv.Null(i) {
			continue
		}
		d := cv.Datum(i)
		matched := false
		for _, item := range v.vals {
			if types.Equal(d, item) {
				matched = true
				break
			}
		}
		if matched != v.not {
			out = append(out, int32(k))
		}
	}
	return out, nil
}

// vpBoolCol is a bare bool column: it selects want, which is false under
// NOT.
type vpBoolCol struct {
	pos  int
	want bool
}

func (v *vpBoolCol) sel(b *Batch, cand, out []int32) ([]int32, error) {
	cv := batchView(b, v.pos)
	if cv == nil || cv.Mixed || cv.Kind != types.KindBool {
		// A non-bool predicate column errors in EvalPred; let the row path
		// produce the identical error.
		return out, errVecFallback
	}
	for j, m := 0, candLen(cand, b.Len()); j < m; j++ {
		k := selRow(cand, j)
		if i := selRow(b.Sel, k); !cv.Null(i) && (cv.Ints[cv.Base+i] != 0) == v.want {
			out = append(out, int32(k))
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- key lanes

// keyLanes reads a list of key expressions — a hash join's build or probe
// keys, a Redistribute Motion's hash keys, a hash aggregate's group keys and
// inputs — off one batch at a time as one vec.View per key, and hashes them. A plain column of a batch with lanes
// is the batch's own lane under its Sel; a plain column of a row-only
// batch is copied into a reused lane; a computed key is evaluated row by
// row into a reused lane. Every join-key and Redistribute hash in the
// executor comes from hash.
type keyLanes struct {
	cols []keyCol
	env  expr.Env  // evaluates computed keys
	row  types.Row // scratch row for computed keys over lazy rows
	n    int       // slots loaded
	h    []uint64
	null []bool
}

// keyCol is one key of a keyLanes.
type keyCol struct {
	e    expr.Expr
	pos  int       // batch column of a plain-column key; -1: computed (e)
	view *vec.View // the loaded batch's key values: its own lane, or own's
	sel  []int32   // the view row of each slot; nil: the slot itself
	own  *ownLane  // reused for row-only batches and computed keys
}

// ownLane is a lane a keyCol fills itself, and the view of it it hands out.
type ownLane struct {
	lane vec.Lane
	view vec.View
}

// colPos resolves a bare column reference to its position in the layout;
// -1 for anything else.
func colPos(e expr.Expr, layout expr.Layout) int {
	if c, ok := e.(*expr.Col); ok {
		if p, ok := layout[c.ID]; ok && p >= 0 {
			return p
		}
	}
	return -1
}

func newKeyLanes(keys []expr.Expr, layout expr.Layout, params []types.Datum) *keyLanes {
	kl := &keyLanes{cols: make([]keyCol, len(keys)), env: expr.Env{Layout: layout, Params: params}}
	for i, e := range keys {
		kl.cols[i] = keyCol{e: e, pos: colPos(e, layout)}
	}
	return kl
}

// load reads batch b's keys. The views stay valid until the next load or
// until b changes, whichever comes first.
func (kl *keyLanes) load(b *Batch) error {
	kl.n = b.Len()
	for i := range kl.cols {
		c := &kl.cols[i]
		if c.pos >= 0 && b.Cols != nil {
			c.view, c.sel = &b.Cols[c.pos], b.Sel
			continue
		}
		if c.own == nil {
			c.own = new(ownLane)
		}
		lane := &c.own.lane
		lane.Reset()
		if c.pos >= 0 {
			lane.AppendColumn(b.Rows, c.pos)
		} else {
			for k := 0; k < kl.n; k++ {
				kl.env.Row = batchRow(b, k, &kl.row)
				d, err := expr.Eval(c.e, &kl.env)
				if err != nil {
					return err
				}
				lane.AppendDatum(d)
			}
		}
		c.own.view = lane.View()
		c.view, c.sel = &c.own.view, nil
	}
	return nil
}

// hash returns the key hash of every loaded slot, bit-identical to a
// types.HashDatum chain from types.HashSeed over the key values. With
// mixNulls a NULL key value mixes in like any other (Redistribute routing);
// without it the slot is flagged in null and hashes to 0, since a NULL
// never joins. The slices are reused by the next call.
func (kl *keyLanes) hash(mixNulls bool) (h []uint64, null []bool) {
	n := kl.n
	if cap(kl.h) < n {
		kl.h, kl.null = make([]uint64, n), make([]bool, n)
	}
	kl.h, kl.null = kl.h[:n], kl.null[:n]
	for k := range kl.h {
		kl.h[k], kl.null[k] = types.HashSeed, false
	}
	for i := range kl.cols {
		kl.cols[i].view.HashInto(kl.h, kl.null, kl.cols[i].sel, mixNulls)
	}
	if !mixNulls {
		for k, null := range kl.null {
			if null {
				kl.h[k] = 0
			}
		}
	}
	return kl.h, kl.null
}
