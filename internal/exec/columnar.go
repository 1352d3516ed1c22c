package exec

import (
	"errors"

	"partopt/internal/expr"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// Columnar execution: batches flowing out of scans carry zero-copy column
// views (Batch.Cols/Sel), the hash join emits lanes of its own, and the hot
// kernels — filter predicates, join / agg / motion hashing, join key checks
// — run as tight typed loops over those vectors instead of per-datum
// expr.Eval dispatch.
//
// Two rules keep this invisible to everything else:
//
//  1. Rows are always reachable: a batch either carries them or carries
//     lanes they are materialized from on demand (Batch.rows, counted per
//     batch), and Batch.Len is explicit. Row-only operators, the stats
//     layer (EXPLAIN ANALYZE actuals count Len) and the spill paths see
//     exactly the rows they saw before.
//  2. Every vectorized kernel is bit-compatible with its row twin — the
//     same types.Compare ordering (including NaN and cross-kind numeric
//     rules) and the same types.HashDatum mixing — or it refuses the batch
//     (errVecFallback) and the row path runs instead. Refusal is always
//     safe because of rule 1.

// columnarEnabled gates every columnar fast path: scans emitting column
// views, the vectorized filter, projection passthrough, and columnar
// hashing. It is a package variable so equivalence sweeps can run the same
// queries in both modes; the engine never flips it mid-query.
var columnarEnabled = true

// SetColumnarExec enables or disables columnar execution (test hook). It
// returns the previous value so tests can restore it.
func SetColumnarExec(on bool) bool {
	prev := columnarEnabled
	columnarEnabled = on
	return prev
}

// errVecFallback signals that a compiled vector kernel cannot handle this
// particular batch (mixed lane, incomparable kinds); the caller runs the
// row-at-a-time path for the batch instead. Never visible outside exec.
var errVecFallback = errors.New("exec: vectorized kernel fallback")

// ---------------------------------------------------------------- bitmask helpers

func bitGet(m []uint64, i int) bool { return m[i>>6]&(1<<uint(i&63)) != 0 }
func bitSet(m []uint64, i int)      { m[i>>6] |= 1 << uint(i&63) }

func clearWords(m []uint64) {
	for i := range m {
		m[i] = 0
	}
}

// growWords returns a zeroed []uint64 with at least w words, reusing buf.
func growWords(buf []uint64, w int) []uint64 {
	if cap(buf) < w {
		return make([]uint64, w)
	}
	buf = buf[:w]
	clearWords(buf)
	return buf
}

// ---------------------------------------------------------------- predicate compiler

// vpNode is one node of a compiled vectorized predicate. eval fills res
// and nul (row-qualification and NULL bitmasks over the batch's k-space,
// with the invariant res&nul == 0) or reports errVecFallback when the
// batch's lanes don't support a typed loop.
type vpNode interface {
	eval(b *Batch, n int, res, nul []uint64) error
}

// vecPred is a compiled predicate plus its reusable evaluation buffers.
type vecPred struct {
	root vpNode
	res  []uint64
	nul  []uint64
}

// compileVecPred compiles a predicate into typed vector loops. It returns
// nil when the shape is not supported (arithmetic, nested subexpressions
// beyond Col/Const/Param operands, unresolvable columns) — the caller then
// keeps the row path. Params are bound at compile time (per Open), exactly
// like the row path reads them per evaluation.
func compileVecPred(e expr.Expr, layout expr.Layout, params []types.Datum) *vecPred {
	if e == nil {
		return nil
	}
	root := compileVP(e, layout, params)
	if root == nil {
		return nil
	}
	return &vecPred{root: root}
}

// eval runs the compiled predicate over a columnar batch and returns the
// qualification bitmask over k = 0..b.Len()-1.
func (p *vecPred) eval(b *Batch) ([]uint64, error) {
	n := b.Len()
	w := (n + 63) >> 6
	p.res = growWords(p.res, w)
	p.nul = growWords(p.nul, w)
	if err := p.root.eval(b, n, p.res, p.nul); err != nil {
		return nil, err
	}
	return p.res, nil
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

func compileVP(e expr.Expr, layout expr.Layout, params []types.Datum) vpNode {
	switch x := e.(type) {
	case *expr.Cmp:
		l, lok := resolveOperand(x.L, layout, params)
		r, rok := resolveOperand(x.R, layout, params)
		if !lok || !rok {
			return nil
		}
		switch {
		case l.isCol && r.isCol:
			return &vpCmpCol{op: x.Op, lpos: l.pos, rpos: r.pos}
		case l.isCol:
			return &vpCmpConst{op: x.Op, pos: l.pos, val: r.val}
		case r.isCol:
			return &vpCmpConst{op: x.Op.Flip(), pos: r.pos, val: l.val}
		default:
			return nil // const-const: leave to the row path
		}
	case *expr.And:
		kids := make([]vpNode, len(x.Args))
		for i, a := range x.Args {
			if kids[i] = compileVP(a, layout, params); kids[i] == nil {
				return nil
			}
		}
		return &vpBool{kids: kids, and: true}
	case *expr.Or:
		kids := make([]vpNode, len(x.Args))
		for i, a := range x.Args {
			if kids[i] = compileVP(a, layout, params); kids[i] == nil {
				return nil
			}
		}
		return &vpBool{kids: kids, and: false}
	case *expr.Not:
		kid := compileVP(x.Arg, layout, params)
		if kid == nil {
			return nil
		}
		return &vpNot{kid: kid}
	case *expr.IsNull:
		col, ok := x.Arg.(*expr.Col)
		if !ok {
			return nil
		}
		pos, ok := layout[col.ID]
		if !ok || pos < 0 {
			return nil
		}
		return &vpIsNull{pos: pos, negate: x.Negate}
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
		return &vpIn{pos: pos, vals: vals, hasNull: hasNull}
	case *expr.Col:
		// Bare boolean column as predicate.
		pos, ok := layout[x.ID]
		if !ok || pos < 0 {
			return nil
		}
		return &vpBoolCol{pos: pos}
	}
	return nil
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

// selRow maps output slot k to its window row.
func selRow(sel []int32, k int) int {
	if sel == nil {
		return k
	}
	return int(sel[k])
}

// ---------------------------------------------------------------- cmp col/const

type vpCmpConst struct {
	op  expr.CmpOp
	pos int
	val types.Datum
}

func (c *vpCmpConst) eval(b *Batch, n int, res, nul []uint64) error {
	v := batchView(b, c.pos)
	if v == nil || v.Mixed {
		return errVecFallback
	}
	if c.val.IsNull() {
		// NULL comparand: every comparison is NULL.
		for k := 0; k < n; k++ {
			bitSet(nul, k)
		}
		return nil
	}
	sel := b.Sel
	ck := c.val.Kind()
	switch v.Kind {
	case types.KindInt, types.KindDate:
		switch {
		case ck == v.Kind:
			cv := c.val.Int()
			for k := 0; k < n; k++ {
				i := selRow(sel, k)
				if v.Null(i) {
					bitSet(nul, k)
					continue
				}
				if opMatch(c.op, types.CompareInt64(v.Ints[v.Base+i], cv)) {
					bitSet(res, k)
				}
			}
		case ck == types.KindFloat || ck == types.KindInt || ck == types.KindDate:
			cf := c.val.Float()
			for k := 0; k < n; k++ {
				i := selRow(sel, k)
				if v.Null(i) {
					bitSet(nul, k)
					continue
				}
				if opMatch(c.op, types.CompareFloat64(float64(v.Ints[v.Base+i]), cf)) {
					bitSet(res, k)
				}
			}
		default:
			return errVecFallback
		}
	case types.KindFloat:
		if ck != types.KindFloat && ck != types.KindInt && ck != types.KindDate {
			return errVecFallback
		}
		cf := c.val.Float()
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			if v.Null(i) {
				bitSet(nul, k)
				continue
			}
			if opMatch(c.op, types.CompareFloat64(v.Flts[v.Base+i], cf)) {
				bitSet(res, k)
			}
		}
	case types.KindString:
		if ck != types.KindString {
			return errVecFallback
		}
		cs := c.val.Str()
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			if v.Null(i) {
				bitSet(nul, k)
				continue
			}
			s := v.Strs[v.Base+i]
			cc := 0
			switch {
			case s < cs:
				cc = -1
			case s > cs:
				cc = 1
			}
			if opMatch(c.op, cc) {
				bitSet(res, k)
			}
		}
	case types.KindBool:
		if ck != types.KindBool {
			return errVecFallback
		}
		cv := int64(0)
		if c.val.Bool() {
			cv = 1
		}
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			if v.Null(i) {
				bitSet(nul, k)
				continue
			}
			if opMatch(c.op, types.CompareInt64(v.Ints[v.Base+i], cv)) {
				bitSet(res, k)
			}
		}
	default:
		// Declared-NULL lane: every value is NULL.
		for k := 0; k < n; k++ {
			bitSet(nul, k)
		}
	}
	return nil
}

// ---------------------------------------------------------------- cmp col/col

type vpCmpCol struct {
	op   expr.CmpOp
	lpos int
	rpos int
}

func (c *vpCmpCol) eval(b *Batch, n int, res, nul []uint64) error {
	l := batchView(b, c.lpos)
	r := batchView(b, c.rpos)
	if l == nil || r == nil || l.Mixed || r.Mixed {
		return errVecFallback
	}
	sel := b.Sel
	intKind := func(k types.Kind) bool { return k == types.KindInt || k == types.KindDate }
	numKind := func(k types.Kind) bool { return intKind(k) || k == types.KindFloat }
	switch {
	case l.Kind == r.Kind && intKind(l.Kind):
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			if l.Null(i) || r.Null(i) {
				bitSet(nul, k)
				continue
			}
			if opMatch(c.op, types.CompareInt64(l.Ints[l.Base+i], r.Ints[r.Base+i])) {
				bitSet(res, k)
			}
		}
	case numKind(l.Kind) && numKind(r.Kind):
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			if l.Null(i) || r.Null(i) {
				bitSet(nul, k)
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
				bitSet(res, k)
			}
		}
	case l.Kind == types.KindString && r.Kind == types.KindString:
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			if l.Null(i) || r.Null(i) {
				bitSet(nul, k)
				continue
			}
			ls, rs := l.Strs[l.Base+i], r.Strs[r.Base+i]
			cc := 0
			switch {
			case ls < rs:
				cc = -1
			case ls > rs:
				cc = 1
			}
			if opMatch(c.op, cc) {
				bitSet(res, k)
			}
		}
	case l.Kind == types.KindBool && r.Kind == types.KindBool:
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			if l.Null(i) || r.Null(i) {
				bitSet(nul, k)
				continue
			}
			if opMatch(c.op, types.CompareInt64(l.Ints[l.Base+i], r.Ints[r.Base+i])) {
				bitSet(res, k)
			}
		}
	default:
		return errVecFallback
	}
	return nil
}

// ---------------------------------------------------------------- boolean algebra

// vpBool is an n-ary Kleene AND/OR over child masks. The bitwise identities
// (with the res&nul == 0 invariant):
//
//	AND: out.res = Πres;  false where any child is false; NULL elsewhere
//	OR:  out.res = Σres;  out.nul = (Σnul) &^ out.res
type vpBool struct {
	kids []vpNode
	and  bool
	kres []uint64
	knul []uint64
}

func (v *vpBool) eval(b *Batch, n int, res, nul []uint64) error {
	w := len(res)
	if err := v.kids[0].eval(b, n, res, nul); err != nil {
		return err
	}
	v.kres = growWords(v.kres, w)
	v.knul = growWords(v.knul, w)
	for _, kid := range v.kids[1:] {
		clearWords(v.kres)
		clearWords(v.knul)
		if err := kid.eval(b, n, v.kres, v.knul); err != nil {
			return err
		}
		if v.and {
			for i := 0; i < w; i++ {
				aRes, aNul := res[i], nul[i]
				bRes, bNul := v.kres[i], v.knul[i]
				isFalse := (^aRes & ^aNul) | (^bRes & ^bNul)
				res[i] = aRes & bRes
				nul[i] = (aNul | bNul) &^ isFalse
			}
		} else {
			for i := 0; i < w; i++ {
				r := res[i] | v.kres[i]
				res[i] = r
				nul[i] = (nul[i] | v.knul[i]) &^ r
			}
		}
	}
	return nil
}

type vpNot struct {
	kid vpNode
}

func (v *vpNot) eval(b *Batch, n int, res, nul []uint64) error {
	if err := v.kid.eval(b, n, res, nul); err != nil {
		return err
	}
	// NOT true = false, NOT false = true, NOT NULL = NULL. Bits past n pick
	// up garbage from the complement; consumers never read them.
	for i := range res {
		res[i] = ^res[i] &^ nul[i]
	}
	return nil
}

// ---------------------------------------------------------------- IS NULL / IN / bool col

type vpIsNull struct {
	pos    int
	negate bool
}

func (v *vpIsNull) eval(b *Batch, n int, res, nul []uint64) error {
	cv := batchView(b, v.pos)
	if cv == nil {
		return errVecFallback
	}
	for k := 0; k < n; k++ {
		if cv.Null(selRow(b.Sel, k)) != v.negate {
			bitSet(res, k)
		}
	}
	return nil
}

type vpIn struct {
	pos     int
	vals    []types.Datum // non-NULL list items
	hasNull bool
}

func (v *vpIn) eval(b *Batch, n int, res, nul []uint64) error {
	cv := batchView(b, v.pos)
	if cv == nil {
		return errVecFallback
	}
	for k := 0; k < n; k++ {
		i := selRow(b.Sel, k)
		if cv.Null(i) {
			bitSet(nul, k)
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
		switch {
		case matched:
			bitSet(res, k)
		case v.hasNull:
			bitSet(nul, k)
		}
	}
	return nil
}

type vpBoolCol struct {
	pos int
}

func (v *vpBoolCol) eval(b *Batch, n int, res, nul []uint64) error {
	cv := batchView(b, v.pos)
	if cv == nil || cv.Mixed || cv.Kind != types.KindBool {
		// A non-bool predicate column errors in EvalPred; let the row path
		// produce the identical error.
		return errVecFallback
	}
	for k := 0; k < n; k++ {
		i := selRow(b.Sel, k)
		if cv.Null(i) {
			bitSet(nul, k)
			continue
		}
		if cv.Ints[cv.Base+i] != 0 {
			bitSet(res, k)
		}
	}
	return nil
}

// ---------------------------------------------------------------- columnar hashing

// vecHasher computes per-row key hashes for a columnar batch, bit-identical
// to the row path's expr.Eval + types.HashDatum chain. It only engages when
// every key is a bare column resolvable in the layout; otherwise (or when a
// batch has no columnar payload) callers use their row loop.
type vecHasher struct {
	pos      []int // column position per key
	mixNulls bool  // agg/motion mix NULL keys; join flags them instead
	h        []uint64
	null     []bool
}

// newVecHasher resolves keys to column positions; nil if any key is not a
// plain column (or columnar execution is off).
func newVecHasher(keys []expr.Expr, layout expr.Layout, mixNulls bool) *vecHasher {
	if !columnarEnabled || len(keys) == 0 {
		return nil
	}
	pos := make([]int, len(keys))
	for i, k := range keys {
		col, ok := k.(*expr.Col)
		if !ok {
			return nil
		}
		p, ok := layout[col.ID]
		if !ok || p < 0 {
			return nil
		}
		pos[i] = p
	}
	return &vecHasher{pos: pos, mixNulls: mixNulls}
}

// hashRowKeys is vecHasher's row twin: it hashes one row's evaluated key
// expressions through a reused env. With mixNulls a NULL key value is mixed
// into the hash like any other (motion routing); without it a NULL key
// yields (0, true), since a NULL never joins.
func hashRowKeys(env *expr.Env, keys []expr.Expr, row types.Row, mixNulls bool) (uint64, bool, error) {
	env.Row = row
	h := types.HashSeed
	for _, k := range keys {
		v, err := expr.Eval(k, env)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() && !mixNulls {
			return 0, true, nil
		}
		h = types.HashDatum(h, v)
	}
	return h, false, nil
}

// hashBatch computes the key hash for every row of a columnar batch. The
// returned slices are reused across calls. For join semantics (mixNulls
// false) null[k] marks rows with a NULL key and h[k] is forced to 0,
// matching the row path's (0, true) result. ok is false when the batch has
// no columnar payload or a key column is out of range — callers then hash
// row-by-row.
func (vh *vecHasher) hashBatch(b *Batch) (h []uint64, null []bool, ok bool) {
	if vh == nil || b.Cols == nil {
		return nil, nil, false
	}
	n := b.Len()
	if cap(vh.h) < n {
		vh.h = make([]uint64, n)
		vh.null = make([]bool, n)
	}
	vh.h, vh.null = vh.h[:n], vh.null[:n]
	for k := 0; k < n; k++ {
		vh.h[k] = types.HashSeed
		vh.null[k] = false
	}
	for _, pos := range vh.pos {
		v := batchView(b, pos)
		if v == nil {
			return nil, nil, false
		}
		v.HashInto(vh.h, vh.null, b.Sel, vh.mixNulls)
	}
	if !vh.mixNulls {
		for k := 0; k < n; k++ {
			if vh.null[k] {
				vh.h[k] = 0
			}
		}
	}
	return vh.h, vh.null, true
}
