package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/plan"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// The compiled vector predicate against expr.EvalPred, row by row. Random
// predicates over AND / OR / NOT, comparisons with a constant or parameter
// on either side, column-column comparisons, IS [NOT] NULL, IN lists with
// an optional NULL item and a bare bool column run over lane batches of
// every kind, windowed at a non-zero Base, with and without a selection
// vector, with NULLs anywhere, with none and with NULLs only outside the
// window. Wherever the kernel does not refuse the batch, the slots it
// keeps must be exactly those whose row EvalPred keeps.

// vpCols are the test relation's columns: one lane per kind, a second int
// and float for column-column comparisons, and a mixed lane (ints and
// floats, which compare across kinds).
var vpCols = []struct {
	name string
	kind types.Kind
}{
	{"i", types.KindInt}, {"f", types.KindFloat}, {"s", types.KindString},
	{"b", types.KindBool}, {"d", types.KindDate}, {"i2", types.KindInt},
	{"f2", types.KindFloat}, {"m", types.KindNull},
}

// vpValue draws a value for a column of kind k, NULL one time in six.
func vpValue(rnd *rand.Rand, k types.Kind) types.Datum {
	if rnd.Intn(6) == 0 {
		return types.Null
	}
	return vpNonNull(rnd, k)
}

// vpNonNull draws a non-NULL value for a column of kind k. The pools are
// small so comparisons and IN lists hit; floats include NaN, -0 and +0,
// and the mixed column draws ints and floats.
func vpNonNull(rnd *rand.Rand, k types.Kind) types.Datum {
	switch k {
	case types.KindInt:
		return types.NewInt(int64(rnd.Intn(7) - 3))
	case types.KindFloat:
		return types.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2, 3, 1}[rnd.Intn(7)])
	case types.KindString:
		return types.NewString([]string{"", "a", "ab", "b"}[rnd.Intn(4)])
	case types.KindBool:
		return types.NewBool(rnd.Intn(2) == 0)
	case types.KindDate:
		return types.NewDate(int64(rnd.Intn(5)))
	}
	if rnd.Intn(2) == 0 {
		return types.NewInt(int64(rnd.Intn(3)))
	}
	return types.NewFloat(float64(rnd.Intn(3)) / 2)
}

// vpGen generates predicates over vpCols. Constants are sometimes lifted to
// parameters, bound in params.
type vpGen struct {
	rnd    *rand.Rand
	params []types.Datum
}

func (g *vpGen) col(j int) *expr.Col { return tcol(1, j, vpCols[j].name) }

// operand is a constant or parameter for a column of kind k: usually of the
// column's kind, sometimes of the other numeric kind, sometimes NULL.
func (g *vpGen) operand(k types.Kind) expr.Expr {
	switch {
	case k == types.KindInt && g.rnd.Intn(4) == 0:
		k = types.KindFloat
	case k == types.KindFloat && g.rnd.Intn(4) == 0:
		k = types.KindInt
	}
	v := vpValue(g.rnd, k)
	if g.rnd.Intn(4) == 0 {
		g.params = append(g.params, v)
		return &expr.Param{Idx: len(g.params) - 1}
	}
	return expr.NewConst(v)
}

func (g *vpGen) pred(depth int) expr.Expr {
	rnd := g.rnd
	if depth > 0 && rnd.Intn(3) > 0 {
		switch rnd.Intn(3) {
		case 0, 1:
			args := make([]expr.Expr, 2+rnd.Intn(2))
			for i := range args {
				args[i] = g.pred(depth - 1)
			}
			if rnd.Intn(2) == 0 {
				return &expr.And{Args: args}
			}
			return &expr.Or{Args: args}
		default:
			return &expr.Not{Arg: g.pred(depth - 1)}
		}
	}
	j := rnd.Intn(len(vpCols))
	k := vpCols[j].kind
	op := expr.CmpOp(rnd.Intn(6))
	switch rnd.Intn(5) {
	case 0: // column op constant, either side
		if rnd.Intn(2) == 0 {
			return expr.NewCmp(op, g.operand(k), g.col(j))
		}
		return expr.NewCmp(op, g.col(j), g.operand(k))
	case 1: // column op column: the same kind, the other numeric kind or itself
		pairs := [][2]int{{0, 5}, {1, 6}, {0, 1}, {6, 5}, {2, 2}, {3, 3}, {4, 4}, {1, 1}, {0, 7}}
		p := pairs[rnd.Intn(len(pairs))]
		return expr.NewCmp(op, g.col(p[0]), g.col(p[1]))
	case 2:
		return &expr.IsNull{Arg: g.col(j), Negate: rnd.Intn(2) == 0}
	case 3:
		list := make([]expr.Expr, 1+rnd.Intn(3))
		for i := range list {
			list[i] = g.operand(k)
		}
		if rnd.Intn(3) == 0 {
			list = append(list, expr.NewConst(types.Null))
		}
		return &expr.InList{Arg: g.col(j), List: list}
	}
	return g.col(3) // bare bool column
}

// vpBatch is one lane batch and the row behind each of its slots.
type vpBatch struct {
	name string
	b    *Batch
	rows []types.Row // rows[k] is slot k's row
}

// vpNulls says where a test batch's lanes hold NULLs.
type vpNulls int

const (
	nullsAnywhere vpNulls = iota // one value in six, in every column
	nullsNone                    // none at all: the lanes carry no null bitmap
	nullsOutside                 // only outside the n rows at Base: a bitmap with no bit in the window
)

func (m vpNulls) String() string { return [...]string{"nulls", "no-nulls", "nulls-outside"}[m] }

// vpBatches builds a batch of n slots over a window at a non-zero Base of
// lanes built from random rows, once with every window row and once
// through a selection vector that keeps n of its 2n rows.
func vpBatches(rnd *rand.Rand, n int, nulls vpNulls) []vpBatch {
	base := 1 + rnd.Intn(70)
	window := 2 * n
	all := make([]types.Row, base+window)
	for i := range all {
		row := make(types.Row, len(vpCols))
		for j, c := range vpCols {
			switch {
			case nulls == nullsAnywhere, nulls == nullsOutside && (i < base || i >= base+n):
				row[j] = vpValue(rnd, c.kind)
			default:
				row[j] = vpNonNull(rnd, c.kind)
			}
		}
		all[i] = row
	}
	cols := make([]vec.View, len(vpCols))
	for j := range cols {
		var l vec.Lane
		l.AppendColumn(all, j)
		cols[j] = l.View()
		cols[j].Base = base
	}
	win := all[base:]
	var sel []int32
	var selRows []types.Row
	for i := 0; len(sel) < n; i++ {
		if rnd.Intn(window-i) < n-len(sel) { // n of the window's rows, in order
			sel = append(sel, int32(i))
			selRows = append(selRows, win[i])
		}
	}
	return []vpBatch{
		{fmt.Sprintf("n=%d/%v/no-sel", n, nulls), &Batch{Cols: cols, n: n}, win[:n]},
		{fmt.Sprintf("n=%d/%v/sel", n, nulls), &Batch{Cols: cols, Sel: sel, n: n}, selRows},
	}
}

// vecKeep runs the compiled predicate over b: the kept slots, or ok false
// when the kernel refused the batch.
func vecKeep(t *testing.T, vp vpNode, b *Batch) (keep []int32, ok bool) {
	t.Helper()
	keep, err := vp.sel(b, nil, nil)
	if errors.Is(err, errVecFallback) {
		return nil, false
	}
	if err != nil {
		t.Fatalf("sel: %v", err)
	}
	return keep, true
}

// vpTestBatches returns batches of 1, 7, 70 and 1024 slots, each with
// and without a selection vector, for every placement of NULLs.
func vpTestBatches(rnd *rand.Rand) []vpBatch {
	var batches []vpBatch
	for _, n := range []int{1, 7, 70, 1024} {
		for _, nulls := range []vpNulls{nullsAnywhere, nullsNone, nullsOutside} {
			batches = append(batches, vpBatches(rnd, n, nulls)...)
		}
	}
	return batches
}

// vpLayout maps vpCols (relation 1) to their batch positions.
func vpLayout() expr.Layout {
	layout := expr.Layout{}
	for j := range vpCols {
		layout[expr.ColID{Rel: 1, Ord: j}] = j
	}
	return layout
}

// vpCheck compiles pred, runs it over every batch and fails unless the
// slots it keeps are those whose row EvalPred keeps. It reports whether
// the kernel refused some batch.
func vpCheck(t *testing.T, pred expr.Expr, layout expr.Layout, params []types.Datum, batches []vpBatch) (refused bool) {
	t.Helper()
	vp := compileVP(pred, layout, params, false)
	if vp == nil {
		t.Fatalf("%s: not compiled", pred)
	}
	env := expr.Env{Layout: layout, Params: params}
	for _, vb := range batches {
		keep, ok := vecKeep(t, vp, vb.b)
		if !ok {
			refused = true
			continue
		}
		var want []int32
		for k, row := range vb.rows {
			env.Row = row
			hit, err := expr.EvalPred(pred, &env)
			if err != nil {
				t.Fatalf("%s on %v: kernel kept %v, EvalPred: %v", pred, row, keep, err)
			}
			if hit {
				want = append(want, int32(k))
			}
		}
		if !slices.Equal(keep, want) {
			t.Fatalf("%s (params %v), %s: kernel kept %v, EvalPred keeps %v", pred, params, vb.name, keep, want)
		}
	}
	return refused
}

func TestVecPredMatchesEvalPred(t *testing.T) {
	rnd := rand.New(rand.NewSource(37))
	batches := vpTestBatches(rnd)
	layout := vpLayout()
	const preds = 3000
	fellBack := 0
	for p := 0; p < preds; p++ {
		g := &vpGen{rnd: rnd}
		pred := g.pred(3)
		if vpCheck(t, pred, layout, g.params, batches) {
			fellBack++
		}
	}
	t.Logf("%d predicates, %d refused at least one batch", preds, fellBack)
	if fellBack > preds/4 {
		t.Fatalf("%d of %d predicates fell back: the check is mostly vacuous", fellBack, preds)
	}
}

// TestVecCmpConstEveryLoop runs every loop of a comparison with a
// constant — each lane family (int, date and bool lanes read as int64;
// floats, and int and date lanes read as floats against another numeric
// kind; strings) under each operator — in its dense form (no candidates
// and no Sel) and in its candidate form (under a Sel, behind a conjunct
// that narrows the candidates, and both), over batches with NULLs anywhere,
// with none and with NULLs only outside the window. None may refuse a
// batch.
func TestVecCmpConstEveryLoop(t *testing.T) {
	batches := vpTestBatches(rand.New(rand.NewSource(45)))
	layout := vpLayout()
	g := &vpGen{}
	i64, f64 := func(x int64) types.Datum { return types.NewInt(x) }, types.NewFloat
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	consts := []struct {
		col  int
		vals []types.Datum
	}{
		{0, []types.Datum{i64(-4), i64(0), i64(3)}},                    // int
		{4, []types.Datum{types.NewDate(0), types.NewDate(2)}},         // date
		{3, []types.Datum{types.NewBool(true), types.NewBool(false)}},  // bool
		{1, []types.Datum{f64(nan), f64(negZero), f64(1.5), i64(3)}},   // float
		{0, []types.Datum{f64(nan), f64(0.5), f64(negZero)}},           // int read as floats
		{4, []types.Datum{i64(2), f64(1.5)}},                           // date read as floats
		{2, []types.Datum{types.NewString(""), types.NewString("ab")}}, // string
	}
	// narrow drops the rows where i2 is 0, so the comparison behind it is
	// offered a candidate list.
	narrow := expr.NewCmp(expr.NE, g.col(5), intc(0))
	for _, c := range consts {
		for _, val := range c.vals {
			for op := expr.CmpOp(0); op < 6; op++ {
				cmp := expr.NewCmp(op, g.col(c.col), expr.NewConst(val))
				for _, pred := range []expr.Expr{cmp, &expr.And{Args: []expr.Expr{narrow, cmp}}} {
					if vpCheck(t, pred, layout, nil, batches) {
						t.Fatalf("%s refused a batch", pred)
					}
				}
			}
		}
	}
}

// TestFilterOverSelection runs a filterOp over lane batches that arrive
// with a selection vector: the kept slots must be mapped through it, so
// the output rows are exactly the input rows the predicate keeps.
func TestFilterOverSelection(t *testing.T) {
	data := make([]types.Row, 5000)
	for i := range data {
		data[i] = types.Row{types.NewInt(int64(i % 50)), types.NewInt(int64(i))}
	}
	odd := func(r types.Row) bool { return r[1].Int()%2 == 1 }
	src := &laneSrc{chunks: []*vec.ColumnSet{laneChunk([]types.Kind{types.KindInt, types.KindInt}, data)}, keep: odd}
	tab, err := catalog.New().CreateTable("t", []catalog.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}}, catalog.Hashed(0))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	op := &filterOp{n: plan.NewFilter(expr.NewCmp(expr.LT, tcol(1, 0, "a"), intc(20)), plan.NewScan(tab, 1)), child: src}
	ctx := newCtx(&Runtime{}, 0, nil, NewStats(), context.Background(), nil, nil)
	if err := op.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	var got []int64
	for {
		out, err := op.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			t.Fatalf("next batch: %v", err)
		}
		if out.Sel == nil {
			t.Fatalf("a filter over lanes emitted no selection vector")
		}
		for _, r := range out.rows(ctx) {
			got = append(got, r[1].Int())
		}
	}
	var want []int64
	for _, r := range data {
		if odd(r) && r[0].Int() < 20 {
			want = append(want, r[1].Int())
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("kept %d rows %v…, want %d rows %v…", len(got), got[:min(8, len(got))], len(want), want[:8])
	}
}

// BenchmarkFilterKernels drives a filterOp over 1024-row lane batches of a
// lineitem-like relation and reports ns/row per predicate shape. Every
// column but l_discount is NULL-free, so a single comparison with a
// constant on one of them runs its dense loop; l_discount is NULL every
// fifth row, so its comparison runs the NULL pass as well. The -rows cases
// read scan-shaped batches, which carry the window's row headers beside
// the lanes, as every plain scan does.
func BenchmarkFilterKernels(b *testing.B) {
	const rows = 100_000
	qty, ship := tcol(1, 0, "l_quantity"), tcol(1, 1, "l_shipdate")
	price, disc := tcol(1, 2, "l_extendedprice"), tcol(1, 3, "l_discount")
	date := func(d int64) *expr.Const { return expr.NewConst(types.NewDate(d)) }
	cases := []struct {
		name string
		pred expr.Expr
		win  bool
	}{
		{"lt-half", expr.NewCmp(expr.LT, qty, intc(26)), false},
		{"date-eq", expr.NewCmp(expr.EQ, ship, date(43)), false},
		{"float-ge-half", expr.NewCmp(expr.GE, price, expr.NewConst(types.NewFloat(rows/8))), false},
		{"nullable-lt-half", expr.NewCmp(expr.LT, disc, intc(5)), false},
		{"eq-and-eq", &expr.And{Args: []expr.Expr{expr.NewCmp(expr.EQ, ship, date(43)), expr.NewCmp(expr.EQ, qty, intc(8))}}, false},
		{"or-not", &expr.Or{Args: []expr.Expr{
			expr.NewCmp(expr.LT, qty, intc(5)),
			&expr.Not{Arg: &expr.And{Args: []expr.Expr{expr.NewCmp(expr.GE, ship, date(30)), expr.NewCmp(expr.LT, ship, date(300))}}},
		}}, false},
		{"lt-half-rows", expr.NewCmp(expr.LT, qty, intc(26)), true},
		{"date-eq-rows", expr.NewCmp(expr.EQ, ship, date(43)), true},
	}
	tab, err := catalog.New().CreateTable("lineitem", []catalog.Column{
		{Name: "l_quantity", Kind: types.KindInt}, {Name: "l_shipdate", Kind: types.KindDate},
		{Name: "l_extendedprice", Kind: types.KindFloat}, {Name: "l_discount", Kind: types.KindInt},
	}, catalog.Hashed(0))
	if err != nil {
		b.Fatalf("create: %v", err)
	}
	data := make([]types.Row, rows)
	for i := range data {
		discount := types.NewInt(int64(i * 3 % 11))
		if i%5 == 0 {
			discount = types.Null
		}
		data[i] = types.Row{types.NewInt(int64(1 + i*7%50)), types.NewDate(int64(i * 13 % 365)), types.NewFloat(float64(i) / 4), discount}
	}
	chunk := laneChunk([]types.Kind{types.KindInt, types.KindDate, types.KindFloat, types.KindInt}, data)
	chunk.RowView() // the -rows cases read the cached view; build it untimed
	defer SetBatchSize(SetBatchSize(DefaultBatchSize))
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			src := &laneSrc{chunks: []*vec.ColumnSet{chunk}, win: c.win}
			op := &filterOp{n: plan.NewFilter(c.pred, plan.NewScan(tab, 1)), child: src}
			ctx := newCtx(&Runtime{}, 0, nil, NewStats(), context.Background(), nil, nil)
			kept := 0
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				if err := op.Open(ctx); err != nil {
					b.Fatalf("open: %v", err)
				}
				for kept = 0; ; {
					out, err := op.NextBatch(ctx)
					if errors.Is(err, errEOF) {
						break
					}
					if err != nil {
						b.Fatalf("next batch: %v", err)
					}
					kept += out.Len()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			b.ReportMetric(float64(kept)/rows, "kept/row")
		})
	}
}
