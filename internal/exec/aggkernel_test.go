package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// The hash aggregate against a test reference. A hashAggOp reads a
// laneSrc: chunks of column lanes, each cut into batches of execBatchSize
// rows that carry lanes and no rows, or, with rows set, plain row batches
// like a Motion receiver's. Both must agree with refAgg, a linear scan
// that groups by types.Compare equality and folds through aggAcc.

// laneSrc emits each chunk as windows of execBatchSize rows. keep, when
// set, drops rows through a selection vector, computed on the first pass
// over each window and reused by later ones; rows emits row-only batches;
// win adds the window's row headers beside the lanes, as a plain scan
// does.
type laneSrc struct {
	chunks    []*vec.ColumnSet
	keep      func(types.Row) bool
	rows, win bool
	c, pos, w int
	out       Batch
	sels      [][]int32 // each window's selection vector, in window order
}

func (s *laneSrc) Open(*Ctx) error  { s.c, s.pos, s.w = 0, 0, 0; return nil }
func (s *laneSrc) Close(*Ctx) error { return nil }

func (s *laneSrc) NextBatch(*Ctx) (*Batch, error) {
	for s.c < len(s.chunks) {
		cs := s.chunks[s.c]
		if s.pos >= cs.Len() {
			s.c, s.pos = s.c+1, 0
			continue
		}
		lo, hi := s.pos, min(s.pos+execBatchSize, cs.Len())
		s.pos = hi
		n, rows, sel := hi-lo, []types.Row(nil), []int32(nil)
		if s.keep != nil || s.rows {
			rows = cs.RowView()[lo:hi]
		}
		if s.keep != nil {
			if s.w == len(s.sels) {
				sel := []int32{}
				for k, r := range rows {
					if s.keep(r) {
						sel = append(sel, int32(k))
					}
				}
				s.sels = append(s.sels, sel)
			}
			sel, s.w = s.sels[s.w], s.w+1
			if n = len(sel); s.rows {
				kept := make([]types.Row, n)
				for j, k := range sel {
					kept[j] = rows[k]
				}
				rows = kept
			}
		}
		if n == 0 {
			continue
		}
		if s.rows {
			s.out.setRows(rows)
			return &s.out, nil
		}
		cols := append([]vec.View(nil), cs.ViewSnapshot()...)
		for j := range cols {
			cols[j].Base = lo
		}
		s.out.setLanes(cols, nil, n)
		s.out.Sel = sel
		if s.win {
			s.out.win = cs.RowView()[lo:hi]
		}
		return &s.out, nil
	}
	return nil, errEOF
}

// laneChunk builds one chunk: kinds declares each column's lane.
func laneChunk(kinds []types.Kind, rows []types.Row) *vec.ColumnSet {
	cs := vec.NewColumnSet(kinds)
	cs.AppendRows(rows)
	return cs
}

// aggInput is relation 1 with the columns k, k2 (group keys), v (an int
// argument) and f (a float argument); only its layout is read.
func aggInput(t testing.TB) plan.Node {
	t.Helper()
	tab, err := catalog.New().CreateTable("g", []catalog.Column{
		{Name: "k", Kind: types.KindInt}, {Name: "k2", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt}, {Name: "f", Kind: types.KindFloat},
	}, catalog.Hashed(0))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	return plan.NewScan(tab, 1)
}

// groupAgg aggregates aggInput grouped by its first keys columns. Every
// aggregate kind is computed, unless lean asks for COUNT(*) and SUM(f) only.
func groupAgg(t testing.TB, stage plan.AggStage, keys int, lean bool) *plan.HashAgg {
	out := func(ord int) expr.ColID { return expr.ColID{Rel: 9, Ord: ord} }
	var groups []plan.GroupCol
	for j, name := range []string{"k", "k2"}[:keys] {
		groups = append(groups, plan.GroupCol{E: tcol(1, j, name), Name: name, Out: out(j)})
	}
	v, f := tcol(1, 2, "v"), tcol(1, 3, "f")
	aggs := []plan.AggSpec{
		{Kind: plan.AggCount, Name: "n", Out: out(2)},
		{Kind: plan.AggSum, Arg: f, Name: "sf", Out: out(3)},
	}
	if !lean {
		aggs = append(aggs,
			plan.AggSpec{Kind: plan.AggCount, Arg: v, Name: "nv", Out: out(4)},
			plan.AggSpec{Kind: plan.AggSum, Arg: v, Name: "sv", Out: out(5)},
			plan.AggSpec{Kind: plan.AggAvg, Arg: v, Name: "av", Out: out(6)},
			plan.AggSpec{Kind: plan.AggMin, Arg: v, Name: "mn", Out: out(7)},
			plan.AggSpec{Kind: plan.AggMax, Arg: f, Name: "mx", Out: out(8)})
	}
	return plan.NewStagedHashAgg(stage, groups, aggs, aggInput(t))
}

// aggRun is one drive of a hashAggOp over a source.
type aggRun struct {
	rows         []types.Row
	hashed       int64 // rows the group cache could not resolve
	materialized int64 // batches whose rows were built from lanes
	spilled      bool
	direct       bool // the direct table was used
}

// runAgg drives the aggregate to the end under an optional work_mem.
func runAgg(t testing.TB, n *plan.HashAgg, src *laneSrc, workMem int64) aggRun {
	t.Helper()
	var budget *mem.Budget
	if workMem > 0 {
		gov := mem.NewGovernor(mem.Config{WorkMem: workMem, BaseDir: t.TempDir()})
		budget = gov.NewBudget()
		defer budget.Close()
	}
	stats := NewStats()
	ctx := newCtx(&Runtime{}, 0, nil, stats, context.Background(), budget, nil)
	ctx.pushOp(ctx.frameFor(n)) // the bare operator charges the node's frame
	op := &hashAggOp{n: n, child: src}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	var run aggRun
	run.direct = op.direct != nil
	for {
		b, err := op.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			t.Fatalf("next batch: %v", err)
		}
		run.rows = append(run.rows, b.Rows...)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	live := liveStats(ctx)
	run.hashed, run.materialized = op.hashedRows, live.RowsMaterializedBatches()
	run.spilled = live.SpilledBytes() > 0
	return run
}

// refAgg is the test reference for a hashAggOp: one linear scan over the
// input rows that finds each row's group by types.Compare equality of the
// keys (NULL equals NULL) and folds the row through aggAcc. A Final stage
// reads its keys and state columns by position.
func refAgg(t testing.TB, n *plan.HashAgg, rows []types.Row) []types.Row {
	t.Helper()
	final := n.Stage == plan.AggFinal
	env := expr.Env{Layout: n.Child.Layout()}
	eval := func(e expr.Expr) types.Datum {
		d, err := expr.Eval(e, &env)
		if err != nil {
			t.Fatalf("reference eval %s: %v", e, err)
		}
		return d
	}
	type group struct {
		key types.Row
		acc []aggAcc
	}
	var groups []*group
	for _, row := range rows {
		env.Row = row
		key := make(types.Row, len(n.Groups))
		for i, g := range n.Groups {
			if final {
				key[i] = row[i]
			} else {
				key[i] = eval(g.E)
			}
		}
		var g *group
		for _, cand := range groups {
			same := true
			for i := range key {
				same = same && types.Compare(cand.key[i], key[i]) == 0
			}
			if same {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: key, acc: make([]aggAcc, len(n.Aggs))}
			groups = append(groups, g)
		}
		pos := len(n.Groups)
		for i, ag := range n.Aggs {
			acc := &g.acc[i]
			switch {
			case final:
				var s1 types.Datum
				if ag.Kind.StateWidth() == 2 {
					s1 = row[pos+1]
				}
				acc.combine(ag.Kind, row[pos], s1)
				pos += ag.Kind.StateWidth()
			case ag.Arg == nil:
				acc.count++
			default:
				if v := eval(ag.Arg); !v.IsNull() {
					acc.fold(ag.Kind, v)
				}
			}
		}
	}
	if len(n.Groups) == 0 && len(groups) == 0 {
		groups = append(groups, &group{acc: make([]aggAcc, len(n.Aggs))})
	}
	out := make([]types.Row, len(groups))
	for r, g := range groups {
		row := append(types.Row(nil), g.key...)
		for i, ag := range n.Aggs {
			if n.Stage == plan.AggPartial {
				state := make(types.Row, ag.Kind.StateWidth())
				g.acc[i].emitState(ag.Kind, state)
				row = append(row, state...)
			} else {
				row = append(row, g.acc[i].finish(ag.Kind))
			}
		}
		out[r] = row
	}
	return out
}

// srcRows returns the rows a laneSrc over chunks with keep delivers.
func srcRows(chunks []*vec.ColumnSet, keep func(types.Row) bool) []types.Row {
	var rows []types.Row
	for _, cs := range chunks {
		for _, r := range cs.RowView() {
			if keep == nil || keep(r) {
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// rendered renders rows type-tagged, so an int 3 and a float 3 differ, and
// sorted.
func rendered(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		for _, d := range r {
			out[i] += fmt.Sprintf(" %s:%v", d.Kind(), d)
		}
	}
	sort.Strings(out)
	return out
}

// argRow is a row of aggInput: the keys, then v (NULL every 13th row) and f.
func argRow(i int, k, k2 types.Datum) types.Row {
	v := types.NewInt(int64(i))
	if i%13 == 0 {
		v = types.Null
	}
	return types.Row{k, k2, v, types.NewFloat(float64(i) * 0.25)}
}

// keyChunk builds a chunk of n rows whose key is key(i), on a lane of kind.
func keyChunk(kind types.Kind, from, n int, key func(i int) types.Datum) *vec.ColumnSet {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = argRow(from+i, key(from+i), types.NewInt(int64((from+i)%4)))
	}
	return laneChunk([]types.Kind{kind, types.KindInt, types.KindInt, types.KindFloat}, rows)
}

func TestHashAggTypedGroupsMatchRowLoop(t *testing.T) {
	i64, f64 := func(x int) types.Datum { return types.NewInt(int64(x)) }, types.NewFloat
	n := 3000
	threes := func(kind types.Kind, from int) *vec.ColumnSet {
		return keyChunk(kind, from, 40, func(i int) types.Datum {
			if kind == types.KindFloat {
				return f64(float64(i%2) + 3)
			}
			return i64(i%2 + 3)
		})
	}
	cases := []struct {
		name    string
		keys    int
		chunks  []*vec.ColumnSet
		keep    func(types.Row) bool
		workMem int64
		node    func(testing.TB, plan.AggStage) *plan.HashAgg // default: groupAgg over keys
		final   bool                                          // run the Final stage only
	}{
		{name: "int", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindInt, 0, n, func(i int) types.Datum { return i64(i % 25) })}},
		{name: "date", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindDate, 0, n, func(i int) types.Datum { return types.NewDate(int64(18000 + i%31)) })}},
		{name: "string", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindString, 0, n, func(i int) types.Datum {
			return types.NewString([]string{"s0", "s1", "a-much-longer-status-0", "a-much-longer-status-1", ""}[i%5])
		})}},
		{name: "float", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindFloat, 0, n, func(i int) types.Datum {
			return f64([]float64{0.5, math.Copysign(0, -1), 0, math.NaN(), -2.25, math.Inf(1), 0}[i%7])
		})}},
		{name: "bool", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindBool, 0, n, func(i int) types.Datum { return types.NewBool(i%3 == 0) })}},
		{name: "NULL keys", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindInt, 0, n, func(i int) types.Datum {
			if i%5 == 0 {
				return types.Null
			}
			return i64(i % 7)
		})}},
		{name: "chunks with and without NULLs", keys: 1, chunks: func() []*vec.ColumnSet {
			key := func(nulls bool) func(int) types.Datum {
				return func(i int) types.Datum {
					if nulls && i%3 == 0 {
						return types.Null
					}
					return i64(i % 10)
				}
			}
			return []*vec.ColumnSet{keyChunk(types.KindInt, 0, 500, key(true)), keyChunk(types.KindInt, 500, 500, key(false)), keyChunk(types.KindInt, 1000, 500, key(true))}
		}()},
		{name: "all-NULL lane", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindNull, 0, 50, func(int) types.Datum { return types.Null })}},
		{name: "mixed lane", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindFloat, 0, n, func(i int) types.Datum {
			switch i % 4 {
			case 0:
				return i64(i % 6)
			case 1:
				return types.Null
			}
			return f64(float64(i % 6))
		})}},
		{name: "int 3 then float 3.0", keys: 1, chunks: []*vec.ColumnSet{threes(types.KindInt, 0), threes(types.KindFloat, 40), threes(types.KindInt, 80)}},
		{name: "float 3.0 then int 3", keys: 1, chunks: []*vec.ColumnSet{threes(types.KindFloat, 0), threes(types.KindInt, 40), threes(types.KindFloat, 80)}},
		{name: "many colliding keys", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindInt, 0, n, func(i int) types.Datum { return i64(i * 7919 % 300) })}},
		{name: "many colliding strings", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindString, 0, n, func(i int) types.Datum { return types.NewString(fmt.Sprint("key-", i%200)) })}},
		{name: "selection vector", keys: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindInt, 0, n, func(i int) types.Datum { return i64(i % 9) })},
			keep: func(r types.Row) bool { return r[3].Float() < 100 || int(r[3].Float()*4)%3 != 0 }},
		{name: "two keys", keys: 2, chunks: []*vec.ColumnSet{keyChunk(types.KindString, 0, n, func(i int) types.Datum {
			if i%11 == 0 {
				return types.Null
			}
			return types.NewString(fmt.Sprint("g", i%6))
		})}},
		{name: "two keys, int and float lanes", keys: 2, chunks: []*vec.ColumnSet{threes(types.KindInt, 0), threes(types.KindFloat, 40)}},
		{name: "budget denied mid-batch", keys: 1, workMem: 4 << 10, chunks: []*vec.ColumnSet{keyChunk(types.KindInt, 0, n, func(i int) types.Datum { return i64(i % 97) })}},
		{name: "scalar, budget denied", workMem: 1, chunks: []*vec.ColumnSet{keyChunk(types.KindInt, 0, 300, func(i int) types.Datum { return i64(i % 5) })}},
		{name: "computed key and arguments", node: computedAgg, chunks: []*vec.ColumnSet{keyChunk(types.KindInt, 0, n, func(i int) types.Datum { return i64(i % 23) })}},
		{name: "computed key, budget denied", node: computedAgg, workMem: 4 << 10, chunks: []*vec.ColumnSet{keyChunk(types.KindInt, 0, n, func(i int) types.Datum { return i64(i % 97) })}},
		{name: "SUM and AVG over a date lane", keys: 1, chunks: []*vec.ColumnSet{valChunk(types.KindDate, 0, n, func(i int) types.Datum { return types.NewDate(int64(18000 + i%40)) })}},
		{name: "SUM and AVG over a mixed int/float lane", keys: 1, chunks: []*vec.ColumnSet{valChunk(types.KindFloat, 0, n, func(i int) types.Datum {
			if i%3 == 0 {
				return i64(i)
			}
			return f64(float64(i) * 0.5)
		})}},
		{name: "Final over state rows", keys: 1, final: true, chunks: []*vec.ColumnSet{stateChunk(1, 0, 500), stateChunk(1, 500, 700)}},
		{name: "Final over state rows, budget denied", keys: 1, final: true, workMem: 2 << 10, chunks: []*vec.ColumnSet{stateChunk(1, 0, 1200)}},
		{name: "scalar Final over state rows", final: true, chunks: []*vec.ColumnSet{stateChunk(0, 0, 40)}},
		// A resident scalar aggregate folds each batch into its one state.
		{name: "scalar, no NULLs", node: scalarAgg, chunks: []*vec.ColumnSet{scalarChunk(0, n, smallInt, thirds)}},
		{name: "scalar, NULLs", node: scalarAgg, chunks: []*vec.ColumnSet{scalarChunk(0, n, nullEvery(13, smallInt), nullEvery(7, thirds))}},
		{name: "scalar, NULLs, selection vector", node: scalarAgg, chunks: []*vec.ColumnSet{scalarChunk(0, n, nullEvery(13, smallInt), nullEvery(7, thirds))},
			keep: func(r types.Row) bool { return r[0].Int()%3 != 1 }},
		{name: "scalar, float lane NULL in the first batches", node: scalarAgg, chunks: []*vec.ColumnSet{
			scalarChunk(0, 1100, smallInt, func(int) types.Datum { return types.Null }), scalarChunk(1100, 900, smallInt, thirds)}},
		{name: "scalar, int SUM then an all-NULL float lane", node: scalarAgg, chunks: []*vec.ColumnSet{
			scalarChunk(0, 500, smallInt, thirds), floatArgs(scalarChunk(500, 200, func(int) types.Datum { return types.Null }, thirds)),
			scalarChunk(700, 500, smallInt, thirds)}},
		{name: "scalar, int SUM overflows mid-batch", node: scalarAgg, chunks: []*vec.ColumnSet{scalarChunk(0, n, nullEvery(13, func(i int) types.Datum {
			return i64(math.MaxInt64/256 + i)
		}), thirds)}},
	}
	for _, c := range cases {
		stages := []plan.AggStage{plan.AggSingle, plan.AggPartial}
		if c.final {
			stages = []plan.AggStage{plan.AggFinal}
		}
		for _, stage := range stages {
			node := groupAgg(t, stage, c.keys, false)
			if c.node != nil {
				node = c.node(t, stage)
			}
			want := rendered(refAgg(t, node, srcRows(c.chunks, c.keep)))
			for _, bs := range []int{1, 7, 1024} {
				for _, rowsOnly := range []bool{false, true} {
					name := fmt.Sprintf("%s/stage=%v/batch=%d/rows=%v", c.name, stage, bs, rowsOnly)
					func() {
						defer SetBatchSize(SetBatchSize(bs))
						got := runAgg(t, node, &laneSrc{chunks: c.chunks, keep: c.keep, rows: rowsOnly}, c.workMem)
						if g := rendered(got.rows); fmt.Sprint(g) != fmt.Sprint(want) {
							t.Errorf("%s: differs from the reference\n got %v\nwant %v", name, g, want)
						}
						// Keys and inputs are read as lanes whatever they
						// are (a computed key, a date SUM, a spill): no
						// batch of lanes is ever turned into rows.
						if got.materialized != 0 {
							t.Errorf("%s: %d batches materialized, want 0", name, got.materialized)
						}
						if c.workMem > 0 && !got.spilled {
							t.Errorf("%s: work_mem %d did not spill", name, c.workMem)
						}
					}()
				}
			}
		}
	}
}

// computedAgg groups aggInput by k % 50 and aggregates computed arguments.
func computedAgg(t testing.TB, stage plan.AggStage) *plan.HashAgg {
	out := func(ord int) expr.ColID { return expr.ColID{Rel: 9, Ord: ord} }
	k, v, f := tcol(1, 0, "k"), tcol(1, 2, "v"), tcol(1, 3, "f")
	groups := []plan.GroupCol{{E: &expr.Arith{Op: expr.Mod, L: k, R: intc(50)}, Name: "k50", Out: out(0)}}
	aggs := []plan.AggSpec{
		{Kind: plan.AggCount, Name: "n", Out: out(1)},
		{Kind: plan.AggSum, Arg: &expr.Arith{Op: expr.Mul, L: v, R: intc(2)}, Name: "s", Out: out(2)},
		{Kind: plan.AggAvg, Arg: &expr.Arith{Op: expr.Add, L: f, R: v}, Name: "a", Out: out(3)},
		{Kind: plan.AggMin, Arg: &expr.Arith{Op: expr.Sub, L: v, R: k}, Name: "mn", Out: out(4)},
		{Kind: plan.AggCount, Arg: &expr.Arith{Op: expr.Mul, L: v, R: intc(2)}, Name: "nv", Out: out(5)},
	}
	return plan.NewStagedHashAgg(stage, groups, aggs, aggInput(t))
}

// scalarAgg aggregates aggInput without group keys: COUNT(*), and COUNT,
// SUM and AVG over the int argument v and the float argument f, then
// MIN(v) and MAX(f).
func scalarAgg(t testing.TB, stage plan.AggStage) *plan.HashAgg {
	out := func(ord int) expr.ColID { return expr.ColID{Rel: 9, Ord: ord} }
	v, f := tcol(1, 2, "v"), tcol(1, 3, "f")
	aggs := []plan.AggSpec{{Kind: plan.AggCount, Name: "n", Out: out(0)}}
	for _, arg := range []*expr.Col{v, f} {
		for _, kind := range []plan.AggKind{plan.AggCount, plan.AggSum, plan.AggAvg} {
			aggs = append(aggs, plan.AggSpec{Kind: kind, Arg: arg, Name: fmt.Sprint(kind, arg.Name), Out: out(len(aggs))})
		}
	}
	aggs = append(aggs,
		plan.AggSpec{Kind: plan.AggMin, Arg: v, Name: "mn", Out: out(len(aggs))},
		plan.AggSpec{Kind: plan.AggMax, Arg: f, Name: "mx", Out: out(len(aggs) + 1)})
	return plan.NewStagedHashAgg(stage, nil, aggs, aggInput(t))
}

// smallInt and thirds are scalarChunk arguments: an int that stays small,
// and a float whose running sum rounds, so a sum folded in another order
// differs in its last bits (rendered prints the shortest string that reads
// back as the same float, so the comparison is bit for bit).
func smallInt(i int) types.Datum { return types.NewInt(int64(i*3 - 50)) }
func thirds(i int) types.Datum   { return types.NewFloat(float64(i)/3 + 0.1) }

// nullEvery makes every m-th value of val NULL.
func nullEvery(m int, val func(int) types.Datum) func(int) types.Datum {
	return func(i int) types.Datum {
		if i%m == 0 {
			return types.Null
		}
		return val(i)
	}
}

// scalarChunk builds n rows of aggInput whose arguments v and f are v(i)
// and f(i), on an int and a float lane.
func scalarChunk(from, n int, v, f func(i int) types.Datum) *vec.ColumnSet {
	rows := make([]types.Row, n)
	for j := range rows {
		i := from + j
		rows[j] = types.Row{types.NewInt(int64(i % 25)), types.NewInt(int64(i % 4)), v(i), f(i)}
	}
	return laneChunk([]types.Kind{types.KindInt, types.KindInt, types.KindInt, types.KindFloat}, rows)
}

// floatArgs rebuilds a scalarChunk with its int argument v on a float
// lane: an aggregate's input may change lane kind from one batch to the
// next.
func floatArgs(cs *vec.ColumnSet) *vec.ColumnSet {
	return laneChunk([]types.Kind{types.KindInt, types.KindInt, types.KindFloat, types.KindFloat}, cs.RowView())
}

// valChunk builds a chunk of n rows of aggInput whose argument v is val(i)
// (NULL every 13th row) on a lane of kind, keyed by i % 25.
func valChunk(kind types.Kind, from, n int, val func(i int) types.Datum) *vec.ColumnSet {
	rows := make([]types.Row, n)
	for j := range rows {
		i := from + j
		rows[j] = argRow(i, types.NewInt(int64(i%25)), types.NewInt(int64(i%4)))
		if !rows[j][2].IsNull() {
			rows[j][2] = val(i)
		}
	}
	return laneChunk([]types.Kind{types.KindInt, types.KindInt, kind, types.KindFloat}, rows)
}

// stateChunk builds n rows shaped like the output of
// groupAgg(AggPartial, keys, false) for no or one key: the key (NULL every
// 11th row), then the state columns of COUNT(*), SUM(f), COUNT(v), SUM(v), AVG(v) (sum and
// count), MIN(v) and MAX(f). The SUM(v) lane is mixed: a sum that
// overflowed int64 went on in float.
func stateChunk(keys, from, n int) *vec.ColumnSet {
	rows := make([]types.Row, n)
	for j := range rows {
		i := from + j
		key := types.NewInt(int64(i % 6))
		if i%11 == 0 {
			key = types.Null
		}
		nv := int64(i % 4)
		sumV, sumF, minV, maxF := types.NewInt(int64(i*3-100)), types.NewFloat(float64(i)*0.75), types.NewInt(int64(i%17-8)), types.NewFloat(float64(i%29)/4)
		switch {
		case nv == 0:
			sumV, minV = types.Null, types.Null
		case i%9 == 0:
			sumV = types.NewFloat(float64(i) * 1e18)
		}
		if i%7 == 0 {
			sumF, maxF = types.Null, types.Null
		}
		rows[j] = types.Row{key, types.NewInt(int64(i % 5)), sumF, types.NewInt(nv), sumV, sumV, types.NewInt(nv), minV, maxF}[1-keys:]
	}
	kinds := []types.Kind{types.KindInt, types.KindInt, types.KindFloat, types.KindInt, types.KindInt, types.KindInt, types.KindInt, types.KindInt, types.KindFloat}
	return laneChunk(kinds[1-keys:], rows)
}

func TestHashAggGroupCacheHashesOnlyOnMiss(t *testing.T) {
	const rows = 100_000
	cases := []struct {
		name string
		kind types.Kind
		key  func(i int) types.Datum
	}{
		{"25 int keys", types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i%25 + 1)) }},
		{"5 string keys", types.KindString, func(i int) types.Datum { return types.NewString(fmt.Sprint("s", i%5)) }},
	}
	for _, c := range cases {
		src := &laneSrc{chunks: []*vec.ColumnSet{keyChunk(c.kind, 0, rows, c.key)}}
		run := runAgg(t, groupAgg(t, plan.AggPartial, 1, false), src, 0)
		if run.hashed > groupCacheSlots {
			t.Errorf("%s: hashed %d of %d rows, want at most %d", c.name, run.hashed, rows, groupCacheSlots)
		}
		if run.materialized != 0 {
			t.Errorf("%s: %d batches materialized, want 0", c.name, run.materialized)
		}
	}
}

// BenchmarkHashAggGroups folds 200 000 rows per iteration, computing
// COUNT(*) and SUM over a float lane, and reports ns/row. The int and date
// keys of few groups resolve through the direct table, and int-25-sel
// reads every other row through a selection vector (ns per row offered).
// The 100 000-group case lies mostly outside the direct table and misses
// the group cache on nearly every row; the scalar case has no group key,
// so every batch folds into its one state. The rows- case feeds row
// batches without lanes, like a Motion receiver's output, so the keys and
// the argument are copied into lanes first.
func BenchmarkHashAggGroups(b *testing.B) {
	const rows = 200_000
	odd := func(r types.Row) bool { return int(r[3].Float()*4)%2 == 1 } // f is i/4
	cases := []struct {
		name    string
		keys    int
		kind    types.Kind
		key     func(i int) types.Datum
		rowsOut bool
		keep    func(types.Row) bool
	}{
		{"int-25", 1, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i%25 + 1)) }, false, nil},
		{"int-25-sel", 1, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i%25 + 1)) }, false, odd},
		{"date-31", 1, types.KindDate, func(i int) types.Datum { return types.NewDate(int64(18000 + i%31)) }, false, nil},
		{"string-5", 1, types.KindString, func(i int) types.Datum { return types.NewString(fmt.Sprint("s", i%5)) }, false, nil},
		{"int-100000", 1, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i % 100_000)) }, false, nil},
		{"two-keys-20", 2, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i / 4 % 5)) }, false, nil},
		{"rows-int-25", 1, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i%25 + 1)) }, true, nil},
		{"scalar", 0, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i)) }, false, nil},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			src := &laneSrc{chunks: []*vec.ColumnSet{keyChunk(c.kind, 0, rows, c.key)}, rows: c.rowsOut, keep: c.keep}
			n := groupAgg(b, plan.AggPartial, c.keys, true)
			if c.keep != nil {
				runAgg(b, n, src, 0) // computes the selection vectors before the timer starts
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				runAgg(b, n, src, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// TestHashAggDirectGroups holds the direct table — one key on a NULL-free
// int or date lane — to refAgg, lane and row-only batches alike. Where
// hashed is set, the operator must hash exactly that many rows: one per
// distinct key when every key goes through the table.
func TestHashAggDirectGroups(t *testing.T) {
	ints := func(kind types.Kind, from, n int, key func(i int) int64) *vec.ColumnSet {
		return keyChunk(kind, from, n, func(i int) types.Datum {
			if kind == types.KindDate {
				return types.NewDate(key(i))
			}
			return types.NewInt(key(i))
		})
	}
	bools := keyChunk(types.KindBool, 300, 300, func(i int) types.Datum { return types.NewBool(i%3 == 0) })
	// The spilled keys: a few in partition 0 within half a table of each
	// other, and in partition 1 x, x−17 and x+17, whose cache slots
	// collide. Partition 1's keys lie inside the table only if loadNextPart
	// placed it anew, around that partition's first key x; otherwise x−17
	// and x+17 evict each other from the cache on every row.
	part := func(x int64) uint64 { return types.HashInt64(types.HashSeed, x) % spillFanout }
	var p0, p1 []int64
	for x := int64(0); x < directSize/2; x++ {
		if part(x) == 0 {
			p0 = append(p0, x)
		}
	}
	for x := int64(1 << 20); p1 == nil; x++ {
		if part(x) == 1 && part(x-17) == 1 && part(x+17) == 1 && cacheSlot(uint64(x-17)) == cacheSlot(uint64(x+17)) {
			p1 = []int64{x, x - 17, x + 17}
		}
	}
	const spillRows = 1200
	spillKey := func(i int) int64 {
		if i%2 == 0 {
			return p0[i/2%len(p0)]
		}
		return p1[i/2%len(p1)]
	}
	cases := []struct {
		name    string
		chunks  []*vec.ColumnSet
		keep    func(types.Row) bool
		workMem int64
		final   bool
		apart   bool  // the first chunk's keys never compare with the rest's (int and bool)
		hashed  int64 // rows hashed; 0: not checked
		direct  int   // 1: the table must have been used; -1: it must not
	}{
		{name: "keys drifting out of the table across batches", chunks: []*vec.ColumnSet{
			ints(types.KindInt, 0, 1500, func(i int) int64 { return int64(i / 10) }),
			ints(types.KindInt, 1500, 1500, func(i int) int64 { return int64(-i / 20) }),
		}, hashed: 150 + 75, direct: 1},
		{name: "keys outside the table", chunks: []*vec.ColumnSet{
			ints(types.KindInt, 0, 3000, func(i int) int64 { return int64(i % 7 * directSize) }),
			ints(types.KindInt, 3000, 3000, func(i int) int64 { return int64(i * 7919 % 50_000) }),
		}},
		{name: "negative keys", chunks: []*vec.ColumnSet{
			ints(types.KindInt, 0, 3000, func(i int) int64 { return int64(-1000 - i%40) }),
		}, hashed: 40, direct: 1},
		{name: "keys around the ends of int64", chunks: []*vec.ColumnSet{
			ints(types.KindInt, 0, 2000, func(i int) int64 { return math.MaxInt64 - 1 + int64(i%4) }), // wraps to MinInt64
		}, hashed: 4, direct: 1},
		{name: "int lane then date lane, equal values", chunks: []*vec.ColumnSet{
			ints(types.KindInt, 0, 500, func(i int) int64 { return int64(i % 30) }),
			ints(types.KindDate, 500, 500, func(i int) int64 { return int64(i % 30) }),
		}, hashed: 30, direct: 1},
		{name: "date lane then int lane, equal values", chunks: []*vec.ColumnSet{
			ints(types.KindDate, 0, 500, func(i int) int64 { return int64(18000 + i%30) }),
			ints(types.KindInt, 500, 500, func(i int) int64 { return int64(18000 + i%30) }),
		}, hashed: 30, direct: 1},
		{name: "bool keys", chunks: []*vec.ColumnSet{bools}, direct: -1},
		{name: "int keys 0 and 1, then bool keys", chunks: []*vec.ColumnSet{
			ints(types.KindInt, 0, 300, func(i int) int64 { return int64(i % 2) }), bools,
		}, apart: true, direct: 1},
		{name: "argument lane int, then float", chunks: []*vec.ColumnSet{
			scalarChunk(0, 500, smallInt, thirds), floatArgs(scalarChunk(500, 500, thirds, thirds)),
			scalarChunk(1000, 300, smallInt, thirds), floatArgs(scalarChunk(1300, 300, nullEvery(13, thirds), thirds)),
		}, hashed: 25, direct: 1},
		{name: "spill under a 1-byte work_mem", workMem: 1, chunks: []*vec.ColumnSet{
			ints(types.KindInt, 0, spillRows, spillKey),
		}, hashed: spillRows + int64(len(p0)+len(p1))},
		{name: "Final over row-only input", final: true, chunks: []*vec.ColumnSet{stateChunk(1, 0, 1200)},
			keep: func(r types.Row) bool { return !r[0].IsNull() }, hashed: 6, direct: 1},
	}
	for _, c := range cases {
		stages := []plan.AggStage{plan.AggSingle, plan.AggPartial}
		if c.final {
			stages = []plan.AggStage{plan.AggFinal}
		}
		for _, stage := range stages {
			node := groupAgg(t, stage, 1, false)
			var want []types.Row
			if c.apart { // bool 1 is not int 1: each kind's groups are its own chunks'
				want = append(refAgg(t, node, srcRows(c.chunks[:1], c.keep)), refAgg(t, node, srcRows(c.chunks[1:], c.keep))...)
			} else {
				want = refAgg(t, node, srcRows(c.chunks, c.keep))
			}
			for _, bs := range []int{1, 7, 1024} {
				for _, rowsOnly := range []bool{false, true} {
					name := fmt.Sprintf("%s/stage=%v/batch=%d/rows=%v", c.name, stage, bs, rowsOnly || c.final)
					func() {
						defer SetBatchSize(SetBatchSize(bs))
						got := runAgg(t, node, &laneSrc{chunks: c.chunks, keep: c.keep, rows: rowsOnly || c.final}, c.workMem)
						if g, w := rendered(got.rows), rendered(want); fmt.Sprint(g) != fmt.Sprint(w) {
							t.Errorf("%s: differs from the reference\n got %v\nwant %v", name, g, w)
						}
						if c.hashed > 0 && got.hashed != c.hashed {
							t.Errorf("%s: hashed %d rows, want %d", name, got.hashed, c.hashed)
						}
						if (c.direct > 0 && !got.direct) || (c.direct < 0 && got.direct) {
							t.Errorf("%s: direct table used: %v (want %d: 1 used, -1 unused)", name, got.direct, c.direct)
						}
						if c.workMem > 0 && !got.spilled {
							t.Errorf("%s: work_mem %d did not spill", name, c.workMem)
						}
					}()
				}
			}
		}
	}
}
