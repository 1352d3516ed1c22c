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

// The typed accumulate loop against the row loop. A hashAggOp reads a
// laneSrc: chunks of column lanes, each cut into batches of execBatchSize
// rows that carry lanes and no rows. With rows set the same source emits
// plain row batches, so every row takes the row loop: that run is the
// oracle.

// laneSrc emits each chunk as windows of execBatchSize rows. keep, when
// set, drops rows through a selection vector; rows emits row-only batches.
type laneSrc struct {
	chunks []*vec.ColumnSet
	keep   func(types.Row) bool
	rows   bool
	c, pos int
	out    Batch
	sel    []int32
}

func (s *laneSrc) Open(*Ctx) error  { s.c, s.pos = 0, 0; return nil }
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
			var kept []types.Row
			s.sel = s.sel[:0]
			for k, r := range rows {
				if s.keep(r) {
					s.sel = append(s.sel, int32(k))
					kept = append(kept, r)
				}
			}
			n, rows, sel = len(kept), kept, s.sel
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
		s.out = Batch{Cols: cols, Sel: sel, n: n}
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
	typed, row   int64 // child batches folded by each loop
	hashed       int64 // rows the typed loop hashed
	materialized int64 // batches whose rows were built from lanes
	spilled      bool
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
	run.typed, run.row = live.AggBatches().Total()
	run.hashed, run.materialized = op.hashedRows, live.RowsMaterializedBatches()
	run.spilled = live.SpilledBytes() > 0
	return run
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
	}
	for _, c := range cases {
		for _, stage := range []plan.AggStage{plan.AggSingle, plan.AggPartial} {
			for _, bs := range []int{1, 7, 1024} {
				name := fmt.Sprintf("%s/stage=%d/batch=%d", c.name, stage, bs)
				func() {
					defer SetBatchSize(SetBatchSize(bs))
					rowSrc := &laneSrc{chunks: c.chunks, keep: c.keep, rows: true}
					want := runAgg(t, groupAgg(t, stage, c.keys, false), rowSrc, c.workMem)
					src := &laneSrc{chunks: c.chunks, keep: c.keep}
					got := runAgg(t, groupAgg(t, stage, c.keys, false), src, c.workMem)
					if g, w := rendered(got.rows), rendered(want.rows); fmt.Sprint(g) != fmt.Sprint(w) {
						t.Errorf("%s: typed loop differs from the row loop\n got %v\nwant %v", name, g, w)
					}
					if want.typed != 0 {
						t.Errorf("%s: oracle folded %d typed batches", name, want.typed)
					}
					if got.typed == 0 && got.hashed == 0 {
						// A budget denial mid-batch counts the batch as a row
						// batch; the typed prefix before it hashed its groups.
						t.Errorf("%s: the typed loop never ran (%d row batches)", name, got.row)
					}
					if c.workMem > 0 && (!got.spilled || !want.spilled) {
						t.Errorf("%s: work_mem %d did not spill (typed %v, oracle %v)", name, c.workMem, got.spilled, want.spilled)
					}
				}()
			}
		}
	}
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
		if run.materialized != 0 || run.row != 0 {
			t.Errorf("%s: %d batches materialized, %d row batches; want 0", c.name, run.materialized, run.row)
		}
	}
}

// BenchmarkHashAggGroups folds 200 000 rows per iteration through the typed
// loop, computing COUNT(*) and SUM over a float lane, and reports ns/row.
// The 100 000-group case misses the group cache on nearly every row.
func BenchmarkHashAggGroups(b *testing.B) {
	const rows = 200_000
	cases := []struct {
		name string
		keys int
		kind types.Kind
		key  func(i int) types.Datum
	}{
		{"int-25", 1, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i%25 + 1)) }},
		{"string-5", 1, types.KindString, func(i int) types.Datum { return types.NewString(fmt.Sprint("s", i%5)) }},
		{"int-100000", 1, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i % 100_000)) }},
		{"two-keys-20", 2, types.KindInt, func(i int) types.Datum { return types.NewInt(int64(i / 4 % 5)) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			src := &laneSrc{chunks: []*vec.ColumnSet{keyChunk(c.kind, 0, rows, c.key)}}
			n := groupAgg(b, plan.AggPartial, c.keys, true)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				runAgg(b, n, src, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
