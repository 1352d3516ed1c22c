package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// The hash join's lane output against a nested-loop oracle. Build table
// b(k int, x int, s string) joins probe tables whose key column differs
// only in representation:
//
//	p  k int   — typed int lane; probe k=5 matches three build rows
//	f  k float — typed float lane; 1.0 must equal the build's int 1
//	m  k float — ints and floats mixed in one column: a degraded lane
//
// Every table has NULL keys. Each probe table is read three ways: a scan
// (lanes and rows), a row-path filter (rows only) and a projection of a
// RIGHT JOIN against an empty table (lanes only, rows lazy).

type laneFixture struct {
	rt     *Runtime
	tabs   map[string]*catalog.Table
	data   map[string][]types.Row
	bWidth int
}

func joinLaneFixture(t *testing.T) *laneFixture {
	t.Helper()
	cat := catalog.New()
	st := storage.NewStore(1)
	i, f, s := types.NewInt, types.NewFloat, types.NewString
	null := types.Null
	defs := []struct {
		name string
		cols []catalog.Column
		rows []types.Row
	}{
		{"b", []catalog.Column{{Name: "k", Kind: types.KindInt}, {Name: "x", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}},
			[]types.Row{
				{i(1), i(10), s("one")}, {i(2), i(20), s("two")}, {i(5), i(50), s("five-a")}, {i(5), i(51), s("five-b")},
				{i(5), i(52), null}, {null, i(99), s("null-key")}, {i(7), i(70), s("seven")}, {i(8), i(80), s("eight")},
				{i(9), i(90), s("nine")},
			}},
		{"p", []catalog.Column{{Name: "k", Kind: types.KindInt}, {Name: "y", Kind: types.KindInt}},
			[]types.Row{{i(1), i(100)}, {i(5), i(500)}, {i(5), i(505)}, {null, i(900)}, {i(3), i(300)}, {i(7), i(700)}, {i(8), i(800)}}},
		{"f", []catalog.Column{{Name: "k", Kind: types.KindFloat}, {Name: "y", Kind: types.KindInt}},
			[]types.Row{{f(1), i(100)}, {f(5), i(500)}, {null, i(900)}, {f(2.5), i(250)}, {f(8), i(800)}}},
		{"m", []catalog.Column{{Name: "k", Kind: types.KindFloat}, {Name: "y", Kind: types.KindInt}},
			[]types.Row{{i(1), i(100)}, {f(5), i(500)}, {null, i(900)}, {f(7), i(700)}, {i(2), i(200)}, {i(4), i(400)}}},
		{"u", []catalog.Column{{Name: "u", Kind: types.KindInt}}, nil},
	}
	fx := &laneFixture{tabs: map[string]*catalog.Table{}, data: map[string][]types.Row{}, bWidth: 3}
	for _, d := range defs {
		tab, err := cat.CreateTable(d.name, d.cols, catalog.Hashed(0))
		if err != nil {
			t.Fatalf("create %s: %v", d.name, err)
		}
		st.CreateTable(tab)
		for _, row := range d.rows {
			if err := st.Insert(tab, row); err != nil {
				t.Fatalf("insert %s: %v", d.name, err)
			}
		}
		fx.tabs[d.name], fx.data[d.name] = tab, d.rows
	}
	fx.rt = &Runtime{Store: st}
	return fx
}

// probeInput reads probe table name as relation 2 in one of three shapes.
func (fx *laneFixture) probeInput(name, shape string) plan.Node {
	tab := fx.tabs[name]
	scan := plan.NewScan(tab, 2)
	switch shape {
	case "rows":
		// Arithmetic does not compile to a vector kernel: the row loop runs
		// and the filter emits rows without lanes.
		y := expr.NewCol(expr.ColID{Rel: 2, Ord: 1}, "y")
		return plan.NewFilter(expr.NewCmp(expr.GE, &expr.Arith{Op: expr.Add, L: y, R: intc(0)}, intc(0)), scan)
	case "lazy":
		// Every probe row survives a RIGHT JOIN against the empty u; the
		// projection keeps the probe columns under their own identities.
		join := plan.NewHashJoin(plan.RightOuterJoin,
			[]expr.Expr{expr.NewCol(expr.ColID{Rel: 3, Ord: 0}, "u")},
			[]expr.Expr{expr.NewCol(expr.ColID{Rel: 2, Ord: 0}, "k")},
			nil, plan.NewScan(fx.tabs["u"], 3), scan, nil)
		var cols []plan.ProjCol
		for ord := range tab.Cols {
			id := expr.ColID{Rel: 2, Ord: ord}
			cols = append(cols, plan.ProjCol{E: expr.NewCol(id, tab.Cols[ord].Name), Name: tab.Cols[ord].Name, Out: id})
		}
		return plan.NewProject(cols, join)
	}
	return scan
}

// residual keeps a match only when b.x * 10 <= probe.y: of the three b rows
// keyed 5, probe y=500 keeps one and y=505 keeps one.
func laneResidual() expr.Expr {
	x := expr.NewCol(expr.ColID{Rel: 1, Ord: 1}, "x")
	y := expr.NewCol(expr.ColID{Rel: 2, Ord: 1}, "y")
	return expr.NewCmp(expr.LE, &expr.Arith{Op: expr.Mul, L: x, R: intc(10)}, y)
}

func (fx *laneFixture) joinPlan(jt plan.JoinType, probe, shape string, residual expr.Expr) plan.Node {
	return plan.NewHashJoin(jt,
		[]expr.Expr{expr.NewCol(expr.ColID{Rel: 1, Ord: 0}, "k")},
		[]expr.Expr{expr.NewCol(expr.ColID{Rel: 2, Ord: 0}, "k")},
		residual, plan.NewScan(fx.tabs["b"], 1), fx.probeInput(probe, shape), nil)
}

// oracle is the nested-loop answer, rendered and sorted.
func (fx *laneFixture) oracle(t *testing.T, jt plan.JoinType, probe string, residual expr.Expr) []string {
	t.Helper()
	bRows, pRows := fx.data["b"], fx.data[probe]
	pWidth := len(fx.tabs[probe].Cols)
	layout := expr.Concat(plan.NewScan(fx.tabs["b"], 1).Layout(), plan.NewScan(fx.tabs[probe], 2).Layout())
	env := expr.Env{Layout: layout}
	joins := func(b, p types.Row) bool {
		if b[0].IsNull() || p[0].IsNull() || !types.Equal(b[0], p[0]) {
			return false
		}
		if residual == nil {
			return true
		}
		env.Row = append(append(types.Row{}, b...), p...)
		ok, err := expr.EvalPred(residual, &env)
		if err != nil {
			t.Fatalf("oracle residual: %v", err)
		}
		return ok
	}
	var out []types.Row
	bHit := make([]bool, len(bRows))
	for _, p := range pRows {
		hit := false
		for bi, b := range bRows {
			if !joins(b, p) {
				continue
			}
			bHit[bi] = true
			if jt == plan.SemiJoin {
				if !hit {
					out = append(out, p)
				}
			} else {
				out = append(out, append(append(types.Row{}, b...), p...))
			}
			hit = true
		}
		if !hit && jt == plan.RightOuterJoin {
			out = append(out, append(nullRow(fx.bWidth), p...))
		}
	}
	if jt == plan.LeftOuterJoin {
		for bi, b := range bRows {
			if !bHit[bi] {
				out = append(out, append(append(types.Row{}, b...), nullRow(pWidth)...))
			}
		}
	}
	return rowKeys(out)
}

func nullRow(n int) types.Row { return make(types.Row, n) } // the zero datum is NULL

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\n  got  %v\n  want %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

var laneJoinTypes = []plan.JoinType{plan.InnerJoin, plan.SemiJoin, plan.LeftOuterJoin, plan.RightOuterJoin}

// Every join type over every probe representation, with and without a
// residual, at batch sizes 1, 7 and 1024, equals the nested-loop oracle.
// The "rows" shape feeds a row-only probe, so the join's row key path runs
// too.
func TestHashJoinLanesMatchOracle(t *testing.T) {
	fx := joinLaneFixture(t)
	for _, probe := range []string{"p", "f", "m"} {
		for _, shape := range []string{"scan", "rows", "lazy"} {
			for _, jt := range laneJoinTypes {
				for _, residual := range []expr.Expr{nil, laneResidual()} {
					want := fx.oracle(t, jt, probe, residual)
					for _, bs := range []int{1, 7, DefaultBatchSize} {
						name := fmt.Sprintf("%s/%s/%v/residual=%v/batch=%d", probe, shape, jt, residual != nil, bs)
						prevBS := SetBatchSize(bs)
						res, err := RunLocal(fx.rt, fx.joinPlan(jt, probe, shape, residual), 0, nil)
						SetBatchSize(prevBS)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sameKeys(t, name, rowKeys(res.Rows), want)
					}
				}
			}
		}
	}
}

// The same joins under a 256-byte work_mem spill (Grace partitions, probe
// partitions read back as rows) and still equal the oracle.
func TestHashJoinLanesSpill(t *testing.T) {
	fx := joinLaneFixture(t)
	for _, probe := range []string{"p", "f", "m"} {
		for _, jt := range laneJoinTypes {
			for _, residual := range []expr.Expr{nil, laneResidual()} {
				want := fx.oracle(t, jt, probe, residual)
				name := fmt.Sprintf("%s/%v/residual=%v", probe, jt, residual != nil)
				base := t.TempDir()
				gov := mem.NewGovernor(mem.Config{WorkMem: 256, BaseDir: base})
				fx.rt.Gov = gov
				res, err := RunLocal(fx.rt, fx.joinPlan(jt, probe, "scan", residual), 0, nil)
				fx.rt.Gov = nil
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Stats.SpilledBytes() == 0 {
					t.Fatalf("%s: 256-byte work_mem did not spill", name)
				}
				sameKeys(t, name, rowKeys(res.Rows), want)
				if used := gov.Used(); used != 0 {
					t.Fatalf("%s: governor still holds %d bytes", name, used)
				}
				assertNoSpillLeak(t, base)
			}
		}
	}
}

// A consumer that materializes a lane batch's rows may keep them: the next
// NextBatch refills the join's lanes, not the materialized rows, and every
// materialization is counted.
func TestHashJoinMaterializedRowsStable(t *testing.T) {
	defer SetBatchSize(SetBatchSize(2))
	fx := joinLaneFixture(t)
	stats := NewStats()
	ctx := newCtx(fx.rt, 0, nil, stats, context.Background(), nil, nil)
	root := fx.joinPlan(plan.InnerJoin, "p", "scan", nil)
	ctx.pushOp(ctx.frameFor(root)) // the drain below is charged to the root, as in the slice driver
	op, err := buildOp(root, nil, nil)
	if err != nil {
		t.Fatalf("buildOp: %v", err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	defer op.Close(ctx)
	var kept []types.Row
	var rendered []string
	batches := 0
	for {
		b, err := op.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			t.Fatalf("next batch: %v", err)
		}
		if b.Rows != nil || b.Cols == nil {
			t.Fatalf("batch %d: want lanes with lazy rows", batches)
		}
		for _, row := range b.rows(ctx) {
			kept = append(kept, row)
			rendered = append(rendered, fmt.Sprint(row))
		}
		batches++
	}
	if batches < 3 {
		t.Fatalf("%d batches: the join did not emit several", batches)
	}
	for i, row := range kept {
		if got := fmt.Sprint(row); got != rendered[i] {
			t.Fatalf("kept row %d changed after later batches: %s, was %s", i, got, rendered[i])
		}
	}
	sort.Strings(rendered)
	sameKeys(t, "materialized rows", rendered, fx.oracle(t, plan.InnerJoin, "p", nil))
	if got := liveStats(ctx).RowsMaterializedBatches(); got != int64(batches) {
		t.Fatalf("materialized batches = %d, want %d", got, batches)
	}
}

// Hash collisions are too rare to reach through a query, so the key check
// is driven directly: a build key lane — one value per lane (typed int,
// typed float, all-NULL) or every value in one degraded lane — against the
// probe key read off a typed int lane, a float lane, a degraded lane, a
// lane under Sel, and the same keys as plain rows.
func TestHashJoinKeysEqual(t *testing.T) {
	i, f := types.NewInt, types.NewFloat
	probeKey := expr.NewCol(expr.ColID{Rel: 2, Ord: 0}, "k")
	probe := *newKeyLanes([]expr.Expr{probeKey}, expr.Layout{probeKey.ID: 0}, nil)
	// Build key 1 equals probe slot 0 (1 or 1.0), 2 slot 1, nothing equals
	// the NULL in slot 2, and a NULL build key equals nothing.
	checks := []struct {
		build types.Datum
		k     int
		want  bool
	}{{i(1), 0, true}, {f(1), 0, true}, {i(2), 0, false}, {i(2), 1, true}, {f(2.5), 1, false},
		{types.Null, 2, false}, {i(1), 2, false}, {types.Null, 0, false}}
	table := func(vals ...types.Datum) *joinTable {
		tb := &joinTable{keys: make([]vec.Lane, 1)}
		tb.keys[0].Reset()
		for _, v := range vals {
			tb.keys[0].AppendDatum(v)
			tb.rows, tb.hash = append(tb.rows, types.Row{v}), append(tb.hash, 0)
		}
		tb.link()
		return tb
	}
	var all []types.Datum
	for _, c := range checks {
		all = append(all, c.build)
	}
	degraded := table(all...)
	cases := []struct {
		name string
		rows []types.Row // the probe key column
		sel  []int32
	}{
		{"int lane", []types.Row{{i(1)}, {i(2)}, {types.Null}, {i(3)}}, nil},
		{"float lane", []types.Row{{f(1)}, {f(2)}, {types.Null}, {f(3)}}, nil},
		{"degraded lane", []types.Row{{i(1)}, {f(2)}, {types.Null}, {types.NewString("3")}}, nil},
		{"selected", []types.Row{{i(9)}, {i(1)}, {i(2)}, {types.Null}, {i(3)}}, []int32{1, 2, 3, 4}},
	}
	for _, tc := range cases {
		var lane vec.Lane
		lane.Reset()
		lane.AppendColumn(tc.rows, 0)
		b := &Batch{Cols: []vec.View{lane.View()}, Sel: tc.sel, n: 4}
		for _, rows := range []bool{false, true} {
			pb := b
			if rows {
				pb = &Batch{n: 4}
				pb.setRows(b.rows(&Ctx{}))
			}
			if err := probe.load(pb); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for ci, c := range checks {
				if got := table(c.build).keysEqual(0, &probe, c.k); got != c.want {
					t.Errorf("%s (rows=%v): build %v vs slot %d = %v, want %v", tc.name, rows, c.build, c.k, got, c.want)
				}
				if got := degraded.keysEqual(int32(ci), &probe, c.k); got != c.want {
					t.Errorf("%s (rows=%v, degraded build lane): build %v vs slot %d = %v, want %v", tc.name, rows, c.build, c.k, got, c.want)
				}
			}
		}
	}
}

// Distinct keys forced onto one hash share one chain: each probe key must
// find exactly the build positions holding it, in build order, and a key
// the build side lacks finds none.
func TestJoinTableForcedCollision(t *testing.T) {
	const h = 42
	bk := expr.NewCol(expr.ColID{Rel: 1, Ord: 0}, "k")
	pk := expr.NewCol(expr.ColID{Rel: 2, Ord: 0}, "k")
	build := *newKeyLanes([]expr.Expr{bk}, expr.Layout{bk.ID: 0}, nil)
	probe := *newKeyLanes([]expr.Expr{pk}, expr.Layout{pk.ID: 0}, nil)
	var rows []types.Row
	var slots []int32
	for p := 0; p < 100; p++ {
		rows = append(rows, types.Row{types.NewInt(int64(p % 25))})
		slots = append(slots, int32(p))
	}
	tb := &joinTable{keys: make([]vec.Lane, 1)}
	tb.keys[0].Reset()
	var bb Batch
	bb.setRows(rows)
	if err := build.load(&bb); err != nil {
		t.Fatal(err)
	}
	tb.appendKeys(&build, slots)
	for _, row := range rows {
		tb.rows, tb.hash = append(tb.rows, row), append(tb.hash, h)
	}
	tb.link()
	var probeRows []types.Row
	for v := int64(0); v < 30; v++ {
		probeRows = append(probeRows, types.Row{types.NewFloat(float64(v))})
	}
	var pb Batch
	pb.setRows(probeRows)
	if err := probe.load(&pb); err != nil {
		t.Fatal(err)
	}
	for k := range probeRows {
		var got, want []int32
		for p := tb.seek(tb.lookup(h), h, &probe, k); p >= 0; p = tb.seek(tb.next[p], h, &probe, k) {
			got = append(got, p)
		}
		for p := k; k < 25 && p < len(rows); p += 25 {
			want = append(want, int32(p))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("probe key %d found positions %v, want %v", k, got, want)
		}
	}
	if p := tb.seek(tb.lookup(h+1), h+1, &probe, 3); p >= 0 {
		t.Errorf("a hash no row has found position %d", p)
	}
}

// oneKeyFixture: 10 000 build rows share key 7, beside one row keyed 9 and
// one NULL-keyed row; the probe side holds key 7 twice and key 8 once.
func oneKeyFixture(t *testing.T) (*Runtime, plan.Node, plan.Node) {
	t.Helper()
	cat := catalog.New()
	st := storage.NewStore(1)
	i := types.NewInt
	mk := func(name string, rows []types.Row) *catalog.Table {
		tab, err := cat.CreateTable(name, []catalog.Column{{Name: "k", Kind: types.KindInt}, {Name: "x", Kind: types.KindInt}}, catalog.Hashed(0))
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		st.CreateTable(tab)
		if err := st.InsertBatch(tab, rows); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
		return tab
	}
	var bRows []types.Row
	for x := int64(0); x < 10_000; x++ {
		bRows = append(bRows, types.Row{i(7), i(x)})
	}
	bRows = append(bRows, types.Row{i(9), i(-1)}, types.Row{types.Null, i(-2)})
	b := mk("b", bRows)
	p := mk("p", []types.Row{{i(7), i(100)}, {i(8), i(200)}, {i(7), i(300)}})
	join := func(jt plan.JoinType) plan.Node {
		return plan.NewHashJoin(jt, []expr.Expr{tcol(1, 0, "k")}, []expr.Expr{tcol(2, 0, "k")}, nil,
			plan.NewScan(b, 1), plan.NewScan(p, 2), nil)
	}
	return &Runtime{Store: st}, join(plan.InnerJoin), join(plan.LeftOuterJoin)
}

// Every one of 10 000 build rows sharing one key matches both probe rows
// with that key, on inner and LEFT joins, resident and spilled: the chain
// walk must not stop early, and the LEFT join emits only its two unmatched
// rows NULL-extended.
func TestHashJoinOneKeyManyRows(t *testing.T) {
	rt, inner, left := oneKeyFixture(t)
	for _, spill := range []bool{false, true} {
		for _, root := range []plan.Node{inner, left} {
			name := fmt.Sprintf("%v/spill=%v", root.(*plan.HashJoin).Type, spill)
			base := t.TempDir()
			var gov *mem.Governor
			if spill {
				gov = mem.NewGovernor(mem.Config{WorkMem: 4 << 10, BaseDir: base})
			}
			rt.Gov = gov
			res, err := RunLocal(rt, root, 0, nil)
			rt.Gov = nil
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if spilled := res.Stats.SpilledBytes() > 0; spilled != spill {
				t.Fatalf("%s: spilled = %v", name, spilled)
			}
			seen := make([]int, 10_000)
			var unmatched []string
			for _, row := range res.Rows {
				if row[2].IsNull() {
					unmatched = append(unmatched, fmt.Sprint(row))
					continue
				}
				if row[0].Int() != 7 || row[2].Int() != 7 {
					t.Fatalf("%s: row %v joins unequal keys", name, row)
				}
				seen[row[1].Int()]++
			}
			for x, n := range seen {
				if n != 2 {
					t.Fatalf("%s: build row x=%d matched %d probe rows, want 2", name, x, n)
				}
			}
			if jt := root.(*plan.HashJoin).Type; jt == plan.LeftOuterJoin && len(unmatched) != 2 ||
				jt == plan.InnerJoin && len(unmatched) != 0 {
				t.Fatalf("%s: NULL-extended rows %v", name, unmatched)
			}
			if gov != nil && gov.Used() != 0 {
				t.Fatalf("%s: governor still holds %d bytes", name, gov.Used())
			}
			assertNoSpillLeak(t, base)
		}
	}
}

// A LEFT join's unmatched build rows leave in build order: every run, at
// every batch size, resident or spilled, returns the same row sequence.
func TestHashJoinUnmatchedOrderStable(t *testing.T) {
	fx := joinLaneFixture(t)
	for _, residual := range []expr.Expr{nil, laneResidual()} {
		for _, workMem := range []int64{0, 256} {
			for _, bs := range []int{1, 7, DefaultBatchSize} {
				name := fmt.Sprintf("residual=%v/workmem=%d/batch=%d", residual != nil, workMem, bs)
				prevBS := SetBatchSize(bs)
				var first []string
				for run := 0; run < 5; run++ {
					fx.rt.Gov = nil
					if workMem > 0 {
						fx.rt.Gov = mem.NewGovernor(mem.Config{WorkMem: workMem, BaseDir: t.TempDir()})
					}
					res, err := RunLocal(fx.rt, fx.joinPlan(plan.LeftOuterJoin, "p", "scan", residual), 0, nil)
					fx.rt.Gov = nil
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := renderRows(res.Rows)
					if run == 0 {
						first = got
						sameKeys(t, name, rowKeys(res.Rows), fx.oracle(t, plan.LeftOuterJoin, "p", residual))
					} else if fmt.Sprint(got) != fmt.Sprint(first) {
						t.Fatalf("%s: run %d order\n  %v\nfirst run\n  %v", name, run, got, first)
					}
				}
				SetBatchSize(prevBS)
			}
		}
	}
	// Resident, no residual: the unmatched rows in build order.
	res, err := RunLocal(fx.rt, fx.joinPlan(plan.LeftOuterJoin, "p", "scan", nil), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var unmatched []string
	for _, row := range res.Rows {
		if row[fx.bWidth].IsNull() {
			unmatched = append(unmatched, fmt.Sprint(row[1]))
		}
	}
	if got := fmt.Sprint(unmatched); got != "[20 99 90]" {
		t.Fatalf("unmatched build rows %s, want [20 99 90] (build order)", got)
	}
}

// BenchmarkHashJoinEmit runs count(*), sum(x) over a join of 1024-row
// probe batches — five probe columns against a four-column build side,
// every probe row matching one build row — and reports ns per probe row.
// The aggregate reads one of the join's nine output columns, so emit
// gathers that one; the answer is checked on every run.
func BenchmarkHashJoinEmit(b *testing.B) {
	const rows, keys = 100_000, 100
	cat := catalog.New()
	st := storage.NewStore(1)
	mk := func(name string, cols []catalog.Column, data []types.Row) *catalog.Table {
		tab, err := cat.CreateTable(name, cols, catalog.Hashed(0))
		if err != nil {
			b.Fatalf("create %s: %v", name, err)
		}
		st.CreateTable(tab)
		if err := st.InsertBatch(tab, data); err != nil {
			b.Fatalf("insert %s: %v", name, err)
		}
		return tab
	}
	i, f, s := types.NewInt, types.NewFloat, types.NewString
	var bData, pData []types.Row
	for k := int64(0); k < keys; k++ {
		bData = append(bData, types.Row{i(k), i(k * 3), s(fmt.Sprint("dim-", k)), f(float64(k) / 2)})
	}
	var sum float64
	for r := int64(0); r < rows; r++ {
		x := float64(r % 1000)
		sum += x
		pData = append(pData, types.Row{i(r), i(r % keys), f(x), s(fmt.Sprint("row-", r%50)), types.NewDate(r % 365)})
	}
	build := mk("b", []catalog.Column{{Name: "k", Kind: types.KindInt}, {Name: "a", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString}, {Name: "w", Kind: types.KindFloat}}, bData)
	probe := mk("p", []catalog.Column{{Name: "id", Kind: types.KindInt}, {Name: "k", Kind: types.KindInt},
		{Name: "x", Kind: types.KindFloat}, {Name: "note", Kind: types.KindString}, {Name: "day", Kind: types.KindDate}}, pData)
	join := plan.NewHashJoin(plan.InnerJoin, []expr.Expr{tcol(1, 0, "k")}, []expr.Expr{tcol(2, 1, "k")}, nil,
		plan.NewScan(build, 1), plan.NewScan(probe, 2), nil)
	root := plan.NewHashAgg(nil, []plan.AggSpec{
		{Kind: plan.AggCount, Out: expr.ColID{Rel: 9, Ord: 0}},
		{Kind: plan.AggSum, Arg: tcol(2, 2, "x"), Out: expr.ColID{Rel: 9, Ord: 1}},
	}, join)
	rt := &Runtime{Store: st}
	defer SetBatchSize(SetBatchSize(DefaultBatchSize))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		res, err := RunLocal(rt, root, 0, nil)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if got := res.Rows[0]; got[0].Int() != rows || got[1].Float() != sum {
			b.Fatalf("count, sum = %v, want %d, %v", got, rows, sum)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
