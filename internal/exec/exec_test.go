package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// fixture builds a cluster with:
//
//	T(pk int, v int)  — partitioned into T1..T10, Ti = [ (i-1)*10+1, i*10+1 ),
//	                    hash-distributed on pk (the paper's §2.2 table, 10 parts)
//	R(a int, b int)   — unpartitioned, hash-distributed on a
//	D(id int, m int)  — unpartitioned, replicated
func fixture(t *testing.T, segs int) (*Runtime, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	st := storage.NewStore(segs)

	bounds := make([]types.Datum, 0, 11)
	for i := 0; i <= 10; i++ {
		bounds = append(bounds, types.NewInt(int64(i*10+1)))
	}
	tt, err := cat.CreateTable("T",
		[]catalog.Column{{Name: "pk", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}},
		catalog.Hashed(0), part.RangeLevel(0, bounds...))
	if err != nil {
		t.Fatalf("create T: %v", err)
	}
	st.CreateTable(tt)
	for i := int64(1); i <= 100; i++ {
		if err := st.Insert(tt, types.Row{types.NewInt(i), types.NewInt(i * 2)}); err != nil {
			t.Fatalf("insert T: %v", err)
		}
	}

	rt, err := cat.CreateTable("R",
		[]catalog.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}},
		catalog.Hashed(0))
	if err != nil {
		t.Fatalf("create R: %v", err)
	}
	st.CreateTable(rt)
	for i := int64(0); i < 20; i++ {
		if err := st.Insert(rt, types.Row{types.NewInt(i), types.NewInt(i % 5)}); err != nil {
			t.Fatalf("insert R: %v", err)
		}
	}

	dt, err := cat.CreateTable("D",
		[]catalog.Column{{Name: "id", Kind: types.KindInt}, {Name: "m", Kind: types.KindInt}},
		catalog.Replicated())
	if err != nil {
		t.Fatalf("create D: %v", err)
	}
	st.CreateTable(dt)
	for i := int64(0); i < 5; i++ {
		if err := st.Insert(dt, types.Row{types.NewInt(i), types.NewInt(i * 100)}); err != nil {
			t.Fatalf("insert D: %v", err)
		}
	}
	return &Runtime{Store: st}, cat
}

func tcol(rel, ord int, name string) *expr.Col {
	return expr.NewCol(expr.ColID{Rel: rel, Ord: ord}, name)
}

func intc(v int64) *expr.Const { return expr.NewConst(types.NewInt(v)) }

// Fig. 5(a): full scan — selector with no predicate under a Sequence.
func TestFullDynamicScan(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt := cat.MustTable("T")
	sel := plan.NewPartitionSelector(tt, 1, nil, nil)
	ds := plan.NewDynamicScan(tt, 1, 1)
	seq := plan.NewSequence(sel, ds)

	res, err := RunLocal(rt, seq, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 100 {
		t.Errorf("rows = %d, want 100", len(res.Rows))
	}
	if got := res.Stats.PartsScanned("T"); got != 10 {
		t.Errorf("parts scanned = %d, want 10", got)
	}
}

// Fig. 5(b): equality partition selection — one partition scanned.
func TestEqualitySelection(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt := cat.MustTable("T")
	pred := expr.NewCmp(expr.EQ, tcol(1, 0, "T.pk"), intc(35))
	sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{pred}, nil)
	ds := plan.NewDynamicScan(tt, 1, 1)
	flt := plan.NewFilter(pred, ds)
	seq := plan.NewSequence(sel, flt)

	res, err := RunLocal(rt, seq, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 35 {
		t.Errorf("rows = %v", res.Rows)
	}
	if got := res.Stats.PartsScanned("T"); got != 1 {
		t.Errorf("parts scanned = %d, want 1", got)
	}
}

// Fig. 5(c): range partition selection — pk < 35 hits 4 partitions.
func TestRangeSelection(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt := cat.MustTable("T")
	pred := expr.NewCmp(expr.LT, tcol(1, 0, "T.pk"), intc(35))
	sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{pred}, nil)
	ds := plan.NewDynamicScan(tt, 1, 1)
	seq := plan.NewSequence(sel, plan.NewFilter(pred, ds))

	res, err := RunLocal(rt, seq, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 34 {
		t.Errorf("rows = %d, want 34 (pk 1..34)", len(res.Rows))
	}
	if got := res.Stats.PartsScanned("T"); got != 4 {
		t.Errorf("parts scanned = %d, want 4", got)
	}
}

// Fig. 5(d): join partition selection — selector streams the build side
// (D), pruning T to exactly the partitions matching D.id values.
func TestJoinDynamicSelection(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt, dt := cat.MustTable("T"), cat.MustTable("D")

	// Build side: scan D where id in a narrow range, wrapped in a selector
	// with the join predicate T.pk = D.m/... use pred T.pk = D.id + 20.
	joinSrc := &expr.Arith{Op: expr.Add, L: tcol(2, 0, "D.id"), R: intc(20)}
	joinPred := expr.NewCmp(expr.EQ, tcol(1, 0, "T.pk"), joinSrc)
	dscan := plan.NewScan(dt, 2)
	sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{joinPred}, dscan)
	probe := plan.NewDynamicScan(tt, 1, 1)
	join := plan.NewHashJoin(plan.InnerJoin,
		[]expr.Expr{joinSrc}, []expr.Expr{tcol(1, 0, "T.pk")},
		nil, sel, probe, joinPred)

	res, err := RunLocal(rt, join, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	// D.id ∈ 0..4 → T.pk ∈ 20..24, all present in T exactly once.
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(res.Rows))
	}
	// pk 20 lives in T2 ([11,21)), pk 21..24 in T3 ([21,31)) → 2 partitions.
	if got := res.Stats.PartsScanned("T"); got != 2 {
		t.Errorf("parts scanned = %d, want 2", got)
	}
}

// The Motion constraint: a DynamicScan whose selector ran in a different
// slice must fail with the paper's §3.1 violation error.
func TestMotionSeparatedSelectorFails(t *testing.T) {
	rt, cat := fixture(t, 2)
	tt := cat.MustTable("T")
	// Selector below a Broadcast Motion; DynamicScan above it. The scan's
	// process never sees the selector's mailbox.
	sel := plan.NewPartitionSelector(tt, 1, nil, plan.NewScan(cat.MustTable("D"), 2))
	bcast := plan.NewMotion(plan.BroadcastMotion, nil, sel)
	probe := plan.NewDynamicScan(tt, 1, 1)
	join := plan.NewHashJoin(plan.InnerJoin,
		[]expr.Expr{tcol(2, 0, "D.id")}, []expr.Expr{tcol(1, 0, "T.pk")},
		nil, bcast, probe, nil)
	root := plan.NewMotion(plan.GatherMotion, nil, join)

	_, err := Run(rt, root, nil)
	if err == nil {
		t.Fatalf("expected constraint violation")
	}
	if !strings.Contains(err.Error(), "Motion separates the pair") {
		t.Errorf("error = %v", err)
	}
}

func TestGatherMotionAcrossSegments(t *testing.T) {
	rt, cat := fixture(t, 4)
	tt := cat.MustTable("T")
	sel := plan.NewPartitionSelector(tt, 1, nil, nil)
	ds := plan.NewDynamicScan(tt, 1, 1)
	root := plan.NewMotion(plan.GatherMotion, nil, plan.NewSequence(sel, ds))

	res, err := Run(rt, root, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 100 {
		t.Errorf("rows = %d, want 100 across 4 segments", len(res.Rows))
	}
	if res.Stats.RowsMoved() != 100 {
		t.Errorf("rows moved = %d, want 100", res.Stats.RowsMoved())
	}
	// All pk values present exactly once.
	seen := map[int64]int{}
	for _, r := range res.Rows {
		seen[r[0].Int()]++
	}
	for i := int64(1); i <= 100; i++ {
		if seen[i] != 1 {
			t.Fatalf("pk %d appeared %d times", i, seen[i])
		}
	}
}

func TestRedistributeAndJoin(t *testing.T) {
	rt, cat := fixture(t, 4)
	rtab := cat.MustTable("R")
	// Self-join R (rel 1) with a second instance of R (rel 2) on b:
	// neither side is distributed by b, so both get redistributed.
	left := plan.NewMotion(plan.RedistributeMotion, []expr.Expr{tcol(1, 1, "r1.b")}, plan.NewScan(rtab, 1))
	right := plan.NewMotion(plan.RedistributeMotion, []expr.Expr{tcol(2, 1, "r2.b")}, plan.NewScan(rtab, 2))
	join := plan.NewHashJoin(plan.InnerJoin,
		[]expr.Expr{tcol(1, 1, "r1.b")}, []expr.Expr{tcol(2, 1, "r2.b")},
		nil, left, right,
		expr.NewCmp(expr.EQ, tcol(1, 1, "r1.b"), tcol(2, 1, "r2.b")))
	root := plan.NewMotion(plan.GatherMotion, nil, join)

	res, err := Run(rt, root, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// R has 20 rows with b = i%5: 4 rows per b value → 5 * 4 * 4 = 80 pairs.
	if len(res.Rows) != 80 {
		t.Errorf("rows = %d, want 80", len(res.Rows))
	}
}

func TestBroadcastJoin(t *testing.T) {
	rt, cat := fixture(t, 3)
	rtab, dtab := cat.MustTable("R"), cat.MustTable("D")
	// Broadcast D's replica-0... D is replicated already; broadcast a scan
	// of R instead and join against local D.
	bcast := plan.NewMotion(plan.BroadcastMotion, nil, plan.NewScan(rtab, 1))
	dscan := plan.NewScan(dtab, 2)
	join := plan.NewHashJoin(plan.InnerJoin,
		[]expr.Expr{tcol(1, 1, "R.b")}, []expr.Expr{tcol(2, 0, "D.id")},
		nil, bcast, dscan,
		expr.NewCmp(expr.EQ, tcol(1, 1, "R.b"), tcol(2, 0, "D.id")))
	root := plan.NewMotion(plan.GatherMotion, nil, join)

	res, err := Run(rt, root, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every R row matches exactly one D row, but D is stored on all 3
	// segments, so each pair appears 3 times: 20 * 3 = 60.
	if len(res.Rows) != 60 {
		t.Errorf("rows = %d, want 60", len(res.Rows))
	}
}

func TestSemiJoin(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt, dt := cat.MustTable("T"), cat.MustTable("D")
	// T.pk IN (SELECT id+20 FROM D) → semi join, probe = T.
	src := &expr.Arith{Op: expr.Add, L: tcol(2, 0, "D.id"), R: intc(20)}
	build := plan.NewScan(dt, 2)
	sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{expr.NewCmp(expr.EQ, tcol(1, 0, "T.pk"), src)}, build)
	probe := plan.NewDynamicScan(tt, 1, 1)
	join := plan.NewHashJoin(plan.SemiJoin,
		[]expr.Expr{src}, []expr.Expr{tcol(1, 0, "T.pk")},
		nil, sel, probe, nil)

	res, err := RunLocal(rt, join, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(res.Rows))
	}
	// Semi join output is the probe row only (2 cols).
	if len(res.Rows[0]) != 2 {
		t.Errorf("semi join row width = %d, want 2", len(res.Rows[0]))
	}
}

func TestFilteredAppendLegacyElimination(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt := cat.MustTable("T")
	var kids []plan.Node
	for _, leaf := range tt.Part.Expansion() {
		kids = append(kids, plan.NewLeafScan(tt, 1, leaf))
	}
	app := plan.NewFilteredAppend(0, kids...)

	// Bind the OID set to only the partition holding pk=35.
	leaf35 := tt.Part.Route([]types.Datum{types.NewInt(35)})
	params := &Params{OIDSets: map[int]map[part.OID]bool{0: {leaf35: true}}}
	res, err := RunLocal(rt, app, 0, params)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d, want 10 (one partition)", len(res.Rows))
	}
	if got := res.Stats.PartsScanned("T"); got != 1 {
		t.Errorf("parts scanned = %d, want 1", got)
	}
	// Unbound param: scans everything.
	res, err = RunLocal(rt, app, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal unbound: %v", err)
	}
	if len(res.Rows) != 100 {
		t.Errorf("unbound rows = %d, want 100", len(res.Rows))
	}
}

func TestHashAggGrouped(t *testing.T) {
	rt, cat := fixture(t, 1)
	rtab := cat.MustTable("R")
	agg := plan.NewHashAgg(
		[]plan.GroupCol{{E: tcol(1, 1, "R.b"), Name: "b", Out: expr.ColID{Rel: 9, Ord: 0}}},
		[]plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Out: expr.ColID{Rel: 9, Ord: 1}},
			{Kind: plan.AggSum, Arg: tcol(1, 0, "R.a"), Name: "s", Out: expr.ColID{Rel: 9, Ord: 2}},
			{Kind: plan.AggMin, Arg: tcol(1, 0, "R.a"), Name: "mn", Out: expr.ColID{Rel: 9, Ord: 3}},
			{Kind: plan.AggMax, Arg: tcol(1, 0, "R.a"), Name: "mx", Out: expr.ColID{Rel: 9, Ord: 4}},
			{Kind: plan.AggAvg, Arg: tcol(1, 0, "R.a"), Name: "av", Out: expr.ColID{Rel: 9, Ord: 5}},
		},
		plan.NewScan(rtab, 1))

	res, err := RunLocal(rt, agg, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(res.Rows))
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i][0].Int() < res.Rows[j][0].Int() })
	// Group b=0 holds a ∈ {0,5,10,15}: count 4, sum 30, min 0, max 15, avg 7.5.
	g := res.Rows[0]
	if g[1].Int() != 4 || g[2].Int() != 30 || g[3].Int() != 0 || g[4].Int() != 15 || g[5].Float() != 7.5 {
		t.Errorf("group b=0 = %v", g)
	}
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	rt, cat := fixture(t, 1)
	rtab := cat.MustTable("R")
	flt := plan.NewFilter(expr.NewCmp(expr.GT, tcol(1, 0, "R.a"), intc(1000)), plan.NewScan(rtab, 1))
	agg := plan.NewHashAgg(nil,
		[]plan.AggSpec{
			{Kind: plan.AggCount, Out: expr.ColID{Rel: 9, Ord: 0}},
			{Kind: plan.AggSum, Arg: tcol(1, 0, "R.a"), Out: expr.ColID{Rel: 9, Ord: 1}},
		}, flt)
	res, err := RunLocal(rt, agg, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("scalar agg rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty agg = %v, want (0, NULL)", res.Rows[0])
	}
}

func TestUpdateThroughJoin(t *testing.T) {
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer SetBatchSize(SetBatchSize(bs))
			rt, cat := fixture(t, 2)
			tt, dt := cat.MustTable("T"), cat.MustTable("D")
			// UPDATE T SET v = D.m FROM D WHERE T.pk = D.id + 20.
			src := &expr.Arith{Op: expr.Add, L: tcol(2, 0, "D.id"), R: intc(20)}
			build := plan.NewScan(dt, 2) // D replicated: present on every segment
			sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{expr.NewCmp(expr.EQ, tcol(1, 0, "T.pk"), src)}, build)
			probe := plan.NewDynamicScan(tt, 1, 1)
			probe.WithRowID = true
			join := plan.NewHashJoin(plan.InnerJoin,
				[]expr.Expr{src}, []expr.Expr{tcol(1, 0, "T.pk")},
				nil, sel, probe, nil)
			upd := plan.NewUpdate(tt, 1, []plan.SetClause{{Ord: 1, Value: tcol(2, 1, "D.m")}}, join)
			root := plan.NewMotion(plan.GatherMotion, nil, upd)

			res, err := Run(rt, root, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			var total int64
			for _, r := range res.Rows {
				total += r[0].Int()
			}
			if total != 5 {
				t.Errorf("updated rows = %d, want 5", total)
			}
			// Verify: T.pk=22 should now have v = D.m where id=2 → 200.
			sel2 := plan.NewPartitionSelector(tt, 1, nil, nil)
			all := plan.NewSequence(sel2, plan.NewDynamicScan(tt, 1, 1))
			res2, err := Run(rt, plan.NewMotion(plan.GatherMotion, nil, all), nil)
			if err != nil {
				t.Fatalf("verify scan: %v", err)
			}
			found := false
			for _, r := range res2.Rows {
				if r[0].Int() == 22 {
					found = true
					if r[1].Int() != 200 {
						t.Errorf("T.pk=22 v = %d, want 200", r[1].Int())
					}
				}
			}
			if !found {
				t.Errorf("pk=22 missing after update")
			}
		})
	}
}

func TestUpdateMovesRowAcrossPartitions(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt := cat.MustTable("T")
	// UPDATE T SET pk = pk + 50 WHERE pk <= 3 — moves rows to new partitions.
	pred := expr.NewCmp(expr.LE, tcol(1, 0, "T.pk"), intc(3))
	sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{pred}, nil)
	scan := plan.NewDynamicScan(tt, 1, 1)
	scan.WithRowID = true
	flt := plan.NewFilter(pred, scan)
	upd := plan.NewUpdate(tt, 1,
		[]plan.SetClause{{Ord: 0, Value: &expr.Arith{Op: expr.Add, L: tcol(1, 0, "T.pk"), R: intc(50)}}},
		plan.NewSequence(sel, flt))
	res, err := RunLocal(rt, upd, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("updated = %v, want 3", res.Rows[0])
	}
	// pk 51..53 now appear twice (original + moved); pk 1..3 gone.
	sel2 := plan.NewPartitionSelector(tt, 1, nil, nil)
	all, err := RunLocal(rt, plan.NewSequence(sel2, plan.NewDynamicScan(tt, 1, 1)), 0, nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	counts := map[int64]int{}
	for _, r := range all.Rows {
		counts[r[0].Int()]++
	}
	for pk := int64(1); pk <= 3; pk++ {
		if counts[pk] != 0 {
			t.Errorf("pk %d still present", pk)
		}
		if counts[pk+50] != 2 {
			t.Errorf("pk %d count = %d, want 2", pk+50, counts[pk+50])
		}
	}
}

func TestPreparedStatementParamSelection(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt := cat.MustTable("T")
	// pk = $1: selection is static per execution once the param binds.
	pred := expr.NewCmp(expr.EQ, tcol(1, 0, "T.pk"), &expr.Param{Idx: 0})
	sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{pred}, nil)
	seq := plan.NewSequence(sel, plan.NewFilter(pred, plan.NewDynamicScan(tt, 1, 1)))

	res, err := RunLocal(rt, seq, 0, &Params{Vals: []types.Datum{types.NewInt(77)}})
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 77 {
		t.Errorf("rows = %v", res.Rows)
	}
	if got := res.Stats.PartsScanned("T"); got != 1 {
		t.Errorf("parts scanned = %d, want 1", got)
	}
}

func TestDynamicScanWithoutSelectorFails(t *testing.T) {
	rt, cat := fixture(t, 1)
	tt := cat.MustTable("T")
	_, err := RunLocal(rt, plan.NewDynamicScan(tt, 1, 1), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "no completed PartitionSelector") {
		t.Errorf("expected protocol error, got %v", err)
	}
}

func TestRunRequiresGatherRoot(t *testing.T) {
	rt, cat := fixture(t, 2)
	if _, err := Run(rt, plan.NewScan(cat.MustTable("R"), 1), nil); err == nil {
		t.Errorf("Run without gather root should fail")
	}
}

func TestProjectAndMultiLevelSelector(t *testing.T) {
	// Multi-level: orders(date, region) partitioned 4 months × 2 regions.
	cat := catalog.New()
	st := storage.NewStore(1)
	ords, err := cat.CreateTable("orders",
		[]catalog.Column{
			{Name: "date", Kind: types.KindDate},
			{Name: "region", Kind: types.KindString},
			{Name: "amount", Kind: types.KindInt},
		},
		catalog.Hashed(2),
		part.RangeLevel(0, part.MonthlyBounds(2012, 1, 4, 1)...),
		part.ListLevel(1, []string{"r1", "r2"},
			[][]types.Datum{{types.NewString("Region 1")}, {types.NewString("Region 2")}}),
	)
	if err != nil {
		t.Fatalf("create orders: %v", err)
	}
	st.CreateTable(ords)
	regions := []string{"Region 1", "Region 2"}
	for m := 1; m <= 4; m++ {
		for ri, rg := range regions {
			row := types.Row{types.DateFromYMD(2012, m, 10), types.NewString(rg), types.NewInt(int64(m*10 + ri))}
			if err := st.Insert(ords, row); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	rt := &Runtime{Store: st}

	datePred := expr.NewCmp(expr.EQ, tcol(1, 0, "date"), expr.NewConst(types.DateFromYMD(2012, 2, 10)))
	regionPred := expr.NewCmp(expr.EQ, tcol(1, 1, "region"), expr.NewConst(types.NewString("Region 2")))
	sel := plan.NewPartitionSelector(ords, 1, []expr.Expr{datePred, regionPred}, nil)
	scan := plan.NewDynamicScan(ords, 1, 1)
	proj := plan.NewProject([]plan.ProjCol{
		{E: tcol(1, 2, "amount"), Name: "amount", Out: expr.ColID{Rel: 9, Ord: 0}},
	}, plan.NewFilter(expr.Conj(datePred, regionPred), scan))
	seq := plan.NewSequence(sel, proj)

	res, err := RunLocal(rt, seq, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 21 {
		t.Errorf("rows = %v, want [(21)]", res.Rows)
	}
	if got := res.Stats.PartsScanned("orders"); got != 1 {
		t.Errorf("parts scanned = %d, want exactly the (Feb, Region 2) leaf", got)
	}
}

func TestRowIDRoundTrip(t *testing.T) {
	ids := []storage.RowID{
		{Seg: 0, Leaf: 1, Idx: 0},
		{Seg: 3, Leaf: 4095, Idx: 123456},
		{Seg: 15, Leaf: 1 << 20, Idx: 1<<24 - 1},
		// Field boundaries: each field at its maximum, alone and together.
		{Seg: 0, Leaf: 0, Idx: rowIDMaxIdx},
		{Seg: 0, Leaf: rowIDMaxLeaf, Idx: 0},
		{Seg: rowIDMaxSeg, Leaf: 0, Idx: 0},
		{Seg: rowIDMaxSeg, Leaf: rowIDMaxLeaf, Idx: rowIDMaxIdx},
		{Seg: 1, Leaf: rowIDMaxLeaf - 1, Idx: rowIDMaxIdx - 1},
	}
	for _, id := range ids {
		got := DecodeRowID(EncodeRowID(id))
		if got != id {
			t.Errorf("round trip %+v → %+v", id, got)
		}
	}
}

// Two producers, one mailbox, four segment instances: a DynamicScan fed by
// several PartitionSelectors must count each partition once in its actuals
// — the size of the producers' intersection, not the sum of everything
// every producer (on every segment) pushed into the box.
func TestMultiProducerPartsSelectedNoDoubleCount(t *testing.T) {
	rt, cat := fixture(t, 4)
	tt := cat.MustTable("T")
	p1 := expr.NewCmp(expr.LT, tcol(1, 0, "T.pk"), intc(35)) // T1..T4
	p2 := expr.NewCmp(expr.GT, tcol(1, 0, "T.pk"), intc(20)) // T2..T10 (f*T over-approximates on (20,21))
	sel1 := plan.NewPartitionSelector(tt, 1, []expr.Expr{p1}, nil)
	sel2 := plan.NewPartitionSelector(tt, 1, []expr.Expr{p2}, nil)
	ds := plan.NewDynamicScan(tt, 1, 1)
	flt := plan.NewFilter(expr.Conj(p1, p2), ds)
	seq := plan.NewSequence(sel1, sel2, flt)
	root := plan.NewMotion(plan.GatherMotion, nil, seq)

	res, err := Run(rt, root, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 14 {
		t.Errorf("rows = %d, want 14 (pk 21..34)", len(res.Rows))
	}
	if got := res.Stats.PartsScanned("T"); got != 3 {
		t.Errorf("parts scanned = %d, want 3 (T2∩, T3, T4)", got)
	}
	a, ok := res.Stats.Actuals(ds)
	if !ok {
		t.Fatalf("no actuals for the DynamicScan")
	}
	if a.PartsSelected != 3 || a.PartsTotal != 10 {
		t.Errorf("DynamicScan selected %d/%d, want 3/10", a.PartsSelected, a.PartsTotal)
	}
	// Each producer's own actuals reflect its own selection, also counted
	// once per distinct partition across the four instances.
	if a1, ok := res.Stats.Actuals(sel1); !ok || a1.PartsSelected != 4 {
		t.Errorf("selector 1 actuals = %+v, want 4 partitions", a1)
	}
	if a2, ok := res.Stats.Actuals(sel2); !ok || a2.PartsSelected != 9 {
		t.Errorf("selector 2 actuals = %+v, want 9 partitions", a2)
	}
}
