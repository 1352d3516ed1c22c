package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// The target scan of an UPDATE or DELETE reads lanes: the RowID is one more
// int lane and the filter qualifies the batch into a selection vector. The
// DML operator reads each target's RowID off that lane (or off the row of
// an index read) and an UPDATE reads the target row into a reused header,
// so no rows are built. These tests pin that path and the RowID field
// bounds it relies on.

// TestRowIDRangeGuard checks the bound every RowID-bearing read is held
// to, on synthetic lengths: past a field's range the encoding would wrap
// into the neighbouring field and a DML would address another row.
func TestRowIDRangeGuard(t *testing.T) {
	// Why the guard exists: one position past the index field spills into
	// the leaf field (here onto row 0 of the next leaf).
	if got := DecodeRowID(EncodeRowID(storage.RowID{Seg: 1, Leaf: 4, Idx: rowIDMaxIdx + 1})); got != (storage.RowID{Seg: 1, Leaf: 5, Idx: 0}) {
		t.Fatalf("unguarded overflow decoded to %+v; the guard's premise changed", got)
	}
	for _, c := range []struct {
		seg  int
		leaf part.OID
		n    int
		want string // "" = in range
	}{
		{0, 1, 0, ""},
		{3, 7, rowIDMaxIdx + 1, ""}, // positions 0 .. 2^24-1: the full field
		{3, 7, rowIDMaxIdx + 2, "heap-index field"},
		{0, rowIDMaxLeaf, 10, ""},
		{0, rowIDMaxLeaf + 1, 10, "leaf field"},
		{0, -1, 10, "leaf field"},
		{rowIDMaxSeg, 1, 10, ""},
		{rowIDMaxSeg + 1, 1, 10, "segment field"},
	} {
		err := checkRowIDRange(c.seg, c.leaf, c.n)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("seg %d leaf %d n %d: unexpected %v", c.seg, c.leaf, c.n, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("seg %d leaf %d n %d: err %v, want it to name the %s", c.seg, c.leaf, c.n, err, c.want)
		}
	}
}

// TestRowIDScanRejectsUnencodableLeaf drives the guard through the leaf
// reader: a RowID-bearing scan of a leaf OID the encoding cannot hold fails
// instead of emitting wrapped RowIDs, while the same scan without RowIDs
// reads the (absent) leaf as empty.
func TestRowIDScanRejectsUnencodableLeaf(t *testing.T) {
	rt, cat := fixture(t, 1)
	scan := plan.NewScan(cat.MustTable("T"), 1)
	scan.Leaf = rowIDMaxLeaf + 1
	if res, err := RunLocal(rt, scan, 0, nil); err != nil || len(res.Rows) != 0 {
		t.Fatalf("plain scan: %v rows (%v), want 0", len(res.Rows), err)
	}
	scan.WithRowID = true
	if _, err := RunLocal(rt, scan, 0, nil); err == nil || !strings.Contains(err.Error(), "RowID leaf field") {
		t.Fatalf("RowID scan of leaf %d: err %v, want the RowID leaf-field error", scan.Leaf, err)
	}
}

// TestRowIDLaneMatchesRowPath checks the RowID-bearing scan batch by batch:
// it leaves Rows lazy and carries the RowID as an int lane at the layout's
// RowID position, and its rows, once built, equal the heap's rows as
// storage returns them, each extended with EncodeRowID of its position.
func TestRowIDLaneMatchesRowPath(t *testing.T) {
	defer SetBatchSize(SetBatchSize(7))
	rt, cat := fixture(t, 2)
	tt := cat.MustTable("T")
	scan := plan.NewScan(tt, 1)
	scan.Leaf = tt.Part.Expansion()[2]
	scan.WithRowID = true
	ridPos := scan.Layout()[expr.ColID{Rel: 1, Ord: plan.RowIDOrd}]

	ctx := newCtx(rt, 1, nil, NewStats(), context.Background(), rt.Gov.NewBudget(), rt.Store.PrimaryMap())
	op := newLeafScan(scan)
	if err := op.Open(ctx); err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer op.Close(ctx)
	var got []types.Row
	for {
		b, err := op.NextBatch(ctx)
		if err == errEOF {
			break
		}
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if b.Rows != nil || len(b.Cols) != ridPos+1 {
			t.Fatalf("RowID batch: rows built=%v, %d lanes; want lazy rows and %d lanes", b.Rows != nil, len(b.Cols), ridPos+1)
		}
		if rid := b.Cols[ridPos]; rid.Kind != types.KindInt || rid.Mixed {
			t.Fatalf("RowID lane kind %v (mixed %v), want int", rid.Kind, rid.Mixed)
		}
		got = append(got, b.rows(ctx)...)
	}

	heap, err := rt.Store.ScanLeafAt(tt.OID, 1, rt.Store.Primary(1), scan.Leaf)
	if err != nil {
		t.Fatalf("ScanLeafAt: %v", err)
	}
	if len(heap) == 0 || len(got) != len(heap) {
		t.Fatalf("scan read %d rows, heap holds %d", len(got), len(heap))
	}
	for i, row := range heap {
		want := append(append(types.Row(nil), row...), EncodeRowID(storage.RowID{Seg: 1, Leaf: scan.Leaf, Idx: i}))
		if len(got[i]) != len(want) || ridPos != len(row) {
			t.Fatalf("row %d: width %d (RowID at %d), want %d", i, len(got[i]), ridPos, len(want))
		}
		for j := range want {
			if types.Compare(got[i][j], want[j]) != 0 {
				t.Fatalf("row %d col %d: scan %v, heap %v", i, j, got[i][j], want[j])
			}
		}
	}
}

// TestDMLTargetScanBuildsOnlyMatchedRows pins the fast path on leaves of
// ≥ 10 000 rows per segment: a single-row UPDATE and a single-row DELETE
// materialize no batch, and no segment's target scan builds (or reads) the
// leaf's row view.
func TestDMLTargetScanBuildsOnlyMatchedRows(t *testing.T) {
	defer SetBatchSize(SetBatchSize(DefaultBatchSize))
	const segs, perSeg = 4, 10_000
	cat := catalog.New()
	st := storage.NewStore(segs)
	tt, err := cat.CreateTable("big",
		[]catalog.Column{{Name: "pk", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}},
		catalog.Hashed(0), part.RangeLevel(0, part.IntBounds(0, 200_000, 2)...))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	st.CreateTable(tt)
	rows := make([]types.Row, 0, 48_000)
	for i := int64(0); i < 48_000; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i % 97)})
	}
	if err := st.InsertBatch(tt, rows); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	rt := &Runtime{Store: st}
	leaf := tt.Part.Expansion()[0]
	leafSets := func() (minRows int, withView []int) {
		minRows = -1
		for seg := 0; seg < segs; seg++ {
			cs, err := st.LeafColumns(tt.OID, seg, 0, leaf)
			if err != nil {
				t.Fatalf("LeafColumns: %v", err)
			}
			if minRows < 0 || cs.Len() < minRows {
				minRows = cs.Len()
			}
			if cs.HasRowView() {
				withView = append(withView, seg)
			}
		}
		return minRows, withView
	}
	if n, views := leafSets(); n < perSeg || len(views) != 0 {
		t.Fatalf("fixture: smallest segment heap %d rows (want ≥ %d), row views built on %v", n, perSeg, views)
	}

	pk := tcol(1, 0, "pk")
	target := func(k int64) plan.Node {
		pred := expr.NewCmp(expr.EQ, pk, intc(k))
		sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{pred}, nil)
		scan := plan.NewDynamicScan(tt, 1, 1)
		scan.WithRowID = true
		return plan.NewSequence(sel, plan.NewFilter(pred, scan))
	}
	run := func(name string, dml plan.Node) {
		t.Helper()
		if n := runDML(t, rt, name, dml); n != 1 {
			t.Fatalf("%s: %d rows affected, want 1", name, n)
		}
		if _, views := leafSets(); len(views) != 0 {
			t.Errorf("%s: the target scan built the row view on segments %v", name, views)
		}
	}

	set := []plan.SetClause{{Ord: 1, Value: &expr.Arith{Op: expr.Add, L: tcol(1, 1, "v"), R: intc(1000)}}}
	run("update", plan.NewUpdate(tt, 1, set, target(4242)))
	run("delete", plan.NewDelete(tt, 1, target(777)))

	// The writes landed: pk 4242 carries v + 1000, pk 777 is gone.
	check, err := Run(rt, plan.NewMotion(plan.GatherMotion, nil, seqScanAll(tt, 1)), nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(check.Rows) != len(rows)-1 {
		t.Fatalf("verify: %d rows, want %d", len(check.Rows), len(rows)-1)
	}
	for _, r := range check.Rows {
		switch r[0].Int() {
		case 777:
			t.Fatalf("deleted pk 777 still present")
		case 4242:
			if r[1].Int() != 4242%97+1000 {
				t.Fatalf("pk 4242: v = %v, want %d", r[1], 4242%97+1000)
			}
		}
	}
}

// runDML runs a DML plan on every segment and returns the affected-row
// count, failing the test unless no batch was materialized on the way.
func runDML(t *testing.T, rt *Runtime, name string, dml plan.Node) int64 {
	t.Helper()
	res, err := Run(rt, plan.NewMotion(plan.GatherMotion, nil, dml), nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := res.Stats.RowsMaterializedBatches(); got != 0 {
		t.Errorf("%s: %d batches materialized, want 0", name, got)
	}
	var n int64
	for _, r := range res.Rows {
		n += r[0].Int()
	}
	return n
}

// tRows reads fixture table T back as pk -> v.
func tRows(t *testing.T, rt *Runtime, tt *catalog.Table) map[int64]int64 {
	t.Helper()
	res, err := Run(rt, plan.NewMotion(plan.GatherMotion, nil, seqScanAll(tt, 1)), nil)
	if err != nil {
		t.Fatalf("read T: %v", err)
	}
	out := map[int64]int64{}
	for _, r := range res.Rows {
		out[r[0].Int()] = r[1].Int()
	}
	return out
}

// TestDMLTargetIndexRead drives UPDATE and DELETE over a DynamicIndexScan
// target: its batches carry rows only, each extended with its RowID
// (withRowIDs), and no lanes. The DML operator reads the RowID and the
// target row off those rows and builds none.
func TestDMLTargetIndexRead(t *testing.T) {
	rt, cat := fixture(t, 2)
	tt := cat.MustTable("T")
	def := catalog.IndexDef{Name: "t_pk", ColOrd: 0}
	if err := rt.Store.CreateIndex(tt, def); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	tt.Indexes = append(tt.Indexes, def)
	target := func(k int64) plan.Node {
		pred := expr.NewCmp(expr.EQ, tcol(1, 0, "pk"), intc(k))
		sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{pred}, nil)
		scan := plan.NewDynamicIndexScan(tt, 1, 1, def, pred)
		scan.WithRowID = true
		return plan.NewSequence(sel, scan)
	}
	set := []plan.SetClause{{Ord: 1, Value: &expr.Arith{Op: expr.Add, L: tcol(1, 1, "v"), R: intc(1000)}}}
	if n := runDML(t, rt, "update", plan.NewUpdate(tt, 1, set, target(42))); n != 1 {
		t.Fatalf("update: %d rows affected, want 1", n)
	}
	if n := runDML(t, rt, "delete", plan.NewDelete(tt, 1, target(17))); n != 1 {
		t.Fatalf("delete: %d rows affected, want 1", n)
	}
	got := tRows(t, rt, tt)
	if _, ok := got[17]; ok || len(got) != 99 {
		t.Fatalf("after delete: %d rows, pk 17 present %v; want 99 without it", len(got), ok)
	}
	if got[42] != 84+1000 {
		t.Fatalf("pk 42: v = %d, want %d", got[42], 84+1000)
	}
}

// TestDMLDuplicateTargetChangedOnce feeds UPDATE and DELETE a target RowID
// twice: T joins a build side holding every D row twice, so each matched T
// row comes out of the join twice, in one batch at the default batch size
// and in two consecutive batches at batch size 1. Each target row is
// changed once and counted once.
func TestDMLDuplicateTargetChangedOnce(t *testing.T) {
	for _, bs := range []int{1, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer SetBatchSize(SetBatchSize(bs))
			rt, cat := fixture(t, 2)
			tt, dt := cat.MustTable("T"), cat.MustTable("D")
			// ... FROM T, (D UNION ALL D) WHERE T.pk = D.id + 20: pk 20..24.
			target := func() plan.Node {
				src := &expr.Arith{Op: expr.Add, L: tcol(2, 0, "D.id"), R: intc(20)}
				build := plan.NewAppend(plan.NewScan(dt, 2), plan.NewScan(dt, 2))
				sel := plan.NewPartitionSelector(tt, 1, []expr.Expr{expr.NewCmp(expr.EQ, tcol(1, 0, "T.pk"), src)}, build)
				probe := plan.NewDynamicScan(tt, 1, 1)
				probe.WithRowID = true
				return plan.NewHashJoin(plan.InnerJoin, []expr.Expr{src}, []expr.Expr{tcol(1, 0, "T.pk")}, nil, sel, probe, nil)
			}
			set := []plan.SetClause{{Ord: 1, Value: &expr.Arith{Op: expr.Add, L: tcol(1, 1, "v"), R: intc(1)}}}
			if n := runDML(t, rt, "update", plan.NewUpdate(tt, 1, set, target())); n != 5 {
				t.Fatalf("update: %d rows affected, want 5", n)
			}
			got := tRows(t, rt, tt)
			for pk := int64(20); pk <= 24; pk++ {
				if got[pk] != 2*pk+1 {
					t.Errorf("pk %d: v = %d, want %d (updated once)", pk, got[pk], 2*pk+1)
				}
			}
			if n := runDML(t, rt, "delete", plan.NewDelete(tt, 1, target())); n != 5 {
				t.Fatalf("delete: %d rows affected, want 5", n)
			}
			if got := tRows(t, rt, tt); len(got) != 95 {
				t.Fatalf("after delete: %d rows, want 95", len(got))
			}
		})
	}
}
