package exec

import (
	"fmt"
	"strings"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// Direct operator-level tests for the newer executor pieces: sort, limit,
// delete, partition-wise join, and index scans.

func newOpsFixture(t *testing.T) (*Runtime, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	st := storage.NewStore(1)
	// a, b co-partitioned and co-distributed on k.
	for _, name := range []string{"a", "b"} {
		tab, err := cat.CreateTable(name,
			[]catalog.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}},
			catalog.Hashed(0),
			part.RangeLevel(0, part.IntBounds(0, 100, 5)...))
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		st.CreateTable(tab)
		for i := int64(0); i < 100; i += 2 {
			if err := st.Insert(tab, types.Row{types.NewInt(i), types.NewInt(i % 7)}); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	return &Runtime{Store: st}, cat
}

func seqScanAll(tab *catalog.Table, rel int) plan.Node {
	sel := plan.NewPartitionSelector(tab, rel, nil, nil)
	return plan.NewSequence(sel, plan.NewDynamicScan(tab, rel, rel))
}

func TestSortAndLimitOps(t *testing.T) {
	rt, cat := newOpsFixture(t)
	a := cat.MustTable("a")
	sorted := plan.NewSort([]plan.SortKey{{Pos: 1, Desc: true}, {Pos: 0}}, seqScanAll(a, 1))
	limited := plan.NewLimit(5, sorted)
	res, err := RunLocal(rt, limited, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Top v is 6 (k%7 over even k: 6 at k=20,34,48,...); ties broken by k asc.
	if res.Rows[0][1].Int() != 6 {
		t.Errorf("first v = %v, want 6", res.Rows[0][1])
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if prev[1].Int() < cur[1].Int() {
			t.Fatalf("not sorted desc by v: %v then %v", prev, cur)
		}
		if prev[1].Int() == cur[1].Int() && prev[0].Int() > cur[0].Int() {
			t.Fatalf("tie not broken by k asc: %v then %v", prev, cur)
		}
	}
	// Limit 0 yields nothing.
	res, err = RunLocal(rt, plan.NewLimit(0, seqScanAll(a, 1)), 0, nil)
	if err != nil || len(res.Rows) != 0 {
		t.Errorf("limit 0 = %d rows (%v)", len(res.Rows), err)
	}
}

func TestDeleteOpDirect(t *testing.T) {
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer SetBatchSize(SetBatchSize(bs))
			rt, cat := newOpsFixture(t)
			a := cat.MustTable("a")
			pred := expr.NewCmp(expr.LT, expr.NewCol(expr.ColID{Rel: 1, Ord: 0}, "k"), expr.NewConst(types.NewInt(20)))
			sel := plan.NewPartitionSelector(a, 1, []expr.Expr{pred}, nil)
			scan := plan.NewDynamicScan(a, 1, 1)
			scan.WithRowID = true
			del := plan.NewDelete(a, 1, plan.NewSequence(sel, plan.NewFilter(pred, scan)))
			res, err := RunLocal(rt, del, 0, nil)
			if err != nil {
				t.Fatalf("RunLocal: %v", err)
			}
			if res.Rows[0][0].Int() != 10 {
				t.Errorf("deleted = %v, want 10 (k=0,2,...,18)", res.Rows[0])
			}
			rest, err := RunLocal(rt, seqScanAll(a, 1), 0, nil)
			if err != nil || len(rest.Rows) != 40 {
				t.Errorf("remaining = %d (%v), want 40", len(rest.Rows), err)
			}
			// Delete without RowID column errors.
			badDel := plan.NewDelete(a, 1, seqScanAll(a, 1))
			if _, err := RunLocal(rt, badDel, 0, nil); err == nil || !strings.Contains(err.Error(), "RowID") {
				t.Errorf("delete without rowid: %v", err)
			}
		})
	}
}

func TestPartitionWiseJoinOpDirect(t *testing.T) {
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer SetBatchSize(SetBatchSize(bs))
			rt, cat := newOpsFixture(t)
			a, b := cat.MustTable("a"), cat.MustTable("b")
			ak := expr.NewCol(expr.ColID{Rel: 1, Ord: 0}, "a.k")
			bk := expr.NewCol(expr.ColID{Rel: 2, Ord: 0}, "b.k")
			pwj := plan.NewPartitionWiseJoin(plan.InnerJoin,
				[]expr.Expr{ak}, []expr.Expr{bk}, nil,
				plan.NewDynamicScan(a, 1, 1), plan.NewDynamicScan(b, 2, 2),
				expr.NewCmp(expr.EQ, ak, bk))
			// Selectors for both sides: prune a to k < 40, b unconstrained.
			predA := expr.NewCmp(expr.LT, ak, expr.NewConst(types.NewInt(40)))
			inner := plan.NewPartitionSelector(a, 1, []expr.Expr{predA},
				plan.NewPartitionSelector(b, 2, nil, pwj))
			res, err := RunLocal(rt, inner, 0, nil)
			if err != nil {
				t.Fatalf("RunLocal: %v", err)
			}
			// Both tables hold the same even keys; with a pruned to k<40, matches
			// are k = 0..38 even → 20 rows.
			if len(res.Rows) != 20 {
				t.Errorf("rows = %d, want 20", len(res.Rows))
			}
			// Only a's 2 pruned leaves and b's matching pair partners are read.
			if got := res.Stats.PartsScanned("a"); got != 2 {
				t.Errorf("a parts = %d, want 2", got)
			}
			if got := res.Stats.PartsScanned("b"); got != 2 {
				t.Errorf("b parts = %d, want 2 (pair-pruned)", got)
			}
			// Every row read from storage is charged to exactly one node: the
			// side scan that read it, not the join as well.
			var read int64
			for _, n := range plan.FindAll(inner, func(plan.Node) bool { return true }) {
				if act, ok := res.Stats.Actuals(n); ok {
					read += act.RowsRead
				}
			}
			if read != res.Stats.RowsScanned() {
				t.Errorf("rows read summed over nodes = %d, want RowsScanned %d", read, res.Stats.RowsScanned())
			}
			// Semi variant emits probe rows once.
			semi := plan.NewPartitionSelector(a, 1, nil, plan.NewPartitionSelector(b, 2, nil,
				plan.NewPartitionWiseJoin(plan.SemiJoin,
					[]expr.Expr{ak}, []expr.Expr{bk}, nil,
					plan.NewDynamicScan(a, 1, 1), plan.NewDynamicScan(b, 2, 2), nil)))
			res, err = RunLocal(rt, semi, 0, nil)
			if err != nil {
				t.Fatalf("semi RunLocal: %v", err)
			}
			if len(res.Rows) != 50 || len(res.Rows[0]) != 2 {
				t.Errorf("semi rows = %d width %d, want 50×2", len(res.Rows), len(res.Rows[0]))
			}
			// Under a tiny work_mem the per-pair joins charge the budget, spill
			// and still answer; every reserved byte and spill file comes back.
			base := t.TempDir()
			gov := mem.NewGovernor(mem.Config{WorkMem: 256, BaseDir: base})
			rt.Gov = gov
			for _, c := range []struct {
				name string
				node plan.Node
				want int
			}{{"inner", inner, 20}, {"semi", semi, 50}} {
				res, err := RunLocal(rt, c.node, 0, nil)
				if err != nil {
					t.Fatalf("budgeted %s: %v", c.name, err)
				}
				if len(res.Rows) != c.want {
					t.Errorf("budgeted %s rows = %d, want %d", c.name, len(res.Rows), c.want)
				}
				if res.Stats.SpilledBytes() == 0 {
					t.Errorf("budgeted %s did not spill", c.name)
				}
			}
			if used := gov.Used(); used != 0 {
				t.Errorf("governor holds %d bytes after the joins", used)
			}
			assertNoSpillLeak(t, base)
		})
	}
}

func TestPartitionWiseJoinRejectsUnaligned(t *testing.T) {
	rt, cat := newOpsFixture(t)
	st := rt.Store
	a := cat.MustTable("a")
	c, err := cat.CreateTable("c",
		[]catalog.Column{{Name: "k", Kind: types.KindInt}},
		catalog.Hashed(0),
		part.RangeLevel(0, part.IntBounds(0, 100, 10)...)) // 10 ≠ 5 leaves
	if err != nil {
		t.Fatalf("create c: %v", err)
	}
	st.CreateTable(c)
	pwj := plan.NewPartitionWiseJoin(plan.InnerJoin,
		[]expr.Expr{expr.NewCol(expr.ColID{Rel: 1, Ord: 0}, "a.k")},
		[]expr.Expr{expr.NewCol(expr.ColID{Rel: 3, Ord: 0}, "c.k")}, nil,
		plan.NewDynamicScan(a, 1, 1), plan.NewDynamicScan(c, 3, 3), nil)
	node := plan.NewPartitionSelector(a, 1, nil, plan.NewPartitionSelector(c, 3, nil, pwj))
	if _, err := RunLocal(rt, node, 0, nil); err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Errorf("unaligned schemes accepted: %v", err)
	}
}

func TestIndexScanOpsDirect(t *testing.T) {
	rt, cat := newOpsFixture(t)
	a := cat.MustTable("a")
	def := catalog.IndexDef{Name: "a_v", ColOrd: 1}
	if err := rt.Store.CreateIndex(a, def); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	a.Indexes = append(a.Indexes, def)

	pred := expr.NewCmp(expr.EQ, expr.NewCol(expr.ColID{Rel: 1, Ord: 1}, "a.v"), expr.NewConst(types.NewInt(3)))
	dis := plan.NewDynamicIndexScan(a, 1, 1, def, pred)
	node := plan.NewPartitionSelector(a, 1, nil, dis)
	res, err := RunLocal(rt, node, 0, nil)
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	// v = k%7 == 3 over even k 0..98: k ≡ 10 (mod 14) → 10,24,38,...,94 → 7 rows.
	if len(res.Rows) != 7 {
		t.Errorf("rows = %d, want 7", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != 3 {
			t.Errorf("row %v has v != 3", r)
		}
	}
	// Unknown index errors.
	badDef := catalog.IndexDef{Name: "ghost", ColOrd: 1}
	bad := plan.NewPartitionSelector(a, 1, nil, plan.NewDynamicIndexScan(a, 1, 1, badDef, pred))
	if _, err := RunLocal(rt, bad, 0, nil); err == nil {
		t.Errorf("unknown index accepted")
	}
	// DynamicIndexScan without a selector errors like DynamicScan.
	if _, err := RunLocal(rt, plan.NewDynamicIndexScan(a, 1, 1, def, pred), 0, nil); err == nil {
		t.Errorf("index scan without selector accepted")
	}
}
