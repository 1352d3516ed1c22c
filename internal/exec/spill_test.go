package exec

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// Spill equivalence: a query forced to spill by a small work_mem must
// produce exactly the rows of its unbudgeted in-memory run, report nonzero
// spill statistics, and return every reserved byte and spill file when it
// finishes.

// spillFixture builds a single-segment cluster so RunLocal comparisons are
// deterministic. The table mixes every datum kind the spill codec handles:
// a unique int key, a low-cardinality group, a float column with NULLs
// (i*0.5 is exactly representable, so aggregate sums are order-independent),
// and a repeating string.
func spillFixture(t *testing.T) (*Runtime, *catalog.Table) {
	t.Helper()
	cat := catalog.New()
	st := storage.NewStore(1)
	tab, err := cat.CreateTable("s",
		[]catalog.Column{
			{Name: "k", Kind: types.KindInt},
			{Name: "grp", Kind: types.KindInt},
			{Name: "val", Kind: types.KindFloat},
			{Name: "name", Kind: types.KindString},
		},
		catalog.Hashed(0))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	st.CreateTable(tab)
	for i := int64(0); i < 400; i++ {
		val := types.NewFloat(float64(i) * 0.5)
		if i%11 == 0 {
			val = types.Null
		}
		row := types.Row{
			types.NewInt(i),
			types.NewInt(i % 23),
			val,
			types.NewString(fmt.Sprintf("name-%03d", i%37)),
		}
		if err := st.Insert(tab, row); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	return &Runtime{Store: st}, tab
}

func renderRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// spillSortPlan sorts by (name, val desc, k): k is unique, so the order is
// total and spilled runs must merge back to the identical sequence.
func spillSortPlan(tab *catalog.Table) plan.Node {
	return plan.NewSort(
		[]plan.SortKey{{Pos: 3}, {Pos: 2, Desc: true}, {Pos: 0}},
		plan.NewScan(tab, 1))
}

func spillJoinPlan(tab *catalog.Table) plan.Node {
	return plan.NewHashJoin(plan.InnerJoin,
		[]expr.Expr{expr.NewCol(expr.ColID{Rel: 1, Ord: 1}, "grp")},
		[]expr.Expr{expr.NewCol(expr.ColID{Rel: 2, Ord: 1}, "grp")},
		nil, plan.NewScan(tab, 1), plan.NewScan(tab, 2), nil)
}

// spillAggPlan groups by the unique key (400 groups — spills on state
// volume) or by grp (23 groups — forces multi-row re-aggregation of each
// spilled partition).
func spillAggPlan(tab *catalog.Table, byKey bool) plan.Node {
	ord := 1
	if byKey {
		ord = 0
	}
	col := func(o int, name string) expr.Expr {
		return expr.NewCol(expr.ColID{Rel: 1, Ord: o}, name)
	}
	groups := []plan.GroupCol{{E: col(ord, "g"), Name: "g", Out: expr.ColID{Rel: 90, Ord: 0}}}
	aggs := []plan.AggSpec{
		{Kind: plan.AggCount, Name: "n", Out: expr.ColID{Rel: 90, Ord: 1}},
		{Kind: plan.AggSum, Arg: col(0, "k"), Name: "sk", Out: expr.ColID{Rel: 90, Ord: 2}},
		{Kind: plan.AggAvg, Arg: col(2, "val"), Name: "av", Out: expr.ColID{Rel: 90, Ord: 3}},
		{Kind: plan.AggMin, Arg: col(3, "name"), Name: "mn", Out: expr.ColID{Rel: 90, Ord: 4}},
		{Kind: plan.AggMax, Arg: col(2, "val"), Name: "mx", Out: expr.ColID{Rel: 90, Ord: 5}},
	}
	return plan.NewHashAgg(groups, aggs, plan.NewScan(tab, 1))
}

func TestSpillEquivalenceForcedThresholds(t *testing.T) {
	cases := []struct {
		name     string
		mk       func(*catalog.Table) plan.Node
		ordered  bool // compare row order, not just the multiset
		workMems []int64
	}{
		{"sort", spillSortPlan, true, []int64{512, 4 << 10, 32 << 10}},
		{"join", spillJoinPlan, false, []int64{512, 4 << 10, 32 << 10}},
		{"agg-unique-groups", func(tab *catalog.Table) plan.Node { return spillAggPlan(tab, true) },
			false, []int64{512, 4 << 10, 32 << 10}},
		// 23 groups hold ~12KiB of state, so only the small thresholds spill.
		{"agg-reagg-merge", func(tab *catalog.Table) plan.Node { return spillAggPlan(tab, false) },
			false, []int64{512, 4 << 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, tab := spillFixture(t)
			golden, err := RunLocal(rt, tc.mk(tab), 0, nil)
			if err != nil {
				t.Fatalf("unbudgeted run: %v", err)
			}
			if len(golden.Rows) == 0 {
				t.Fatalf("unbudgeted run produced no rows")
			}
			want := renderRows(golden.Rows)
			if !tc.ordered {
				sort.Strings(want)
			}
			for _, workMem := range tc.workMems {
				t.Run(fmt.Sprintf("work_mem=%d", workMem), func(t *testing.T) {
					base := t.TempDir()
					gov := mem.NewGovernor(mem.Config{WorkMem: workMem, BaseDir: base})
					rt.Gov = gov
					defer func() { rt.Gov = nil }()
					res, err := RunLocal(rt, tc.mk(tab), 0, nil)
					if err != nil {
						t.Fatalf("budgeted run: %v", err)
					}
					if res.Stats.SpilledBytes() == 0 || res.Stats.SpillParts() == 0 {
						t.Fatalf("work_mem=%d did not spill (bytes=%d parts=%d)",
							workMem, res.Stats.SpilledBytes(), res.Stats.SpillParts())
					}
					got := renderRows(res.Rows)
					if !tc.ordered {
						sort.Strings(got)
					}
					if len(got) != len(want) {
						t.Fatalf("spilled run: %d rows, want %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("row %d diverged after spilling:\n  got  %s\n  want %s",
								i, got[i], want[i])
						}
					}
					if used := gov.Used(); used != 0 {
						t.Fatalf("governor still holds %d bytes after the query", used)
					}
					assertNoSpillLeak(t, base)
				})
			}
		})
	}
}

// TestSpillEquivalenceAcrossMotions runs the three-slice chaos join under a
// tiny work_mem: motion buffers are accounted against the same budget the
// join reserves from, every segment spills, and the gathered multiset must
// match the unbudgeted run.
func TestSpillEquivalenceAcrossMotions(t *testing.T) {
	rt, tab := failFixture(t)
	golden, err := Run(rt, chaosPlan(tab), nil)
	if err != nil {
		t.Fatalf("unbudgeted run: %v", err)
	}
	want := renderRows(golden.Rows)
	sort.Strings(want)

	base := t.TempDir()
	gov := mem.NewGovernor(mem.Config{WorkMem: 2 << 10, BaseDir: base})
	rt.Gov = gov
	res, err := Run(rt, chaosPlan(tab), nil)
	if err != nil {
		t.Fatalf("budgeted run: %v", err)
	}
	if res.Stats.SpilledBytes() == 0 {
		t.Fatalf("2KiB work_mem did not force a spill")
	}
	got := renderRows(res.Rows)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("spilled run: %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d diverged after spilling:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
	if used := gov.Used(); used != 0 {
		t.Fatalf("governor still holds %d bytes after the query", used)
	}
	assertNoSpillLeak(t, base)
}

// TestSpillHardOOMSurfacesStructuredError exhausts the global budget: the
// join's partition reload needs more memory than the engine has, so the
// query must fail with a QueryError wrapping ErrOutOfMemory — never panic,
// never hang, never leak spill files.
func TestSpillHardOOMSurfacesStructuredError(t *testing.T) {
	rt, tab := failFixture(t)
	before := runtime.NumGoroutine()
	base := t.TempDir()
	rt.Gov = mem.NewGovernor(mem.Config{Total: 4 << 10, WorkMem: 512, BaseDir: base})
	_, err := Run(rt, chaosPlan(tab), nil)
	if err == nil {
		t.Fatalf("join under a 4KiB engine budget succeeded")
	}
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("error does not match ErrOutOfMemory: %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("OOM not wrapped in a QueryError: %v", err)
	}
	var oom *mem.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("no structured OOMError in chain: %v", err)
	}
	if oom.Scope != "engine" || oom.Limit != 4<<10 {
		t.Fatalf("OOMError = %+v, want engine-scope at limit %d", oom, 4<<10)
	}
	waitNoGoroutineLeak(t, before)
	assertNoSpillLeak(t, base)
}

func countSpillFiles(t *testing.T, base string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(base, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking spill dir: %v", err)
	}
	return n
}

// TestLimitOverSpillingSortReclaimsFiles drives LIMIT 1 over a sort that
// spilled ~40 runs: the moment the limit is satisfied the limit operator
// must close its child, which deletes every run file — before Close.
func TestLimitOverSpillingSortReclaimsFiles(t *testing.T) {
	rt, tab := spillFixture(t)
	base := t.TempDir()
	gov := mem.NewGovernor(mem.Config{WorkMem: 2 << 10, BaseDir: base})
	rt.Gov = gov
	budget := gov.NewBudget()
	defer budget.Close()
	stats := NewStats()
	ctx := newCtx(rt, 0, nil, stats, context.Background(), budget, nil)

	op, err := buildOp(plan.NewLimit(1, spillSortPlan(tab)), nil, nil)
	if err != nil {
		t.Fatalf("buildOp: %v", err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	if liveStats(ctx).SpilledBytes() == 0 {
		t.Fatalf("sort under 2KiB work_mem did not spill")
	}
	if n := countSpillFiles(t, base); n == 0 {
		t.Fatalf("no live spill files while the merge is pending")
	}
	b, err := op.NextBatch(ctx)
	if err != nil || b.Len() != 1 {
		t.Fatalf("first batch: %d rows (%v), want 1", b.Len(), err)
	}
	// LIMIT 1 is satisfied: the sort below must already be closed and its
	// run files deleted, long before the plan itself is closed.
	if n := countSpillFiles(t, base); n != 0 {
		t.Fatalf("%d spill file(s) still live after the limit was satisfied", n)
	}
	if _, err := op.NextBatch(ctx); err != errEOF {
		t.Fatalf("after limit: %v, want EOF", err)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// Admission control: with one slot taken, a queued query does no work until
// the slot frees, and a cancelled waiter leaves the queue cleanly.
func TestAdmissionControlBlocksRunsAndCancels(t *testing.T) {
	rt, tab := failFixture(t)
	gov := mem.NewGovernor(mem.Config{MaxConcurrent: 1})
	rt.Gov = gov
	if _, err := gov.Admit(context.Background()); err != nil {
		t.Fatalf("occupying the slot: %v", err)
	}

	// A queued query whose deadline expires while waiting never executes.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	stats := NewStats()
	if _, err := RunIntoCtx(ctx, rt, chaosPlan(tab), nil, stats); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query: %v, want deadline exceeded", err)
	}
	if stats.RowsScanned() != 0 {
		t.Fatalf("queued query scanned %d rows before admission", stats.RowsScanned())
	}

	// A queued query runs as soon as the slot frees.
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(rt, chaosPlan(tab), nil)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		t.Fatalf("query ran while the slot was held: %v", o.err)
	case <-time.After(30 * time.Millisecond):
	}
	gov.Leave()
	o := <-done
	if o.err != nil {
		t.Fatalf("admitted query: %v", o.err)
	}
	if len(o.res.Rows) == 0 {
		t.Fatalf("admitted query produced no rows")
	}
	if gov.Active() != 0 {
		t.Fatalf("active = %d after the query finished", gov.Active())
	}
}
