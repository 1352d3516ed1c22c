package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/fault"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
)

func rowKeys(rows []types.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprint(r)
	}
	sort.Strings(keys)
	return keys
}

// The operators that fill a reused header row by row through fillBatch —
// hash join, hash aggregation and the spilling sort's run merge — never
// return an empty batch or one above capacity, and emit the same number of
// rows at batch size 7 as at the default size.
func TestBatchSizeRespected(t *testing.T) {
	cases := []struct {
		name string
		mk   func(*catalog.Table) plan.Node
	}{
		{"hash-join", spillJoinPlan},
		{"hash-agg", func(tab *catalog.Table) plan.Node { return spillAggPlan(tab, true) }},
		{"spilling-sort-merge", spillSortPlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := 0
			for _, n := range batchLens(t, tc.mk, DefaultBatchSize) {
				want += n
			}
			if want == 0 {
				t.Fatalf("default-size run produced no rows")
			}
			total := 0
			for i, n := range batchLens(t, tc.mk, 7) {
				if n > 7 {
					t.Fatalf("batch %d holds %d rows, want at most 7", i, n)
				}
				total += n
			}
			if total != want {
				t.Fatalf("saw %d rows at batch size 7, want %d", total, want)
			}
		})
	}
}

// batchLens drives the plan's root operator under a 2KiB work_mem at the
// given batch size and returns the length of every batch it produced,
// failing on an empty one. The small budget forces the sort onto its
// run-merge path.
func batchLens(t *testing.T, mk func(*catalog.Table) plan.Node, size int) []int {
	t.Helper()
	defer SetBatchSize(SetBatchSize(size))
	rt, tab := spillFixture(t)
	rt.Gov = mem.NewGovernor(mem.Config{WorkMem: 2 << 10, BaseDir: t.TempDir()})
	budget := rt.Gov.NewBudget()
	defer budget.Close()
	stats := NewStats()
	ctx := newCtx(rt, 0, nil, stats, context.Background(), budget, nil)
	op, err := buildOp(mk(tab), nil, nil)
	if err != nil {
		t.Fatalf("buildOp: %v", err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	if liveStats(ctx).SpilledBytes() == 0 {
		t.Fatalf("2KiB work_mem did not force a spill")
	}
	var lens []int
	for {
		b, err := op.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			t.Fatalf("next batch: %v", err)
		}
		if b.Len() == 0 {
			t.Fatalf("batch %d is empty", len(lens))
		}
		lens = append(lens, b.Len())
	}
	if err := op.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	return lens
}

// A full distributed query — scans, broadcast, hash join, gather — produces
// the identical result set and identical storage-read counts at every batch
// size, including the degenerate size 1 where every batch boundary the
// protocol has is exercised.
func TestBatchSizeEquivalence(t *testing.T) {
	rt, tab := failFixture(t)
	golden, err := Run(rt, chaosPlan(tab), nil)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	wantKeys := rowKeys(golden.Rows)
	wantScanned := golden.Stats.RowsScanned()

	for _, bs := range []int{1, 3, 64, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer SetBatchSize(SetBatchSize(bs))
			rt2, tab2 := failFixture(t)
			res, err := Run(rt2, chaosPlan(tab2), nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			gotKeys := rowKeys(res.Rows)
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("rows = %d, want %d", len(gotKeys), len(wantKeys))
			}
			for i := range wantKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("row multiset diverges at %d: %s vs %s", i, gotKeys[i], wantKeys[i])
				}
			}
			if got := res.Stats.RowsScanned(); got != wantScanned {
				t.Fatalf("rows scanned = %d, want %d", got, wantScanned)
			}
		})
	}
}

// Batched operators still honor cancellation and fault injection at every
// batch size: a probability-1 delay rule on the per-batch OpNext point must
// both fire and be interrupted by the caller's cancel.
func TestBatchedOperatorsHonorCancellation(t *testing.T) {
	for _, bs := range []int{1, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer SetBatchSize(SetBatchSize(bs))
			rt, tab := failFixture(t)
			inj := fault.NewInjector(1)
			inj.Arm(fault.Rule{Point: fault.OpNext, Kind: fault.KindDelay, Seg: fault.AnySeg, Prob: 1, Delay: 10 * time.Second})
			rt.Faults = inj

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := RunIntoCtx(ctx, rt, chaosPlan(tab), nil, NewStats())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("cancellation ignored for %v", elapsed)
			}
			if inj.Triggered() == 0 {
				t.Fatalf("per-batch fault point never fired")
			}
		})
	}
}

// A permanent fault on the per-batch OpNext point fails the query with full
// provenance regardless of batch size.
func TestBatchedOperatorsHonorFaults(t *testing.T) {
	for _, bs := range []int{1, DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer SetBatchSize(SetBatchSize(bs))
			rt, tab := failFixture(t)
			inj := fault.NewInjector(3)
			inj.Arm(fault.Rule{Point: fault.OpNext, Kind: fault.KindError, Seg: 2, After: 1, Once: true})
			rt.Faults = inj

			_, err := Run(rt, chaosPlan(tab), nil)
			if err == nil {
				t.Fatalf("injected fault returned success")
			}
			var qe *QueryError
			if !errors.As(err, &qe) || qe.Seg != 2 {
				t.Fatalf("fault provenance lost: %v", err)
			}
		})
	}
}

// batchSrc emits one prepared batch, then EOF.
type batchSrc struct {
	b    *Batch
	done bool
}

func (s *batchSrc) Open(*Ctx) error  { s.done = false; return nil }
func (s *batchSrc) Close(*Ctx) error { return nil }

func (s *batchSrc) NextBatch(*Ctx) (*Batch, error) {
	if s.done {
		return nil, errEOF
	}
	s.done = true
	return s.b, nil
}

// A projection that reorders a subset of its input's columns, over the
// three batch shapes it meets: a scan batch (rows and lanes), a lazy batch
// narrowed by Sel (a hash join's output once a filter has qualified it)
// and a row-only batch. Each output's rows, and its lanes when it has
// them, equal expr.Eval of the projected columns over the input rows, and
// the lazy input comes out lazy.
func TestProjectPermutesLanes(t *testing.T) {
	child := aggInput(t)
	proj := plan.NewProject([]plan.ProjCol{
		{E: tcol(1, 3, "f"), Name: "f", Out: expr.ColID{Rel: 9, Ord: 0}},
		{E: tcol(1, 0, "k"), Name: "k", Out: expr.ColID{Rel: 9, Ord: 1}},
	}, child)
	var data []types.Row
	for i := 0; i < 20; i++ {
		f := types.NewFloat(float64(i) / 4)
		if i%5 == 0 {
			f = types.Null
		}
		data = append(data, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3)), types.NewInt(int64(i * 10)), f})
	}
	cs := laneChunk([]types.Kind{types.KindInt, types.KindInt, types.KindInt, types.KindFloat}, data)
	sel := []int32{1, 4, 5, 11, 19}
	var selected []types.Row
	for _, k := range sel {
		selected = append(selected, data[k])
	}
	inputs := []struct {
		name string
		b    Batch
		src  []types.Row // the input's rows, in batch order
		lazy bool
	}{
		{"scan rows and lanes", Batch{Rows: cs.RowView(), Cols: cs.ViewSnapshot(), n: len(data)}, data, false},
		{"lazy with Sel", Batch{Cols: cs.ViewSnapshot(), Sel: sel, n: len(sel)}, selected, true},
		{"row-only", Batch{Rows: data, n: len(data)}, data, false},
	}
	env := expr.Env{Layout: child.Layout()}
	for _, in := range inputs {
		ctx := newCtx(&Runtime{}, 0, nil, NewStats(), context.Background(), nil, nil)
		op := &projectOp{n: proj, child: &batchSrc{b: &in.b}}
		if err := op.Open(ctx); err != nil {
			t.Fatalf("%s: open: %v", in.name, err)
		}
		out, err := op.NextBatch(ctx)
		if err != nil {
			t.Fatalf("%s: next batch: %v", in.name, err)
		}
		if in.lazy && out.Rows != nil {
			t.Errorf("%s: output rows were built", in.name)
		}
		if (out.Cols != nil) != (in.b.Cols != nil) {
			t.Errorf("%s: output carries lanes %v, input %v", in.name, out.Cols != nil, in.b.Cols != nil)
		}
		if out.Len() != len(in.src) {
			t.Fatalf("%s: %d rows, want %d", in.name, out.Len(), len(in.src))
		}
		rows := out.rows(ctx)
		for k, src := range in.src {
			env.Row = src
			for j, c := range proj.Cols {
				want, err := expr.Eval(c.E, &env)
				if err != nil {
					t.Fatalf("%s: eval: %v", in.name, err)
				}
				got := []types.Datum{rows[k][j]}
				if out.Cols != nil {
					got = append(got, out.Cols[j].Datum(selRow(out.Sel, k)))
				}
				for _, g := range got {
					if g.IsNull() != want.IsNull() || !want.IsNull() && types.Compare(g, want) != 0 {
						t.Errorf("%s: row %d col %d = %v, want %v", in.name, k, j, g, want)
					}
				}
			}
		}
		if err := op.Close(ctx); err != nil {
			t.Fatalf("%s: close: %v", in.name, err)
		}
	}
}
