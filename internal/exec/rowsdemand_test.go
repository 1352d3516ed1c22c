package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// Rows on demand. A filter over a scan-shaped batch forwards the window's
// row headers under its selection vector and builds no Rows; whoever reads
// rows gathers exactly the source's headers, and nothing is counted as
// materialized. A consumer that reads only lanes (a Partial aggregate, the
// spill writer's batchRow) leaves the filter's output without Rows.

// rowsSpy sits between a filter and its consumer and counts the batches
// whose Rows were set by the time the consumer came back for the next one.
type rowsSpy struct {
	child Operator
	last  *Batch
	built int
}

func (s *rowsSpy) Open(ctx *Ctx) error { s.last, s.built = nil, 0; return s.child.Open(ctx) }

func (s *rowsSpy) Close(ctx *Ctx) error { s.note(); return s.child.Close(ctx) }

func (s *rowsSpy) note() {
	if s.last != nil && s.last.Rows != nil {
		s.built++
	}
	s.last = nil
}

func (s *rowsSpy) NextBatch(ctx *Ctx) (*Batch, error) {
	s.note()
	b, err := s.child.NextBatch(ctx)
	if err == nil {
		s.last = b
	}
	return b, err
}

// slotRows hands up its source's batches with the rows gathered per slot
// and the window dropped: rows beside lanes, under Sel when the source
// keeps some rows — the shape a row-path projection emits over a filter,
// or without Sel over a plain scan.
type slotRows struct{ *laneSrc }

func (s slotRows) NextBatch(ctx *Ctx) (*Batch, error) {
	b, err := s.laneSrc.NextBatch(ctx)
	if err == nil {
		b.rows(ctx)
		b.win = nil
	}
	return b, err
}

// drain pulls op to the end and returns every batch's rows.
func drain(t *testing.T, ctx *Ctx, op Operator) []types.Row {
	t.Helper()
	if err := op.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	var rows []types.Row
	for {
		b, err := op.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			t.Fatalf("next batch: %v", err)
		}
		rows = append(rows, b.rows(ctx)...)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	return rows
}

// gatherRows sends op's batches through a Gather Motion's sender, as a
// segment slice does, and returns what the receiver got.
func gatherRows(t *testing.T, ctx *Ctx, child plan.Node, op Operator) []types.Row {
	t.Helper()
	ex := newExchange(plan.NewMotion(plan.GatherMotion, nil, child), []int{0}, 1)
	errc := make(chan error, 1)
	go func() {
		defer ex.senderDone()
		errc <- func() error {
			if err := op.Open(ctx); err != nil {
				return err
			}
			defer op.Close(ctx)
			snd := ex.newSender(ctx)
			for {
				b, err := op.NextBatch(ctx)
				if errors.Is(err, errEOF) {
					return snd.flushAll(ctx)
				}
				if err != nil {
					return err
				}
				if err := snd.sendBatch(ctx, b); err != nil {
					return err
				}
			}
		}()
	}()
	rctx := newCtx(&Runtime{}, 0, nil, NewStats(), context.Background(), nil, nil)
	rows := drain(t, rctx, &motionRecvOp{ex: ex})
	if err := <-errc; err != nil {
		t.Fatalf("sender: %v", err)
	}
	return rows
}

// demandData is relation 1 of aggInput (k, k2, v, f): v is the row's
// index, k2 holds one float among its ints (a degraded lane), f is NULL
// every ninth row.
func demandData(n int) *vec.ColumnSet {
	data := make([]types.Row, n)
	for i := range data {
		k2, f := types.NewInt(int64(i%7)), types.NewFloat(float64(i)/4)
		if i == 3 {
			k2 = types.NewFloat(2.5)
		}
		if i%9 == 0 {
			f = types.Null
		}
		data[i] = types.Row{types.NewInt(int64(i % 50)), k2, types.NewInt(int64(i)), f}
	}
	return laneChunk([]types.Kind{types.KindInt, types.KindInt, types.KindInt, types.KindFloat}, data)
}

// TestFilterRowsOnDemand runs a filter, with a predicate the vector kernel
// takes and one it refuses, over each source shape at batch sizes 1, 7 and
// 1024, under each consumer. Every consumer's rows equal expr.EvalPred
// over the source; those that hand rows on share the source's datums; no
// batch whose rows are headers is counted as materialized; and a consumer
// that reads lanes only leaves the filter's output without Rows.
func TestFilterRowsOnDemand(t *testing.T) {
	cs := demandData(3000)
	src := cs.RowView()
	input := aggInput(t)
	k, k2, f := tcol(1, 0, "k"), tcol(1, 1, "k2"), tcol(1, 3, "f")
	inner := expr.NewCmp(expr.GE, f, expr.NewConst(types.NewFloat(10)))
	preds := []struct {
		name string
		e    expr.Expr
		vec  bool // the vector kernel takes it (vpCmpCol refuses the degraded k2)
	}{
		{"kernel", expr.NewCmp(expr.LT, k, intc(20)), true},
		{"fallback", expr.NewCmp(expr.LT, k, k2), false},
	}
	sources := []struct {
		name    string
		op      func() Operator
		node    plan.Node
		pass    expr.Expr // what the source itself keeps (nil: every row)
		headers bool      // its rows are the source's own headers
		lazyOut bool      // a vector filter over it builds no Rows
	}{
		{"window", func() Operator { return &laneSrc{chunks: []*vec.ColumnSet{cs}, win: true} }, input, nil, true, true},
		{"filter-over-filter", func() Operator {
			return &filterOp{n: plan.NewFilter(inner, input), child: &laneSrc{chunks: []*vec.ColumnSet{cs}, win: true}}
		}, plan.NewFilter(inner, input), inner, true, true},
		{"lane-only", func() Operator { return &laneSrc{chunks: []*vec.ColumnSet{cs}} }, input, nil, false, true},
		{"row-only", func() Operator { return &laneSrc{chunks: []*vec.ColumnSet{cs}, rows: true} }, input, nil, true, false},
		{"rows-by-slot", func() Operator {
			return slotRows{&laneSrc{chunks: []*vec.ColumnSet{cs}, win: true, keep: func(r types.Row) bool {
				ok, err := expr.EvalPred(inner, &expr.Env{Layout: input.Layout(), Row: r})
				return ok && err == nil
			}}}
		}, input, inner, true, false},
		{"rows-beside-lanes", func() Operator {
			return slotRows{&laneSrc{chunks: []*vec.ColumnSet{cs}, win: true}}
		}, input, nil, true, false},
	}
	build := func() plan.Node {
		tab, err := catalog.New().CreateTable("b", []catalog.Column{{Name: "bk", Kind: types.KindInt}}, catalog.Hashed(0))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		return plan.NewScan(tab, 2)
	}()
	var buildRows []types.Row
	for x := int64(1); x < 50; x += 2 {
		buildRows = append(buildRows, types.Row{types.NewInt(x)})
	}
	buildChunk := laneChunk([]types.Kind{types.KindInt}, buildRows)
	out := func(ord int) expr.ColID { return expr.ColID{Rel: 9, Ord: ord} }
	projCols := []plan.ProjCol{{E: tcol(1, 2, "v"), Name: "v", Out: out(0)}, {E: k, Name: "k", Out: out(1)}}
	agg := groupAgg(t, plan.AggPartial, 1, true)

	type consumer struct {
		name string
		// run drives the consumer over the filter (node, op) and returns
		// its rows and the source rows they must equal, in order.
		run       func(ctx *Ctx, fnode plan.Node, op Operator, kept []types.Row) (got, want []types.Row)
		shares    bool // its rows are the filter's row headers
		lanesOnly bool // it reads no rows
	}
	consumers := []consumer{
		{"partial-agg", func(ctx *Ctx, _ plan.Node, op Operator, kept []types.Row) ([]types.Row, []types.Row) {
			return drain(t, ctx, &hashAggOp{n: agg, child: op}), refAgg(t, agg, kept)
		}, false, true},
		{"spill", func(ctx *Ctx, _ plan.Node, op Operator, kept []types.Row) ([]types.Row, []types.Row) {
			gov := mem.NewGovernor(mem.Config{WorkMem: 1, BaseDir: t.TempDir()})
			budget := gov.NewBudget()
			defer budget.Close()
			ctx.budget = budget
			defer func() { ctx.budget = nil }()
			got := drain(t, ctx, &hashAggOp{n: agg, child: op})
			if liveStats(ctx).SpilledBytes() == 0 && len(kept) > 0 {
				t.Errorf("the aggregate did not spill")
			}
			return got, refAgg(t, agg, kept)
		}, false, true},
		{"gather", func(ctx *Ctx, fnode plan.Node, op Operator, kept []types.Row) ([]types.Row, []types.Row) {
			return gatherRows(t, ctx, fnode, op), kept
		}, true, false},
		{"sort", func(ctx *Ctx, fnode plan.Node, op Operator, kept []types.Row) ([]types.Row, []types.Row) {
			s := plan.NewSort([]plan.SortKey{{Pos: 2, Desc: true}}, fnode)
			want := slices.Clone(kept)
			slices.Reverse(want)
			return drain(t, ctx, &sortOp{n: s, child: op}), want
		}, true, false},
		{"limit", func(ctx *Ctx, fnode plan.Node, op Operator, kept []types.Row) ([]types.Row, []types.Row) {
			n := len(kept)/2 + 1
			return drain(t, ctx, &limitOp{n: plan.NewLimit(int64(n), fnode), child: op}), kept[:min(n, len(kept))]
		}, true, false},
		{"project", func(ctx *Ctx, fnode plan.Node, op Operator, kept []types.Row) ([]types.Row, []types.Row) {
			var want []types.Row
			for _, r := range kept {
				want = append(want, types.Row{r[2], r[0]})
			}
			return drain(t, ctx, &projectOp{n: plan.NewProject(projCols, fnode), child: op}), want
		}, false, false},
		{"semi-join", func(ctx *Ctx, fnode plan.Node, op Operator, kept []types.Row) ([]types.Row, []types.Row) {
			j := plan.NewHashJoin(plan.SemiJoin, []expr.Expr{tcol(2, 0, "bk")}, []expr.Expr{k}, nil, build, fnode, nil)
			var want []types.Row
			for _, r := range kept {
				if r[0].Int()%2 == 1 {
					want = append(want, r)
				}
			}
			bsrc := &laneSrc{chunks: []*vec.ColumnSet{buildChunk}, rows: true}
			return drain(t, ctx, &hashJoinOp{n: j, build: bsrc, probe: op}), want
		}, true, false},
	}

	for _, size := range []int{1, 7, 1024} {
		prev := SetBatchSize(size)
		for _, p := range preds {
			for _, s := range sources {
				env := expr.Env{Layout: input.Layout()}
				var kept []types.Row
				for _, r := range src {
					env.Row = r
					ok := true
					for _, e := range []expr.Expr{s.pass, p.e} {
						if e == nil || !ok {
							continue
						}
						var err error
						if ok, err = expr.EvalPred(e, &env); err != nil {
							t.Fatalf("reference: %v", err)
						}
					}
					if ok {
						kept = append(kept, r)
					}
				}
				for _, c := range consumers {
					name := fmt.Sprintf("size=%d/%s/%s/%s", size, p.name, s.name, c.name)
					fnode := plan.NewFilter(p.e, s.node)
					spy := &rowsSpy{child: &filterOp{n: fnode, child: s.op()}}
					ctx := newCtx(&Runtime{}, 0, nil, NewStats(), context.Background(), nil, nil)
					ctx.pushOp(ctx.frameFor(fnode))
					got, want := c.run(ctx, fnode, spy, kept)
					if g, w := rendered(got), rendered(want); !slices.Equal(g, w) {
						t.Errorf("%s: %d rows, want %d", name, len(g), len(w))
						continue
					}
					if c.shares && s.headers {
						for i := range got {
							if &got[i][0] != &want[i][0] {
								t.Errorf("%s: row %d does not share the source row's datums", name, i)
								break
							}
						}
					}
					mat := liveStats(ctx).RowsMaterializedBatches()
					lazy := s.headers || (p.vec && c.lanesOnly)
					if lazy && mat != 0 {
						t.Errorf("%s: %d batches materialized, want 0", name, mat)
					}
					if !lazy && len(kept) > 0 && mat == 0 {
						t.Errorf("%s: rows built from lanes were not counted", name)
					}
					if c.lanesOnly && s.lazyOut && p.vec && spy.built != 0 {
						t.Errorf("%s: %d filter batches had Rows built under a lane-only consumer", name, spy.built)
					}
				}
			}
		}
		SetBatchSize(prev)
	}
	t.Run("limit-over-scan", limitOverWindow)
}

// limitOverWindow: a LIMIT cuts a scan batch, which has no selection
// vector, before anyone reads its rows; the rows are the window's first
// headers only.
func limitOverWindow(t *testing.T) {
	cs := demandData(50)
	src := cs.RowView()
	defer SetBatchSize(SetBatchSize(16))
	for _, n := range []int{1, 7, 16, 23} {
		ctx := newCtx(&Runtime{}, 0, nil, NewStats(), context.Background(), nil, nil)
		lim := &limitOp{n: plan.NewLimit(int64(n), aggInput(t)), child: &laneSrc{chunks: []*vec.ColumnSet{cs}, win: true}}
		got := drain(t, ctx, lim)
		if len(got) != n {
			t.Fatalf("limit %d: %d rows", n, len(got))
		}
		for i := range got {
			if &got[i][0] != &src[i][0] {
				t.Fatalf("limit %d: row %d is not the window's header", n, i)
			}
		}
		if mat := liveStats(ctx).RowsMaterializedBatches(); mat != 0 {
			t.Fatalf("limit %d: %d batches materialized", n, mat)
		}
	}
}
