package exec

import (
	"strings"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// Column liveness over hand-built plans of the star schema the benchmark
// runs: date_dim d (date_id, month, moy), sales s (sale_id, date_id, k1,
// amount) and dim1 a (k, tag), relations 1, 2 and 3.

type liveFixture struct {
	d, s, a *catalog.Table
}

const (
	relD, relS, relA = 1, 2, 3
)

func newLiveFixture(t *testing.T) *liveFixture {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, cols ...string) *catalog.Table {
		var cs []catalog.Column
		for _, c := range cols {
			kind := types.KindInt
			if c == "amount" {
				kind = types.KindFloat
			} else if c == "tag" {
				kind = types.KindString
			}
			cs = append(cs, catalog.Column{Name: c, Kind: kind})
		}
		tab, err := cat.CreateTable(name, cs, catalog.Hashed(0))
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		return tab
	}
	return &liveFixture{
		d: mk("date_dim", "date_id", "month", "moy"),
		s: mk("sales", "sale_id", "date_id", "k1", "amount"),
		a: mk("dim1", "k", "tag"),
	}
}

// col names column name of relation rel.
func (fx *liveFixture) col(rel int, name string) *expr.Col {
	tab := fx.table(rel)
	for ord, c := range tab.Cols {
		if c.Name == name {
			return tcol(rel, ord, name)
		}
	}
	panic("no column " + name)
}

func (fx *liveFixture) table(rel int) *catalog.Table {
	return map[int]*catalog.Table{relD: fx.d, relS: fx.s, relA: fx.a}[rel]
}

// join is an equi-join on one key pair.
func (fx *liveFixture) join(jt plan.JoinType, bkey, pkey *expr.Col, residual expr.Expr, build, probe plan.Node) *plan.HashJoin {
	return plan.NewHashJoin(jt, []expr.Expr{bkey}, []expr.Expr{pkey}, residual, build, probe, nil)
}

// dateSales is d ⋈ s on date_id.
func (fx *liveFixture) dateSales(jt plan.JoinType) *plan.HashJoin {
	return fx.join(jt, fx.col(relD, "date_id"), fx.col(relS, "date_id"), nil,
		plan.NewScan(fx.d, relD), plan.NewScan(fx.s, relS))
}

// twoStage splits an aggregate around a Gather, as the optimizer does.
func twoStage(groups []plan.GroupCol, aggs []plan.AggSpec, child plan.Node) plan.Node {
	partial := plan.NewStagedHashAgg(plan.AggPartial, groups, aggs, child)
	return plan.NewStagedHashAgg(plan.AggFinal, groups, aggs, plan.NewMotion(plan.GatherMotion, nil, partial))
}

func countStar() plan.AggSpec {
	return plan.AggSpec{Kind: plan.AggCount, Out: expr.ColID{Rel: 9, Ord: 0}}
}

func aggOf(k plan.AggKind, arg expr.Expr, ord int) plan.AggSpec {
	return plan.AggSpec{Kind: k, Arg: arg, Out: expr.ColID{Rel: 9, Ord: ord}}
}

// liveNames renders j's mask as the names of its live columns, "all" for a
// nil mask and "-" for a join without one.
func (fx *liveFixture) liveNames(m joinMasks, j *plan.HashJoin) string {
	mask, ok := m[j]
	if !ok {
		if j.Type == plan.SemiJoin {
			return "-"
		}
		return "all"
	}
	byPos := map[int]expr.ColID{}
	for id, p := range j.Layout() {
		byPos[p] = id
	}
	var names []string
	for p, live := range mask {
		if !live {
			continue
		}
		id := byPos[p]
		name := "rowid"
		if id.Ord != plan.RowIDOrd {
			name = fx.table(id.Rel).Cols[id.Ord].Name
		}
		names = append(names, map[int]string{relD: "d", relS: "s", relA: "a"}[id.Rel]+"."+name)
	}
	return strings.Join(names, " ")
}

// Each plan shape names the joins it holds and the columns each must
// gather: "" for none, "all" for every column, "-" for a semi join, which
// gathers nothing of its own.
func TestJoinMasks(t *testing.T) {
	fx := newLiveFixture(t)
	d := func(name string) *expr.Col { return fx.col(relD, name) }
	s := func(name string) *expr.Col { return fx.col(relS, name) }
	a := func(name string) *expr.Col { return fx.col(relA, name) }
	cases := []struct {
		name string
		plan func() (plan.Node, []*plan.HashJoin)
		want []string
	}{
		{"count(*) over a join reads nothing", func() (plan.Node, []*plan.HashJoin) {
			j := fx.dateSales(plan.InnerJoin)
			return twoStage(nil, []plan.AggSpec{countStar()}, j), []*plan.HashJoin{j}
		}, []string{""}},
		{"group_moy reads d.moy and s.amount", func() (plan.Node, []*plan.HashJoin) {
			j := fx.dateSales(plan.InnerJoin)
			groups := []plan.GroupCol{{E: d("moy"), Out: expr.ColID{Rel: 9, Ord: 9}}}
			return twoStage(groups, []plan.AggSpec{countStar(), aggOf(plan.AggSum, s("amount"), 1)}, j), []*plan.HashJoin{j}
		}, []string{"d.moy s.amount"}},
		{"two_dims: the upper probe key keeps s.date_id in the lower join", func() (plan.Node, []*plan.HashJoin) {
			lower := fx.join(plan.InnerJoin, a("k"), s("k1"), nil, plan.NewScan(fx.a, relA), plan.NewScan(fx.s, relS))
			upper := fx.join(plan.InnerJoin, d("date_id"), s("date_id"), nil, plan.NewScan(fx.d, relD), lower)
			return twoStage(nil, []plan.AggSpec{countStar(), aggOf(plan.AggSum, s("amount"), 1)}, upper), []*plan.HashJoin{upper, lower}
		}, []string{"s.amount", "s.date_id s.amount"}},
		{"a column only an ancestor's residual reads", func() (plan.Node, []*plan.HashJoin) {
			lower := fx.join(plan.InnerJoin, a("k"), s("k1"), nil, plan.NewScan(fx.a, relA), plan.NewScan(fx.s, relS))
			residual := expr.NewCmp(expr.GT, s("sale_id"), d("moy"))
			upper := fx.join(plan.InnerJoin, d("date_id"), s("date_id"), residual, plan.NewScan(fx.d, relD), lower)
			return twoStage(nil, []plan.AggSpec{countStar()}, upper), []*plan.HashJoin{upper, lower}
		}, []string{"", "s.sale_id s.date_id"}},
		{"a Redistribute hash key above a join", func() (plan.Node, []*plan.HashJoin) {
			j := fx.dateSales(plan.InnerJoin)
			redis := plan.NewMotion(plan.RedistributeMotion, []expr.Expr{s("sale_id")}, j)
			return twoStage(nil, []plan.AggSpec{countStar()}, redis), []*plan.HashJoin{j}
		}, []string{"s.sale_id"}},
		{"a filter and a projection above a join", func() (plan.Node, []*plan.HashJoin) {
			j := fx.dateSales(plan.InnerJoin)
			f := plan.NewFilter(expr.NewCmp(expr.LT, s("k1"), intc(5)), j)
			p := plan.NewProject([]plan.ProjCol{{E: d("month"), Out: expr.ColID{Rel: 9, Ord: 0}}}, f)
			return plan.NewMotion(plan.GatherMotion, nil, p), []*plan.HashJoin{j}
		}, []string{"d.month s.k1"}},
		{"a Sort above a join reads every column", func() (plan.Node, []*plan.HashJoin) {
			j := fx.dateSales(plan.InnerJoin)
			return plan.NewSort([]plan.SortKey{{Pos: 2}}, plan.NewMotion(plan.GatherMotion, nil, j)), []*plan.HashJoin{j}
		}, []string{"all"}},
		{"an Update above a join reads every column", func() (plan.Node, []*plan.HashJoin) {
			scan := plan.NewScan(fx.s, relS)
			scan.WithRowID = true
			j := fx.join(plan.InnerJoin, d("date_id"), s("date_id"), nil, plan.NewScan(fx.d, relD), scan)
			set := []plan.SetClause{{Ord: 3, Value: expr.NewConst(types.NewFloat(0))}}
			return plan.NewMotion(plan.GatherMotion, nil, plan.NewUpdate(fx.s, relS, set, j)), []*plan.HashJoin{j}
		}, []string{"all"}},
		{"a Delete above a join reads every column", func() (plan.Node, []*plan.HashJoin) {
			scan := plan.NewScan(fx.s, relS)
			scan.WithRowID = true
			j := fx.join(plan.InnerJoin, d("date_id"), s("date_id"), nil, plan.NewScan(fx.d, relD), scan)
			return plan.NewMotion(plan.GatherMotion, nil, plan.NewDelete(fx.s, relS, j)), []*plan.HashJoin{j}
		}, []string{"all"}},
		{"LEFT outer join under count(s.amount)", func() (plan.Node, []*plan.HashJoin) {
			j := fx.dateSales(plan.LeftOuterJoin)
			return twoStage(nil, []plan.AggSpec{aggOf(plan.AggCount, s("amount"), 0)}, j), []*plan.HashJoin{j}
		}, []string{"s.amount"}},
		{"RIGHT outer join under count(d.moy)", func() (plan.Node, []*plan.HashJoin) {
			j := fx.dateSales(plan.RightOuterJoin)
			return twoStage(nil, []plan.AggSpec{aggOf(plan.AggCount, d("moy"), 0)}, j), []*plan.HashJoin{j}
		}, []string{"d.moy"}},
		{"a semi join has no mask; what is read of it is read of its probe", func() (plan.Node, []*plan.HashJoin) {
			inner := fx.join(plan.InnerJoin, a("k"), s("k1"), nil, plan.NewScan(fx.a, relA), plan.NewScan(fx.s, relS))
			semi := fx.join(plan.SemiJoin, d("date_id"), s("date_id"), nil, plan.NewScan(fx.d, relD), inner)
			return twoStage(nil, []plan.AggSpec{aggOf(plan.AggSum, s("amount"), 0)}, semi), []*plan.HashJoin{semi, inner}
		}, []string{"-", "s.date_id s.amount"}},
		{"the root's result reads every column", func() (plan.Node, []*plan.HashJoin) {
			j := fx.dateSales(plan.InnerJoin)
			return plan.NewMotion(plan.GatherMotion, nil, j), []*plan.HashJoin{j}
		}, []string{"all"}},
	}
	for _, tc := range cases {
		root, joins := tc.plan()
		m := deriveJoinMasks(root)
		for i, j := range joins {
			if got := fx.liveNames(m, j); got != tc.want[i] {
				t.Errorf("%s: join %d gathers %q, want %q", tc.name, i, got, tc.want[i])
			}
		}
	}
}

// A plan without an inner or outer join derives no masks and allocates
// nothing doing so.
func TestJoinMasksJoinFreePlanAllocatesNothing(t *testing.T) {
	fx := newLiveFixture(t)
	sel := plan.NewPartitionSelector(fx.s, relS, nil, nil)
	scan := plan.NewSequence(sel, plan.NewDynamicScan(fx.s, relS, relS))
	filtered := plan.NewFilter(expr.NewCmp(expr.EQ, fx.col(relS, "k1"), intc(5)), scan)
	root := plan.NewProject([]plan.ProjCol{{E: fx.col(relS, "amount"), Out: expr.ColID{Rel: 9, Ord: 0}}},
		plan.NewSort([]plan.SortKey{{Pos: 0}}, plan.NewMotion(plan.GatherMotion, nil, filtered)))
	semi := fx.join(plan.SemiJoin, fx.col(relD, "date_id"), fx.col(relS, "date_id"), nil, plan.NewScan(fx.d, relD), root)
	for _, p := range []plan.Node{root, twoStage(nil, []plan.AggSpec{countStar()}, semi)} {
		if m := deriveJoinMasks(p); m != nil {
			t.Fatalf("join-free plan got masks %v", m)
		}
		if allocs := testing.AllocsPerRun(100, func() { deriveJoinMasks(p) }); allocs != 0 {
			t.Fatalf("join-free plan: %v allocations", allocs)
		}
	}
}
