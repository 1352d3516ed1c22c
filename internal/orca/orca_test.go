package orca

import (
	"sort"
	"strings"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/exec"
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/stats"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// paperSchema builds the §3.1 example: R(pk, v) hash-distributed on pk and
// range-partitioned on pk into 20 parts of 50 values; S(a, b) hash
// distributed on a, unpartitioned, small.
func paperSchema(t *testing.T, segs int) (*catalog.Catalog, *storage.Store, *exec.Runtime) {
	t.Helper()
	cat := catalog.New()
	st := storage.NewStore(segs)
	r, err := cat.CreateTable("R",
		[]catalog.Column{{Name: "pk", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}},
		catalog.Hashed(0),
		part.RangeLevel(0, part.IntBounds(0, 1000, 20)...),
	)
	if err != nil {
		t.Fatalf("create R: %v", err)
	}
	st.CreateTable(r)
	for i := int64(0); i < 1000; i++ {
		if err := st.Insert(r, types.Row{types.NewInt(i), types.NewInt(i % 7)}); err != nil {
			t.Fatalf("insert R: %v", err)
		}
	}
	s, err := cat.CreateTable("S",
		[]catalog.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}},
		catalog.Hashed(1), // distributed on b: the join on a requires data movement
	)
	if err != nil {
		t.Fatalf("create S: %v", err)
	}
	st.CreateTable(s)
	for i := int64(0); i < 10; i++ {
		if err := st.Insert(s, types.Row{types.NewInt(i * 3), types.NewInt(i)}); err != nil {
			t.Fatalf("insert S: %v", err)
		}
	}
	if err := stats.CollectAll(st, cat); err != nil {
		t.Fatalf("stats: %v", err)
	}
	return cat, st, &exec.Runtime{Store: st}
}

func col(rel, ord int, name string) *expr.Col {
	return expr.NewCol(expr.ColID{Rel: rel, Ord: ord}, name)
}

// paperQuery is SELECT * FROM R, S WHERE R.pk = S.a with R as rel 1, S as
// rel 2.
func paperQuery(cat *catalog.Catalog) logical.Node {
	r := cat.MustTable("R")
	s := cat.MustTable("S")
	return &logical.Join{
		Type:  plan.InnerJoin,
		Pred:  expr.NewCmp(expr.EQ, col(1, 0, "R.pk"), col(2, 0, "S.a")),
		Left:  &logical.Get{Table: r, Rel: 1, Alias: "R"},
		Right: &logical.Get{Table: s, Rel: 2, Alias: "S"},
	}
}

// TestFig14Plan4Chosen asserts the optimizer picks the paper's Plan 4: the
// join's build side replicates S under a PartitionSelector carrying
// R.pk = S.a, and the probe side is the bare DynamicScan(R).
func TestFig14Plan4Chosen(t *testing.T) {
	cat, _, _ := paperSchema(t, 4)
	o := &Optimizer{Segments: 4}
	p, err := o.Optimize(paperQuery(cat))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	out := plan.Explain(p)

	gather, ok := p.(*plan.Motion)
	if !ok || gather.Kind != plan.GatherMotion {
		t.Fatalf("root = %T:\n%s", p, out)
	}
	join, ok := gather.Child.(*plan.HashJoin)
	if !ok {
		t.Fatalf("below gather = %T:\n%s", gather.Child, out)
	}
	sel, ok := join.Build.(*plan.PartitionSelector)
	if !ok {
		t.Fatalf("build side = %T, want PartitionSelector (Plan 4):\n%s", join.Build, out)
	}
	if sel.PartScanID != 1 || sel.Preds[0] == nil || !strings.Contains(sel.Preds[0].String(), "R.pk = S.a") {
		t.Errorf("selector = %s", sel.Label())
	}
	// Below the producer selector: a motion moving S (the paper's Plan 4
	// replicates S; redistributing it onto the probe's hash layout is the
	// cheaper colocation our cost model finds — both keep the selector
	// above the motion, the pattern the paper's §3.1 requires).
	motion, ok := sel.Child.(*plan.Motion)
	if !ok || (motion.Kind != plan.BroadcastMotion && motion.Kind != plan.RedistributeMotion) {
		t.Fatalf("selector child = %T, want a Motion below the selector:\n%s", sel.Child, out)
	}
	if _, ok := motion.Child.(*plan.Scan); !ok {
		t.Fatalf("motion child = %T, want Scan(S):\n%s", motion.Child, out)
	}
	if _, ok := join.Probe.(*plan.DynamicScan); !ok {
		t.Fatalf("probe side = %T, want DynamicScan(R):\n%s", join.Probe, out)
	}
}

func TestPaperQueryExecutes(t *testing.T) {
	cat, _, rt := paperSchema(t, 4)
	o := &Optimizer{Segments: 4}
	p, err := o.Optimize(paperQuery(cat))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, plan.Explain(p))
	}
	// S.a ∈ {0,3,...,27}: 10 matches.
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d, want 10", len(res.Rows))
	}
	// R.pk 0..27 spans leaf ranges [0,50) — all ten values in 1 partition.
	if got := res.Stats.PartsScanned("R"); got != 1 {
		t.Errorf("R parts scanned = %d, want 1 of 20", got)
	}
}

func TestDisableSelectionScansAll(t *testing.T) {
	cat, _, rt := paperSchema(t, 2)
	o := &Optimizer{Segments: 2, DisableSelection: true}
	p, err := o.Optimize(paperQuery(cat))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, plan.Explain(p))
	}
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d, want 10", len(res.Rows))
	}
	if got := res.Stats.PartsScanned("R"); got != 20 {
		t.Errorf("R parts scanned = %d, want all 20 with selection disabled", got)
	}
}

func TestStaticSelectionThroughSelect(t *testing.T) {
	cat, _, rt := paperSchema(t, 2)
	r := cat.MustTable("R")
	q := &logical.Select{
		Pred:  expr.NewCmp(expr.LT, col(1, 0, "R.pk"), expr.NewConst(types.NewInt(100))),
		Child: &logical.Get{Table: r, Rel: 1},
	}
	o := &Optimizer{Segments: 2}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 100 {
		t.Errorf("rows = %d, want 100", len(res.Rows))
	}
	if got := res.Stats.PartsScanned("R"); got != 2 {
		t.Errorf("parts scanned = %d, want 2 ([0,50) and [50,100))", got)
	}
}

func TestGroupedAggregation(t *testing.T) {
	cat, _, rt := paperSchema(t, 2)
	r := cat.MustTable("R")
	q := &logical.GroupBy{
		Groups: []plan.GroupCol{{E: col(1, 1, "R.v"), Name: "v", Out: expr.ColID{Rel: 10, Ord: 0}}},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Out: expr.ColID{Rel: 10, Ord: 1}},
		},
		Child: &logical.Select{
			Pred:  expr.NewCmp(expr.LT, col(1, 0, "R.pk"), expr.NewConst(types.NewInt(70))),
			Child: &logical.Get{Table: r, Rel: 1},
		},
	}
	o := &Optimizer{Segments: 2}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, plan.Explain(p))
	}
	if len(res.Rows) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.Rows))
	}
	var total int64
	for _, row := range res.Rows {
		total += row[1].Int()
	}
	if total != 70 {
		t.Errorf("sum of counts = %d, want 70", total)
	}
	if got := res.Stats.PartsScanned("R"); got != 2 {
		t.Errorf("parts scanned = %d, want 2", got)
	}
}

func TestScalarAggregationOnCoordinator(t *testing.T) {
	cat, _, rt := paperSchema(t, 3)
	r := cat.MustTable("R")
	q := &logical.GroupBy{
		Aggs: []plan.AggSpec{
			{Kind: plan.AggAvg, Arg: col(1, 0, "R.pk"), Name: "avg_pk", Out: expr.ColID{Rel: 10, Ord: 0}},
			{Kind: plan.AggCount, Name: "n", Out: expr.ColID{Rel: 10, Ord: 1}},
		},
		Child: &logical.Get{Table: r, Rel: 1},
	}
	o := &Optimizer{Segments: 3}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, plan.Explain(p))
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Float() != 499.5 || res.Rows[0][1].Int() != 1000 {
		t.Errorf("avg/count = %v", res.Rows[0])
	}
}

func TestSemiJoinINSubquery(t *testing.T) {
	cat, _, rt := paperSchema(t, 2)
	r := cat.MustTable("R")
	s := cat.MustTable("S")
	// R.pk IN (SELECT a FROM S WHERE b < 4): build = S side, probe = R.
	q := &logical.Join{
		Type: plan.SemiJoin,
		Pred: expr.NewCmp(expr.EQ, col(1, 0, "R.pk"), col(2, 0, "S.a")),
		Left: &logical.Select{
			Pred:  expr.NewCmp(expr.LT, col(2, 1, "S.b"), expr.NewConst(types.NewInt(4))),
			Child: &logical.Get{Table: s, Rel: 2},
		},
		Right: &logical.Get{Table: r, Rel: 1},
	}
	o := &Optimizer{Segments: 2}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, plan.Explain(p))
	}
	// b<4 → a ∈ {0,3,6,9}: 4 matching R rows, each exactly once.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4: %v", len(res.Rows), res.Rows)
	}
	vals := make([]int64, 0, 4)
	for _, row := range res.Rows {
		vals = append(vals, row[0].Int())
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	want := []int64{0, 3, 6, 9}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v, want %v", vals, want)
		}
	}
	// Dynamic elimination: only the [0,50) partition scanned.
	if got := res.Stats.PartsScanned("R"); got != 1 {
		t.Errorf("R parts scanned = %d, want 1", got)
	}
}

func TestUpdatePlan(t *testing.T) {
	cat, _, rt := paperSchema(t, 2)
	r := cat.MustTable("R")
	s := cat.MustTable("S")
	// UPDATE R SET v = S.b FROM S WHERE R.pk = S.a.
	q := &logical.Update{
		Table: r,
		Rel:   1,
		Sets:  []plan.SetClause{{Ord: 1, Value: col(2, 1, "S.b")}},
		Child: &logical.Join{
			Type:  plan.InnerJoin,
			Pred:  expr.NewCmp(expr.EQ, col(1, 0, "R.pk"), col(2, 0, "S.a")),
			Left:  &logical.Get{Table: s, Rel: 2},
			Right: &logical.Get{Table: r, Rel: 1},
		},
	}
	o := &Optimizer{Segments: 2}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, plan.Explain(p))
	}
	var updated int64
	for _, row := range res.Rows {
		updated += row[0].Int()
	}
	if updated != 10 {
		t.Errorf("updated = %d, want 10", updated)
	}
	// Verify one concrete value: R.pk = 27 → S.b = 9.
	check := &logical.Select{
		Pred:  expr.NewCmp(expr.EQ, col(1, 0, "R.pk"), expr.NewConst(types.NewInt(27))),
		Child: &logical.Get{Table: r, Rel: 1},
	}
	cp, err := o.Optimize(check)
	if err != nil {
		t.Fatalf("Optimize check: %v", err)
	}
	cres, err := exec.Run(rt, cp, nil)
	if err != nil {
		t.Fatalf("Run check: %v", err)
	}
	if len(cres.Rows) != 1 || cres.Rows[0][1].Int() != 9 {
		t.Errorf("R.pk=27 = %v, want v=9", cres.Rows)
	}
}

func TestColocatedJoinAvoidsMotionOnDistKey(t *testing.T) {
	// Join S with itself on the distribution key b: both sides already
	// hashed on b, so no Redistribute/Broadcast should appear.
	cat, _, _ := paperSchema(t, 4)
	s := cat.MustTable("S")
	q := &logical.Join{
		Type:  plan.InnerJoin,
		Pred:  expr.NewCmp(expr.EQ, col(1, 1, "s1.b"), col(2, 1, "s2.b")),
		Left:  &logical.Get{Table: s, Rel: 1},
		Right: &logical.Get{Table: s, Rel: 2},
	}
	o := &Optimizer{Segments: 4}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	motions := plan.FindAll(p, func(n plan.Node) bool {
		m, ok := n.(*plan.Motion)
		return ok && m.Kind != plan.GatherMotion
	})
	if len(motions) != 0 {
		t.Errorf("colocated join should need no data movement:\n%s", plan.Explain(p))
	}
}

func TestMemoAlternativesExist(t *testing.T) {
	// The memo must contain both join orders (commutativity) and multiple
	// satisfiable requests, mirroring the paper's Fig. 13 structure.
	cat, _, _ := paperSchema(t, 4)
	o := &Optimizer{Segments: 4}
	m := &memo{o: o}
	g, err := m.insert(paperQuery(cat))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if len(g.lexprs) != 2 {
		t.Fatalf("join group has %d lexprs, want 2 (commuted pair)", len(g.lexprs))
	}
	specs := collectSpecs(paperQuery(cat))
	if len(specs) != 1 || specs[0].ScanRel != 1 {
		t.Fatalf("specs = %v", specs)
	}
	res := m.optimize(g, request{dist: AnySpec(), specs: specs})
	if !res.valid {
		t.Fatalf("no valid plan")
	}
	// The request cache must contain more than one satisfied request
	// across groups (the enforcer-generated child requests).
	total := 0
	for _, grp := range m.groups {
		total += len(grp.best)
	}
	if total < 5 {
		t.Errorf("memo explored only %d requests", total)
	}
}

func TestSelectorNeverAboveMotionOverOwnScan(t *testing.T) {
	// Structural invariant over every optimized plan in this file's
	// scenarios: on the path selector → its DynamicScan there is no Motion.
	cat, _, _ := paperSchema(t, 4)
	o := &Optimizer{Segments: 4}
	queries := []logical.Node{
		paperQuery(cat),
		&logical.Select{
			Pred:  expr.NewCmp(expr.LT, col(1, 0, "R.pk"), expr.NewConst(types.NewInt(100))),
			Child: &logical.Get{Table: cat.MustTable("R"), Rel: 1},
		},
	}
	for _, q := range queries {
		p, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		plan.Walk(p, func(n plan.Node) bool {
			sel, ok := n.(*plan.PartitionSelector)
			if !ok {
				return true
			}
			if sel.Child != nil && containsScan(sel.Child, sel.PartScanID) {
				if !pathMotionFree(sel.Child, sel.PartScanID) {
					t.Errorf("selector separated from scan by motion:\n%s", plan.Explain(p))
				}
			}
			return true
		})
	}
}

func TestCrossJoinFallsBackToBroadcast(t *testing.T) {
	cat, _, rt := paperSchema(t, 2)
	s := cat.MustTable("S")
	q := &logical.Join{
		Type:  plan.InnerJoin,
		Pred:  nil, // cross join
		Left:  &logical.Get{Table: s, Rel: 1},
		Right: &logical.Get{Table: s, Rel: 2},
	}
	o := &Optimizer{Segments: 2}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, plan.Explain(p))
	}
	if len(res.Rows) != 100 {
		t.Errorf("cross join rows = %d, want 100", len(res.Rows))
	}
}

// Distributed grouped aggregation: 7 groups over 1000 rows hashed on another
// column. The Memo splits the aggregate around the Gather — every segment
// folds its own rows, only group states travel, the coordinator combines
// them — instead of redistributing all 1000 rows on the group column.
func TestGroupedAggregationRunsDistributed(t *testing.T) {
	cat, _, rt := paperSchema(t, 4)
	r := cat.MustTable("R")
	q := &logical.GroupBy{
		Groups: []plan.GroupCol{{E: col(1, 1, "R.v"), Name: "v", Out: expr.ColID{Rel: 10, Ord: 0}}},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Out: expr.ColID{Rel: 10, Ord: 1}},
			{Kind: plan.AggSum, Arg: col(1, 0, "R.pk"), Name: "s", Out: expr.ColID{Rel: 10, Ord: 2}},
		},
		Child: &logical.Get{Table: r, Rel: 1},
	}
	o := &Optimizer{Segments: 4}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// Final stage on the coordinator, Gather, Partial stage on the segments.
	final, ok := p.(*plan.HashAgg)
	if !ok || final.Stage != plan.AggFinal {
		t.Fatalf("root = %T:\n%s", p, plan.Explain(p))
	}
	gather, ok := final.Child.(*plan.Motion)
	if !ok || gather.Kind != plan.GatherMotion {
		t.Fatalf("final stage child = %T:\n%s", final.Child, plan.Explain(p))
	}
	if partial, ok := gather.Child.(*plan.HashAgg); !ok || partial.Stage != plan.AggPartial {
		t.Fatalf("no partial stage below the gather:\n%s", plan.Explain(p))
	}
	// R is hashed on pk, not v, yet no row is redistributed.
	redist := plan.FindAll(p, func(n plan.Node) bool {
		m, ok := n.(*plan.Motion)
		return ok && m.Kind == plan.RedistributeMotion
	})
	if len(redist) != 0 {
		t.Fatalf("7 groups should not redistribute 1000 rows:\n%s", plan.Explain(p))
	}
	// Results must match the scalar definition: 7 groups over 1000 rows.
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.Rows))
	}
	var n, s int64
	for _, row := range res.Rows {
		n += row[1].Int()
		s += row[2].Int()
	}
	if n != 1000 || s != 999*1000/2 {
		t.Errorf("count/sum = %d/%d, want 1000/499500", n, s)
	}
}

// When the input is already distributed on the group columns, grouped
// aggregation needs no motion below the gather at all.
func TestGroupedAggregationColocated(t *testing.T) {
	cat, _, _ := paperSchema(t, 4)
	r := cat.MustTable("R")
	q := &logical.GroupBy{
		Groups: []plan.GroupCol{{E: col(1, 0, "R.pk"), Name: "pk", Out: expr.ColID{Rel: 10, Ord: 0}}},
		Aggs:   []plan.AggSpec{{Kind: plan.AggCount, Name: "n", Out: expr.ColID{Rel: 10, Ord: 1}}},
		Child:  &logical.Get{Table: r, Rel: 1},
	}
	o := &Optimizer{Segments: 4}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	motions := plan.FindAll(p, func(n plan.Node) bool {
		m, ok := n.(*plan.Motion)
		return ok && m.Kind != plan.GatherMotion
	})
	if len(motions) != 0 {
		t.Errorf("group-by on the distribution key should not move data:\n%s", plan.Explain(p))
	}
}

// §2.4 through the Memo: a two-level table (month × region) joined to a
// dimension on the month key with a static predicate on region. The
// selector must carry the dynamic predicate at level 0 and the static one
// at level 1, and prune both dimensions at run time.
func TestMultiLevelDynamicElimination(t *testing.T) {
	cat := catalog.New()
	st := storage.NewStore(2)
	orders, err := cat.CreateTable("orders",
		[]catalog.Column{
			{Name: "month", Kind: types.KindInt},
			{Name: "region", Kind: types.KindString},
			{Name: "amount", Kind: types.KindInt},
		},
		catalog.Hashed(2),
		part.RangeLevel(0, part.IntBounds(1, 13, 12)...),
		part.ListLevel(1, []string{"r1", "r2"},
			[][]types.Datum{{types.NewString("Region 1")}, {types.NewString("Region 2")}}),
	)
	if err != nil {
		t.Fatalf("create orders: %v", err)
	}
	st.CreateTable(orders)
	dim, err := cat.CreateTable("month_dim",
		[]catalog.Column{{Name: "m", Kind: types.KindInt}, {Name: "quarter", Kind: types.KindInt}},
		catalog.Replicated(),
	)
	if err != nil {
		t.Fatalf("create dim: %v", err)
	}
	st.CreateTable(dim)
	for m := int64(1); m <= 12; m++ {
		if err := st.Insert(dim, types.Row{types.NewInt(m), types.NewInt((m-1)/3 + 1)}); err != nil {
			t.Fatalf("insert dim: %v", err)
		}
		for _, rg := range []string{"Region 1", "Region 2"} {
			if err := st.Insert(orders, types.Row{types.NewInt(m), types.NewString(rg), types.NewInt(m)}); err != nil {
				t.Fatalf("insert orders: %v", err)
			}
		}
	}
	if err := stats.CollectAll(st, cat); err != nil {
		t.Fatalf("stats: %v", err)
	}

	// SELECT count(*) FROM month_dim d, orders o
	// WHERE d.m = o.month AND d.quarter = 4 AND o.region = 'Region 2'
	q := &logical.Join{
		Type: plan.InnerJoin,
		Pred: expr.NewCmp(expr.EQ, col(1, 0, "d.m"), col(2, 0, "o.month")),
		Left: &logical.Select{
			Pred:  expr.NewCmp(expr.EQ, col(1, 1, "d.quarter"), expr.NewConst(types.NewInt(4))),
			Child: &logical.Get{Table: dim, Rel: 1},
		},
		Right: &logical.Select{
			Pred:  expr.NewCmp(expr.EQ, col(2, 1, "o.region"), expr.NewConst(types.NewString("Region 2"))),
			Child: &logical.Get{Table: orders, Rel: 2},
		},
	}
	o := &Optimizer{Segments: 2}
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// Between the orders scan's selectors (intersecting producers), both
	// levels must be constrained: the dynamic join condition at level 0
	// and the static region filter at level 1.
	var level0, level1 bool
	plan.Walk(p, func(n plan.Node) bool {
		if s, ok := n.(*plan.PartitionSelector); ok && s.PartScanID == 2 {
			if s.Preds != nil && s.Preds[0] != nil && strings.Contains(s.Preds[0].String(), "d.m") {
				level0 = true
			}
			if s.Preds != nil && s.Preds[1] != nil && strings.Contains(s.Preds[1].String(), "Region 2") {
				level1 = true
			}
		}
		return true
	})
	if !level0 {
		t.Errorf("no selector carries the level-0 join condition:\n%s", plan.Explain(p))
	}
	if !level1 {
		t.Errorf("no selector carries the level-1 region filter:\n%s", plan.Explain(p))
	}

	rt := &exec.Runtime{Store: st}
	res, err := exec.Run(rt, p, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, plan.Explain(p))
	}
	// Q4 months 10-12 × Region 2 → 3 rows, 3 of 24 leaves.
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
	if got := res.Stats.PartsScanned("orders"); got != 3 {
		t.Errorf("orders parts scanned = %d, want 3 of 24", got)
	}
}
