package plan

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/part"
	"partopt/internal/types"
)

func fixture(t *testing.T) (*catalog.Catalog, *catalog.Table, *catalog.Table) {
	t.Helper()
	cat := catalog.New()
	r, err := cat.CreateTable("r",
		[]catalog.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}},
		catalog.Hashed(0),
		part.RangeLevel(1, part.IntBounds(0, 1000, 100)...),
	)
	if err != nil {
		t.Fatalf("create r: %v", err)
	}
	s, err := cat.CreateTable("s",
		[]catalog.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}},
		catalog.Hashed(0),
	)
	if err != nil {
		t.Fatalf("create s: %v", err)
	}
	return cat, r, s
}

func col(rel, ord int, name string) *expr.Col {
	return expr.NewCol(expr.ColID{Rel: rel, Ord: ord}, name)
}

func TestScanLayouts(t *testing.T) {
	_, r, s := fixture(t)
	sc := NewScan(s, 2)
	l := sc.Layout()
	if len(l) != 2 || l[expr.ColID{Rel: 2, Ord: 1}] != 1 {
		t.Errorf("scan layout = %v", l)
	}
	ds := NewDynamicScan(r, 1, 0)
	ds.WithRowID = true
	l = ds.Layout()
	if len(l) != 3 || l[expr.ColID{Rel: 1, Ord: RowIDOrd}] != 2 {
		t.Errorf("dynamic scan layout with rowid = %v", l)
	}
	leaf := r.Part.Expansion()[3]
	ls := NewLeafScan(r, 1, leaf)
	if !strings.Contains(ls.Label(), "r[") {
		t.Errorf("leaf scan label = %q", ls.Label())
	}
}

func TestSelectorLabelAndLayout(t *testing.T) {
	_, r, s := fixture(t)
	// Childless static selector.
	pred := expr.NewCmp(expr.LT, col(1, 1, "r.b"), expr.NewConst(types.NewInt(35)))
	sel := NewPartitionSelector(r, 0, []expr.Expr{pred}, nil)
	if got := sel.Label(); got != "PartitionSelector(0, r, r.b < 35)" {
		t.Errorf("label = %q", got)
	}
	if len(sel.Layout()) != 0 || sel.Children() != nil {
		t.Errorf("childless selector should have empty layout and no children")
	}
	// Pass-through selector.
	child := NewScan(s, 2)
	sel2 := NewPartitionSelector(r, 0, nil, child)
	if sel2.Layout().Width() != 2 || len(sel2.Children()) != 1 {
		t.Errorf("pass-through selector layout/children wrong")
	}
	if !strings.Contains(sel2.Label(), "φ") {
		t.Errorf("no-predicate selector label = %q", sel2.Label())
	}
}

func TestSelectorArityPanic(t *testing.T) {
	_, r, _ := fixture(t)
	defer func() {
		if recover() == nil {
			t.Errorf("selector with wrong predicate arity did not panic")
		}
	}()
	NewPartitionSelector(r, 0, []expr.Expr{nil, nil}, nil) // r has 1 level
}

func TestSequenceAndAppend(t *testing.T) {
	_, r, s := fixture(t)
	sel := NewPartitionSelector(r, 0, nil, nil)
	ds := NewDynamicScan(r, 1, 0)
	seq := NewSequence(sel, ds)
	if seq.Layout().Width() != 2 {
		t.Errorf("sequence layout should be last child's")
	}
	app := NewAppend(NewScan(s, 2), NewScan(s, 2))
	if app.ParamID != -1 || len(app.Children()) != 2 {
		t.Errorf("append wrong")
	}
	fapp := NewFilteredAppend(0, NewScan(s, 2))
	if !strings.Contains(fapp.Label(), "$0") {
		t.Errorf("filtered append label = %q", fapp.Label())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("empty sequence did not panic")
		}
	}()
	NewSequence()
}

func TestHashJoinLayout(t *testing.T) {
	_, r, s := fixture(t)
	build := NewScan(s, 2)
	probe := NewDynamicScan(r, 1, 0)
	cond := expr.NewCmp(expr.EQ, col(1, 1, "r.b"), col(2, 1, "s.b"))
	j := NewHashJoin(InnerJoin,
		[]expr.Expr{col(2, 1, "s.b")}, []expr.Expr{col(1, 1, "r.b")},
		nil, build, probe, cond)
	l := j.Layout()
	if l.Width() != 4 {
		t.Errorf("inner join layout width = %d, want 4", l.Width())
	}
	if l[expr.ColID{Rel: 1, Ord: 0}] != 2 {
		t.Errorf("probe columns should follow build columns: %v", l)
	}
	semi := NewHashJoin(SemiJoin,
		[]expr.Expr{col(2, 1, "s.b")}, []expr.Expr{col(1, 1, "r.b")},
		nil, build, probe, cond)
	if semi.Layout().Width() != 2 {
		t.Errorf("semi join should expose only probe columns")
	}
	if !strings.Contains(semi.Label(), "Semi") {
		t.Errorf("semi label = %q", semi.Label())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("key arity mismatch did not panic")
		}
	}()
	NewHashJoin(InnerJoin, []expr.Expr{col(2, 1, "")}, nil, nil, build, probe, nil)
}

func TestHashAggLayoutAndLabel(t *testing.T) {
	_, r, _ := fixture(t)
	child := NewDynamicScan(r, 1, 0)
	agg := NewHashAgg(
		[]GroupCol{{E: col(1, 1, "r.b"), Name: "b", Out: expr.ColID{Rel: 10, Ord: 0}}},
		[]AggSpec{
			{Kind: AggAvg, Arg: col(1, 0, "r.a"), Name: "avg_a", Out: expr.ColID{Rel: 10, Ord: 1}},
			{Kind: AggCount, Name: "n", Out: expr.ColID{Rel: 10, Ord: 2}},
		},
		child)
	l := agg.Layout()
	if l.Width() != 3 || l[expr.ColID{Rel: 10, Ord: 2}] != 2 {
		t.Errorf("agg layout = %v", l)
	}
	lbl := agg.Label()
	if !strings.Contains(lbl, "avg(r.a)") || !strings.Contains(lbl, "count(*)") {
		t.Errorf("agg label = %q", lbl)
	}
}

func TestMotionAndUpdate(t *testing.T) {
	_, r, _ := fixture(t)
	child := NewDynamicScan(r, 1, 0)
	g := NewMotion(GatherMotion, nil, child)
	if g.Layout().Width() != 2 || g.Label() != "Gather Motion" {
		t.Errorf("gather motion wrong: %q", g.Label())
	}
	rd := NewMotion(RedistributeMotion, []expr.Expr{col(1, 1, "r.b")}, child)
	if !strings.Contains(rd.Label(), "r.b") {
		t.Errorf("redistribute label = %q", rd.Label())
	}
	b := NewMotion(BroadcastMotion, nil, child)
	if b.Label() != "Broadcast Motion" {
		t.Errorf("broadcast label = %q", b.Label())
	}
	up := NewUpdate(r, 1, []SetClause{{Ord: 1, Value: expr.NewConst(types.NewInt(7))}}, child)
	if up.Layout()[UpdateCountCol] != 0 {
		t.Errorf("update layout = %v", up.Layout())
	}
	if !strings.Contains(up.Label(), "SET b = 7") {
		t.Errorf("update label = %q", up.Label())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("redistribute without keys did not panic")
		}
	}()
	NewMotion(RedistributeMotion, nil, child)
}

func TestExplainShape(t *testing.T) {
	_, r, s := fixture(t)
	sel := NewPartitionSelector(r, 0, nil, NewScan(s, 2))
	probe := NewDynamicScan(r, 1, 0)
	j := NewHashJoin(InnerJoin,
		[]expr.Expr{col(2, 1, "s.b")}, []expr.Expr{col(1, 1, "r.b")},
		nil, sel, probe,
		expr.NewCmp(expr.EQ, col(1, 1, "r.b"), col(2, 1, "s.b")))
	SetEstimates(j, 100, 5000)
	root := NewMotion(GatherMotion, nil, j)
	out := Explain(root)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("explain lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Gather Motion") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "HashJoin") || !strings.Contains(lines[1], "rows=100") {
		t.Errorf("join line = %q", lines[1])
	}
	// Indentation increases with depth.
	if !strings.HasPrefix(lines[2], "    ->") {
		t.Errorf("depth-2 indent wrong: %q", lines[2])
	}
	if CountNodes(root) != 5 {
		t.Errorf("CountNodes = %d", CountNodes(root))
	}
	scans := FindAll(root, func(n Node) bool { _, ok := n.(*DynamicScan); return ok })
	if len(scans) != 1 {
		t.Errorf("FindAll found %d dynamic scans", len(scans))
	}
}

// Every field the executor reads must reach the dispatched bytes: each pair
// differs in exactly one such field and must serialize differently.
func TestSerializeDeterministicAndDistinct(t *testing.T) {
	_, r, s := fixture(t)
	leaves := r.Part.Expansion()
	a, b := col(1, 0, "r.a"), col(1, 1, "r.b")
	filter := func(pred expr.Expr) Node { return NewFilter(pred, NewDynamicScan(r, 1, 1)) }
	scan := func(leaf part.OID, rowID bool) Node {
		sc := NewLeafScan(r, 1, leaf)
		sc.WithRowID = rowID
		return sc
	}
	selector := func(hub bool, child Node) Node {
		sel := NewPartitionSelector(r, 1, []expr.Expr{nil}, child)
		sel.Hub = hub
		return sel
	}
	kids := []Node{NewScan(s, 2), NewScan(s, 2)}
	buildKeys, probeKeys := []expr.Expr{col(2, 1, "r2.b")}, []expr.Expr{b}
	join := func(jt JoinType) Node {
		return NewHashJoin(jt, buildKeys, probeKeys, nil, NewDynamicScan(r, 2, 2), NewDynamicScan(r, 1, 1), nil)
	}
	aggs := []AggSpec{{Kind: AggSum, Arg: a, Name: "s", Out: expr.ColID{Rel: 9, Ord: 0}}}
	agg := func(stage AggStage) Node { return NewStagedHashAgg(stage, nil, aggs, NewDynamicScan(r, 1, 1)) }
	gather := func(from int) Node {
		m := NewMotion(GatherMotion, nil, NewScan(s, 2))
		m.FromSegment = from
		return m
	}
	indexScan := func(leaf part.OID) Node {
		is := NewIndexScan(r, 1, catalog.IndexDef{Name: "rb", ColOrd: 1}, expr.NewCmp(expr.LT, b, expr.NewConst(types.NewInt(9))))
		is.Leaf = leaf
		return is
	}
	dynIndexScan := func(index catalog.IndexDef) Node {
		return NewDynamicIndexScan(r, 1, 1, index, expr.NewCmp(expr.LT, b, expr.NewConst(types.NewInt(9))))
	}
	update := func(ord int) Node {
		return NewUpdate(r, 1, []SetClause{{Ord: ord, Value: expr.NewConst(types.NewInt(7))}}, NewDynamicScan(r, 1, 1))
	}
	const days = 15706 // 2013-01-01

	pairs := []struct {
		field string
		a, b  Node
	}{
		{"Scan.Leaf", scan(leaves[0], false), scan(leaves[1], false)},
		{"Scan.WithRowID", scan(leaves[0], false), scan(leaves[0], true)},
		{"DynamicScan.PartScanID", NewDynamicScan(r, 1, 1), NewDynamicScan(r, 1, 2)},
		{"PartitionSelector.Hub", selector(false, NewScan(s, 2)), selector(true, NewScan(s, 2))},
		{"PartitionSelector.Child", selector(false, nil), selector(false, NewScan(s, 2))},
		{"Append.ParamID", NewAppend(kids...), NewFilteredAppend(0, kids...)},
		{"HashJoin.Type", join(InnerJoin), join(LeftOuterJoin)},
		{"HashJoin vs PartitionWiseJoin", join(InnerJoin),
			NewPartitionWiseJoin(InnerJoin, buildKeys, probeKeys, nil, NewDynamicScan(r, 2, 2), NewDynamicScan(r, 1, 1), nil)},
		{"HashAgg.Stage", agg(AggPartial), agg(AggFinal)},
		{"Motion.Kind", NewMotion(GatherMotion, nil, NewScan(s, 2)), NewMotion(BroadcastMotion, nil, NewScan(s, 2))},
		{"Motion.FromSegment", gather(-1), gather(0)},
		{"SortKey.Desc", NewSort([]SortKey{{Pos: 0}}, NewScan(s, 2)), NewSort([]SortKey{{Pos: 0, Desc: true}}, NewScan(s, 2))},
		{"Limit.N", NewLimit(10, NewScan(s, 2)), NewLimit(11, NewScan(s, 2))},
		{"IndexScan.Leaf", indexScan(leaves[0]), indexScan(leaves[1])},
		{"DynamicIndexScan.Index.Name", dynIndexScan(catalog.IndexDef{Name: "rb", ColOrd: 1}), dynIndexScan(catalog.IndexDef{Name: "rb2", ColOrd: 1})},
		{"DynamicIndexScan.Index.ColOrd", dynIndexScan(catalog.IndexDef{Name: "rb", ColOrd: 1}), dynIndexScan(catalog.IndexDef{Name: "rb", ColOrd: 0})},
		{"SetClause.Ord", update(0), update(1)},
		{"Delete.Rel", NewDelete(r, 1, NewDynamicScan(r, 1, 1)), NewDelete(r, 2, NewDynamicScan(r, 1, 1))},
		{"IsNull.Negate", filter(&expr.IsNull{Arg: a}), filter(&expr.IsNull{Arg: a, Negate: true})},
		{"Const kind int vs date", filter(expr.NewCmp(expr.EQ, a, expr.NewConst(types.NewInt(days)))),
			filter(expr.NewCmp(expr.EQ, a, expr.NewConst(types.NewDate(days))))},
	}
	for _, p := range pairs {
		ba, bb := Serialize(p.a), Serialize(p.b)
		if !bytes.Equal(ba, Serialize(p.a)) {
			t.Errorf("%s: serialization not deterministic", p.field)
		}
		if bytes.Equal(ba, bb) {
			t.Errorf("%s: plans differing only in this field serialize identically:\n%s---\n%s", p.field, Explain(p.a), Explain(p.b))
		}
	}
}

// Property: two independently built copies of a random plan serialize to
// the same bytes.
func TestSerializeRandomPlans(t *testing.T) {
	_, r, s := fixture(t)
	var rnd *rand.Rand

	var genExpr func(depth int) expr.Expr
	genExpr = func(depth int) expr.Expr {
		if depth <= 0 || rnd.Intn(3) == 0 {
			switch rnd.Intn(4) {
			case 0:
				return expr.NewCol(expr.ColID{Rel: 1 + rnd.Intn(2), Ord: rnd.Intn(2)}, "c")
			case 1:
				return expr.NewConst(types.NewInt(rnd.Int63n(100)))
			case 2:
				return expr.NewConst(types.NewString("s"))
			default:
				return &expr.Param{Idx: rnd.Intn(3)}
			}
		}
		switch rnd.Intn(4) {
		case 0:
			return expr.NewCmp(expr.CmpOp(rnd.Intn(6)), genExpr(depth-1), genExpr(depth-1))
		case 1:
			return expr.Conj(genExpr(depth-1), genExpr(depth-1))
		case 2:
			return expr.Disj(genExpr(depth-1), genExpr(depth-1))
		default:
			return &expr.Arith{Op: expr.ArithOp(rnd.Intn(5)), L: genExpr(depth - 1), R: genExpr(depth - 1)}
		}
	}

	var genNode func(depth int) Node
	genNode = func(depth int) Node {
		if depth <= 0 {
			if rnd.Intn(2) == 0 {
				return NewScan(s, 2)
			}
			return NewDynamicScan(r, 1, 1)
		}
		switch rnd.Intn(7) {
		case 6:
			// Every aggregation stage and aggregate kind (COUNT(*) included).
			aggs := make([]AggSpec, 1+rnd.Intn(3))
			for i := range aggs {
				aggs[i] = AggSpec{Kind: AggKind(rnd.Intn(5)), Name: "a", Out: expr.ColID{Rel: 8, Ord: 1 + i}}
				if aggs[i].Kind != AggCount || rnd.Intn(2) == 0 {
					aggs[i].Arg = genExpr(1)
				}
			}
			var groups []GroupCol
			if rnd.Intn(2) == 0 {
				groups = []GroupCol{{E: genExpr(1), Name: "g", Out: expr.ColID{Rel: 8, Ord: 0}}}
			}
			return NewStagedHashAgg(AggStage(rnd.Intn(3)), groups, aggs, genNode(depth-1))
		case 0:
			return NewFilter(genExpr(2), genNode(depth-1))
		case 1:
			return NewProject([]ProjCol{{E: genExpr(2), Name: "p", Out: expr.ColID{Rel: 9, Ord: 0}}}, genNode(depth-1))
		case 2:
			k := genExpr(1)
			return NewHashJoin(JoinType(rnd.Intn(4)), []expr.Expr{k}, []expr.Expr{k}, nil, genNode(depth-1), genNode(depth-1), nil)
		case 3:
			sel := NewPartitionSelector(r, 1, []expr.Expr{genExpr(2)}, genNode(depth-1))
			sel.Hub = rnd.Intn(2) == 0
			return sel
		case 4:
			keys := []expr.Expr{genExpr(1)}
			return NewMotion(RedistributeMotion, keys, genNode(depth-1))
		default:
			return NewAppend(genNode(depth-1), genNode(depth-1))
		}
	}
	gen := func(seed int64) Node {
		rnd = rand.New(rand.NewSource(seed))
		return genNode(3)
	}

	for seed := int64(0); seed < 200; seed++ {
		p := gen(seed)
		if !bytes.Equal(Serialize(p), Serialize(gen(seed))) {
			t.Fatalf("seed %d: equal plans serialize differently:\n%s", seed, Explain(p))
		}
	}
}

// The core compactness property of the paper: DynamicScan plan size is
// independent of partition count, explicit-Append plan size is linear.
func TestSerializeSizeScaling(t *testing.T) {
	cat := catalog.New()
	mk := func(name string, parts int) *catalog.Table {
		tab, err := cat.CreateTable(name,
			[]catalog.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}},
			catalog.Hashed(0),
			part.RangeLevel(1, part.IntBounds(0, 10000, parts)...),
		)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		return tab
	}
	small, big := mk("small", 10), mk("big", 300)

	dynPlan := func(tab *catalog.Table) Node {
		sel := NewPartitionSelector(tab, 0, nil, nil)
		return NewSequence(sel, NewDynamicScan(tab, 1, 0))
	}
	appendPlan := func(tab *catalog.Table) Node {
		var kids []Node
		for _, leaf := range tab.Part.Expansion() {
			kids = append(kids, NewLeafScan(tab, 1, leaf))
		}
		return NewAppend(kids...)
	}

	dynSmall, dynBig := SerializedSize(dynPlan(small)), SerializedSize(dynPlan(big))
	if dynSmall != dynBig {
		t.Errorf("DynamicScan plan size depends on partition count: %d vs %d", dynSmall, dynBig)
	}
	appSmall, appBig := SerializedSize(appendPlan(small)), SerializedSize(appendPlan(big))
	if appBig < 20*appSmall {
		t.Errorf("Append plan should grow ~linearly: %d (10 parts) vs %d (300 parts)", appSmall, appBig)
	}
}

func TestSerializeAllExprKinds(t *testing.T) {
	_, r, _ := fixture(t)
	pred := expr.Conj(
		expr.NewCmp(expr.GE, col(1, 1, "b"), expr.NewConst(types.NewInt(1))),
		expr.Disj(
			&expr.InList{Arg: col(1, 0, "a"), List: []expr.Expr{expr.NewConst(types.NewString("x"))}},
			&expr.Not{Arg: &expr.IsNull{Arg: col(1, 0, "a"), Negate: true}},
		),
		expr.NewCmp(expr.EQ, &expr.Arith{Op: expr.Add, L: col(1, 0, "a"), R: expr.NewConst(types.NewFloat(1.5))}, &expr.Param{Idx: 0}),
		expr.NewCmp(expr.EQ, col(1, 0, "a"), expr.NewConst(types.NewBool(true))),
		expr.NewCmp(expr.EQ, col(1, 0, "a"), expr.NewConst(types.Null)),
		expr.NewCmp(expr.EQ, col(1, 0, "a"), expr.NewConst(types.DateFromYMD(2013, 1, 1))),
	)
	n := NewFilter(pred, NewDynamicScan(r, 1, 0))
	if len(Serialize(n)) == 0 {
		t.Errorf("serialization empty")
	}
	// Update and project serialize too.
	up := NewUpdate(r, 1, []SetClause{{Ord: 1, Value: col(1, 0, "a")}}, n)
	pr := NewProject([]ProjCol{{E: col(1, 0, "a"), Name: "a", Out: expr.ColID{Rel: 5, Ord: 0}}}, n)
	agg := NewHashAgg(nil, []AggSpec{{Kind: AggSum, Arg: col(1, 0, "a"), Out: expr.ColID{Rel: 5, Ord: 0}}}, n)
	for _, x := range []Node{up, pr, agg} {
		if len(Serialize(x)) <= len(Serialize(n)) {
			t.Errorf("%T serialization should include child", x)
		}
	}
}

func TestProjectLayoutAndLabel(t *testing.T) {
	_, r, _ := fixture(t)
	p := NewProject([]ProjCol{
		{E: col(1, 0, "a"), Name: "a", Out: expr.ColID{Rel: 5, Ord: 0}},
		{E: &expr.Arith{Op: Mul2(), L: col(1, 0, "a"), R: expr.NewConst(types.NewInt(2))}, Out: expr.ColID{Rel: 5, Ord: 1}},
	}, NewDynamicScan(r, 1, 0))
	if p.Layout().Width() != 2 {
		t.Errorf("project layout = %v", p.Layout())
	}
	if !strings.Contains(p.Label(), "a") {
		t.Errorf("project label = %q", p.Label())
	}
}

// Mul2 exists to avoid an unused-import dance in the test above.
func Mul2() expr.ArithOp { return expr.Mul }

// Validate accepts the shapes the optimizer emits and names what is wrong
// with the ones it must never emit.
func TestValidate(t *testing.T) {
	_, r, s := fixture(t)
	aggs := []AggSpec{{Kind: AggAvg, Arg: col(1, 1, "b"), Out: expr.ColID{Rel: 9, Ord: 0}}}
	scan := func() Node { return NewPartitionSelector(r, 1, nil, NewDynamicScan(r, 1, 1)) }
	final := func(child Node) Node { return NewStagedHashAgg(AggFinal, nil, aggs, child) }
	partial := NewStagedHashAgg(AggPartial, nil, aggs, scan())
	sKey, rKey := []expr.Expr{col(2, 0, "a")}, []expr.Expr{col(1, 1, "b")}
	joinPred := []expr.Expr{expr.NewCmp(expr.EQ, col(1, 1, "b"), col(2, 0, "a"))}
	staticPred := expr.NewCmp(expr.LT, col(1, 1, "b"), expr.NewConst(types.NewInt(5)))

	good := []Node{
		NewMotion(GatherMotion, nil, NewHashAgg(nil, aggs, scan())),
		final(NewMotion(GatherMotion, nil, partial)),
		// Producer-side selector above a Motion, consumer scan beside it.
		NewMotion(GatherMotion, nil, NewHashJoin(InnerJoin, []expr.Expr{col(2, 0, "a")}, []expr.Expr{col(1, 1, "b")}, nil,
			NewPartitionSelector(r, 1, nil, NewMotion(BroadcastMotion, nil, NewScan(s, 2))), NewDynamicScan(r, 1, 1), nil)),
		// Key-set outer join: the null-producing side is pruned below its
		// Redistribute by a selector over a broadcast copy of the preserved
		// side; the preserved side itself is neither pruned nor broadcast.
		NewMotion(GatherMotion, nil, NewHashJoin(LeftOuterJoin, sKey, rKey, nil,
			NewMotion(RedistributeMotion, sKey, NewScan(s, 2)),
			NewMotion(RedistributeMotion, rKey, NewSequence(
				NewPartitionSelector(r, 1, joinPred, NewMotion(BroadcastMotion, nil, NewScan(s, 2))),
				NewDynamicScan(r, 1, 1))), nil)),
		// A static selector may prune a preserved side from anywhere.
		NewMotion(GatherMotion, nil, NewPartitionSelector(r, 1, []expr.Expr{staticPred},
			NewHashJoin(RightOuterJoin, sKey, rKey, nil, NewScan(s, 2), NewDynamicScan(r, 1, 1), nil))),
		// An inner join above a fact-preserving outer join may prune the
		// fact by its own keys: it drops the unmatched fact rows anyway.
		NewMotion(GatherMotion, nil, NewHashJoin(InnerJoin, []expr.Expr{col(4, 0, "a")}, rKey, nil,
			NewPartitionSelector(r, 1, []expr.Expr{expr.NewCmp(expr.EQ, col(1, 1, "b"), col(4, 0, "a"))},
				NewMotion(BroadcastMotion, nil, NewScan(s, 4))),
			NewHashJoin(RightOuterJoin, sKey, rKey, nil, NewScan(s, 2), NewDynamicScan(r, 1, 1), nil), nil)),
	}
	for _, p := range good {
		if err := Validate(p); err != nil {
			t.Errorf("valid plan rejected: %v\n%s", err, Explain(p))
		}
	}
	bad := map[string]Node{
		"separates":                 NewPartitionSelector(r, 1, nil, NewMotion(GatherMotion, nil, NewDynamicScan(r, 1, 1))),
		"no Final stage":            NewMotion(GatherMotion, nil, partial),
		"no Motion between":         final(partial),
		"1 Final aggregation stage": final(NewMotion(GatherMotion, nil, scan())),
		"more than one Final":       final(NewMotion(GatherMotion, nil, final(NewMotion(GatherMotion, nil, partial)))),
		// Join-driven pruning of the fact side that RIGHT JOIN preserves.
		"prunes the preserved side": NewMotion(GatherMotion, nil, NewHashJoin(RightOuterJoin, sKey, rKey, nil,
			NewPartitionSelector(r, 1, joinPred, NewMotion(BroadcastMotion, nil, NewScan(s, 2))), NewDynamicScan(r, 1, 1), nil)),
		// A replicated preserved side null-extends once per segment.
		"broadcasts the preserved side": NewMotion(GatherMotion, nil, NewHashJoin(LeftOuterJoin, sKey, []expr.Expr{col(3, 0, "a")}, nil,
			NewFilter(expr.NewCmp(expr.LT, col(2, 1, "b"), expr.NewConst(types.NewInt(5))),
				NewMotion(BroadcastMotion, nil, NewScan(s, 2))), NewScan(s, 3), nil)),
	}
	for want, p := range bad {
		if err := Validate(p); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want error containing %q, got %v\n%s", want, err, Explain(p))
		}
	}
}
