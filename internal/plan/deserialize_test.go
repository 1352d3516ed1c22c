package plan

import (
	"bytes"
	"math/rand"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/part"
	"partopt/internal/types"
)

func roundTripFixture(t *testing.T) (*catalog.Catalog, *catalog.Table, *catalog.Table) {
	t.Helper()
	cat := catalog.New()
	r, err := cat.CreateTable("r",
		[]catalog.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}},
		catalog.Hashed(0),
		part.RangeLevel(1, part.IntBounds(0, 100, 10)...))
	if err != nil {
		t.Fatalf("create r: %v", err)
	}
	s, err := cat.CreateTable("s",
		[]catalog.Column{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}},
		catalog.Hashed(0))
	if err != nil {
		t.Fatalf("create s: %v", err)
	}
	return cat, r, s
}

// reserialize asserts Serialize(Deserialize(Serialize(p))) == Serialize(p).
func reserialize(t *testing.T, cat *catalog.Catalog, p Node) {
	t.Helper()
	b1 := Serialize(p)
	back, err := Deserialize(b1, cat)
	if err != nil {
		t.Fatalf("Deserialize: %v\nplan:\n%s", err, Explain(p))
	}
	b2 := Serialize(back)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical:\noriginal:\n%s\nrebuilt:\n%s", Explain(p), Explain(back))
	}
}

func TestRoundTripHandWrittenPlans(t *testing.T) {
	cat, r, s := roundTripFixture(t)
	bcol := func(rel int) *expr.Col { return expr.NewCol(expr.ColID{Rel: rel, Ord: 1}, "b") }

	sel := NewPartitionSelector(r, 1, []expr.Expr{expr.NewCmp(expr.LT, bcol(1), expr.NewConst(types.NewInt(50)))}, nil)
	dyn := NewDynamicScan(r, 1, 1)
	dyn.WithRowID = true
	seq := NewSequence(sel, dyn)

	join := NewHashJoin(InnerJoin, []expr.Expr{bcol(2)}, []expr.Expr{bcol(1)},
		expr.NewCmp(expr.NE, bcol(2), expr.NewConst(types.Null)),
		NewMotion(BroadcastMotion, nil, NewScan(s, 2)), seq, nil)

	agg := NewHashAgg(
		[]GroupCol{{E: bcol(1), Name: "b", Out: expr.ColID{Rel: 9, Ord: 0}}},
		[]AggSpec{{Kind: AggSum, Arg: bcol(2), Name: "sum_b", Out: expr.ColID{Rel: 9, Ord: 1}}},
		join)
	proj := NewProject([]ProjCol{{E: expr.NewCol(expr.ColID{Rel: 9, Ord: 1}, "sum_b"), Name: "sum_b", Out: expr.ColID{Rel: 10, Ord: 0}}}, agg)
	gather := NewMotion(GatherMotion, nil, proj)
	gather.FromSegment = 0

	upd := NewUpdate(r, 1, []SetClause{{Ord: 0, Value: expr.NewConst(types.NewFloat(1.5))}}, seq)
	filteredAppend := NewFilteredAppend(3, NewLeafScan(r, 1, r.Part.Expansion()[0]), NewLeafScan(r, 1, r.Part.Expansion()[1]))

	for _, p := range []Node{gather, NewMotion(GatherMotion, nil, upd), filteredAppend, seq} {
		reserialize(t, cat, p)
	}
}

func TestRoundTripAllExprForms(t *testing.T) {
	cat, r, _ := roundTripFixture(t)
	a := expr.NewCol(expr.ColID{Rel: 1, Ord: 0}, "a")
	pred := expr.Conj(
		expr.Disj(
			expr.NewCmp(expr.GE, a, expr.NewConst(types.NewInt(3))),
			&expr.Not{Arg: &expr.IsNull{Arg: a, Negate: true}},
		),
		&expr.InList{Arg: a, List: []expr.Expr{
			expr.NewConst(types.NewString("x")),
			expr.NewConst(types.NewBool(false)),
			expr.NewConst(types.DateFromYMD(2013, 5, 1)),
			expr.NewConst(types.NewFloat(2.25)),
		}},
		expr.NewCmp(expr.EQ, &expr.Arith{Op: expr.Mod, L: a, R: &expr.Param{Idx: 2}}, expr.NewConst(types.NewInt(0))),
	)
	reserialize(t, cat, NewFilter(pred, NewDynamicScan(r, 1, 1)))
}

// Property: randomly generated plans survive the round trip byte-for-byte.
func TestRoundTripRandomPlans(t *testing.T) {
	cat, r, s := roundTripFixture(t)
	rnd := rand.New(rand.NewSource(99))

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

	for i := 0; i < 200; i++ {
		reserialize(t, cat, genNode(3))
	}
}

func TestDeserializeErrors(t *testing.T) {
	cat, r, _ := roundTripFixture(t)
	good := Serialize(NewDynamicScan(r, 1, 1))

	// Truncations at every prefix must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := Deserialize(good[:i], cat); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Trailing garbage.
	if _, err := Deserialize(append(append([]byte{}, good...), 0x7), cat); err == nil {
		t.Errorf("trailing bytes accepted")
	}
	// Unknown tag.
	if _, err := Deserialize([]byte{0xFF}, cat); err == nil {
		t.Errorf("unknown tag accepted")
	}
	// Unknown table OID.
	bad := append([]byte{}, good...)
	bad[1] = 0x7F // clobber OID byte
	if _, err := Deserialize(bad, cat); err == nil {
		t.Errorf("unknown table OID accepted")
	}
	// Unknown aggregation stage (the byte after the HashAgg tag); the stage
	// itself must survive the trip.
	agg := Serialize(NewStagedHashAgg(AggFinal, nil, []AggSpec{{Kind: AggCount, Out: expr.ColID{Rel: 9, Ord: 0}}}, NewDynamicScan(r, 1, 1)))
	back, err := Deserialize(agg, cat)
	if err != nil || back.(*HashAgg).Stage != AggFinal {
		t.Fatalf("Final stage did not round-trip: %v", err)
	}
	agg[1] = 3
	if _, err := Deserialize(agg, cat); err == nil {
		t.Errorf("unknown aggregation stage accepted")
	}
}

func TestRoundTripPartitionWiseJoin(t *testing.T) {
	cat := catalog.New()
	mk := func(name string) *catalog.Table {
		tab, err := cat.CreateTable(name,
			[]catalog.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}},
			catalog.Hashed(0),
			part.RangeLevel(0, part.IntBounds(0, 100, 4)...))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		return tab
	}
	a, b := mk("pw_a"), mk("pw_b")
	k1 := expr.NewCol(expr.ColID{Rel: 1, Ord: 0}, "a.k")
	k2 := expr.NewCol(expr.ColID{Rel: 2, Ord: 0}, "b.k")
	pwj := NewPartitionWiseJoin(InnerJoin, []expr.Expr{k1}, []expr.Expr{k2}, nil,
		NewDynamicScan(a, 1, 1), NewDynamicScan(b, 2, 2),
		expr.NewCmp(expr.EQ, k1, k2))
	sel := NewPartitionSelector(a, 1, []expr.Expr{nil}, NewPartitionSelector(b, 2, []expr.Expr{nil}, pwj))
	reserialize(t, cat, NewMotion(GatherMotion, nil, sel))
}

func TestRoundTripIndexScans(t *testing.T) {
	cat, r, s := roundTripFixture(t)
	r.Indexes = append(r.Indexes, catalog.IndexDef{Name: "rb", ColOrd: 1})
	s.Indexes = append(s.Indexes, catalog.IndexDef{Name: "sa", ColOrd: 0})
	pred := expr.NewCmp(expr.LT, expr.NewCol(expr.ColID{Rel: 2, Ord: 0}, "s.a"), expr.NewConst(types.NewInt(9)))
	is := NewIndexScan(s, 2, s.Indexes[0], pred)
	is.WithRowID = true
	dis := NewDynamicIndexScan(r, 1, 1, r.Indexes[0],
		expr.NewCmp(expr.GE, expr.NewCol(expr.ColID{Rel: 1, Ord: 1}, "r.b"), &expr.Param{Idx: 0}))
	sel := NewPartitionSelector(r, 1, []expr.Expr{nil}, dis)
	for _, p := range []Node{NewMotion(GatherMotion, nil, NewFilter(pred, is)), NewMotion(GatherMotion, nil, sel)} {
		reserialize(t, cat, p)
	}
}
