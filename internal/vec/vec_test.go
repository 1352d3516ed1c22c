package vec

import (
	"math"
	"testing"

	"partopt/internal/types"
)

func kinds(ks ...types.Kind) []types.Kind { return ks }

func row(ds ...types.Datum) types.Row { return types.Row(ds) }

func TestAppendAndRowView(t *testing.T) {
	cs := NewColumnSet(kinds(types.KindInt, types.KindFloat, types.KindString, types.KindBool, types.KindDate))
	rows := []types.Row{
		row(types.NewInt(1), types.NewFloat(1.5), types.NewString("a"), types.NewBool(true), types.NewDate(100)),
		row(types.Null, types.Null, types.Null, types.Null, types.Null),
		row(types.NewInt(-7), types.NewFloat(math.NaN()), types.NewString(""), types.NewBool(false), types.NewDate(0)),
	}
	for _, r := range rows {
		cs.AppendRow(r)
	}
	if cs.Len() != 3 || cs.Width() != 5 {
		t.Fatalf("len=%d width=%d", cs.Len(), cs.Width())
	}
	view := cs.RowView()
	if len(view) != 3 {
		t.Fatalf("rowview len %d", len(view))
	}
	for i, want := range rows {
		got := view[i]
		for j := range want {
			if got[j].Kind() != want[j].Kind() {
				t.Fatalf("row %d col %d kind %v want %v", i, j, got[j].Kind(), want[j].Kind())
			}
			if !want[j].IsNull() && types.Compare(got[j], want[j]) != 0 {
				t.Fatalf("row %d col %d got %v want %v", i, j, got[j], want[j])
			}
		}
		if rr := cs.RowAt(i); types.Compare(rr[0], want[0]) != 0 && !want[0].IsNull() {
			t.Fatalf("RowAt(%d) mismatch", i)
		}
	}
	// Cached view is stable across calls.
	if &view[0][0] != &cs.RowView()[0][0] {
		t.Fatal("row view not cached")
	}
	// Mutation invalidates the cache but never the handed-out rows.
	cs.AppendRow(rows[0])
	if len(view) != 3 || view[0][0].Int() != 1 {
		t.Fatal("old view mutated")
	}
	if len(cs.RowView()) != 4 {
		t.Fatal("new view missing appended row")
	}
}

func TestMixedLaneDegrade(t *testing.T) {
	cs := NewColumnSet(kinds(types.KindInt))
	cs.AppendRow(row(types.NewInt(1)))
	cs.AppendRow(row(types.Null))
	cs.AppendRow(row(types.NewString("oops"))) // kind mismatch → mixed lane
	cs.AppendRow(row(types.NewFloat(2.5)))
	want := []types.Datum{types.NewInt(1), types.Null, types.NewString("oops"), types.NewFloat(2.5)}
	for i, w := range want {
		g := cs.RowAt(i)[0]
		if g.Kind() != w.Kind() {
			t.Fatalf("row %d kind %v want %v", i, g.Kind(), w.Kind())
		}
		if !w.IsNull() && types.Compare(g, w) != 0 {
			t.Fatalf("row %d got %v want %v", i, g, w)
		}
	}
	v := cs.ColView(0)
	if !v.Mixed {
		t.Fatal("lane did not degrade to mixed")
	}
	if !v.Null(1) || v.Null(0) || v.Null(2) {
		t.Fatal("mixed lane null bits wrong")
	}
}

func TestSetRowAndSwapDelete(t *testing.T) {
	cs := NewColumnSet(kinds(types.KindInt, types.KindString))
	for i := 0; i < 5; i++ {
		cs.AppendRow(row(types.NewInt(int64(i)), types.NewString(string(rune('a'+i)))))
	}
	cs.SetRow(2, row(types.Null, types.NewString("zz")))
	if d := cs.RowAt(2)[0]; !d.IsNull() {
		t.Fatalf("SetRow null not applied: %v", d)
	}
	cs.SwapDelete(1) // row 4 moves into slot 1
	if cs.Len() != 4 {
		t.Fatalf("len after delete %d", cs.Len())
	}
	if got := cs.RowAt(1)[0].Int(); got != 4 {
		t.Fatalf("swap-delete moved %d, want 4", got)
	}
	if d := cs.RowAt(2)[0]; !d.IsNull() {
		t.Fatal("null bit lost after swap-delete")
	}
	cs.SwapDelete(3) // delete the (current) last row
	if cs.Len() != 3 {
		t.Fatalf("len after tail delete %d", cs.Len())
	}
}

func TestCloneAndDataEqual(t *testing.T) {
	cs := NewColumnSet(kinds(types.KindInt, types.KindFloat, types.KindString))
	for i := 0; i < 100; i++ {
		r := row(types.NewInt(int64(i)), types.NewFloat(float64(i)/3), types.NewString("s"))
		if i%7 == 0 {
			r[0] = types.Null
		}
		cs.AppendRow(r)
	}
	cl := cs.Clone()
	if !cs.DataEqual(cl) || !cl.DataEqual(cs) {
		t.Fatal("clone not DataEqual")
	}
	cl.SetRow(43, row(types.NewInt(-1), types.NewFloat(0), types.NewString("x")))
	if cs.DataEqual(cl) {
		t.Fatal("DataEqual missed a divergence")
	}
	// Clone is independent: mutating it must not touch the original.
	if cs.RowAt(43)[0].IsNull() {
		t.Fatal("unexpected null at 43")
	}
	if got := cs.RowAt(43)[0].Int(); got != 43 {
		t.Fatalf("original mutated through clone: %d", got)
	}
}

// TestHashIntoMatchesHashDatum proves the columnar hash kernel is
// bit-identical to the row path for every lane kind, null placement, and
// selection vector shape.
func TestHashIntoMatchesHashDatum(t *testing.T) {
	cs := NewColumnSet(kinds(types.KindInt, types.KindFloat, types.KindString, types.KindBool, types.KindDate))
	var rows []types.Row
	for i := 0; i < 130; i++ {
		r := row(
			types.NewInt(int64(i*3-40)),
			types.NewFloat(float64(i)*1.25-3),
			types.NewString(string(rune('A'+i%26))),
			types.NewBool(i%2 == 0),
			types.NewDate(int64(20000+i)),
		)
		if i%5 == 0 {
			r[i%len(r)] = types.Null
		}
		if i == 77 {
			r[1] = types.NewFloat(math.Copysign(0, -1)) // -0.0 must hash like +0.0
		}
		rows = append(rows, r)
		cs.AppendRow(r)
	}
	sels := [][]int32{nil, {0, 5, 9, 64, 129, 129, 1}}
	for _, sel := range sels {
		n := len(rows)
		if sel != nil {
			n = len(sel)
		}
		for _, mixNulls := range []bool{true, false} {
			h := make([]uint64, n)
			null := make([]bool, n)
			for k := range h {
				h[k] = types.HashSeed
			}
			for j := 0; j < cs.Width(); j++ {
				v := cs.ColView(j)
				v.HashInto(h, null, sel, mixNulls)
			}
			for k := 0; k < n; k++ {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				// Row-path reference.
				ref := types.HashSeed
				anyNull := false
				for j := range rows[i] {
					d := rows[i][j]
					if d.IsNull() && !mixNulls {
						anyNull = true
						continue
					}
					ref = types.HashDatum(ref, d)
				}
				if mixNulls {
					if h[k] != ref {
						t.Fatalf("sel=%v row %d: hash %x want %x", sel != nil, i, h[k], ref)
					}
				} else if null[k] != anyNull {
					t.Fatalf("sel=%v row %d: null flag %v want %v", sel != nil, i, null[k], anyNull)
				} else if !anyNull && h[k] != ref {
					t.Fatalf("sel=%v row %d: hash %x want %x", sel != nil, i, h[k], ref)
				}
			}
		}
	}
}

func TestStringBytes(t *testing.T) {
	cs := NewColumnSet(kinds(types.KindString, types.KindInt))
	cs.AppendRow(row(types.NewString("abc"), types.NewInt(1)))
	cs.AppendRow(row(types.Null, types.NewInt(2)))
	cs.AppendRow(row(types.NewString("defgh"), types.NewInt(3)))
	sv := cs.ColView(0)
	if got := sv.StringBytes(3); got != 8 {
		t.Fatalf("StringBytes=%d want 8", got)
	}
	sv.Base = 2
	if got := sv.StringBytes(1); got != 5 {
		t.Fatalf("windowed StringBytes=%d want 5", got)
	}
	iv := cs.ColView(1)
	if got := iv.StringBytes(3); got != 0 {
		t.Fatalf("int lane StringBytes=%d want 0", got)
	}
}

func TestAppendRowsBulk(t *testing.T) {
	a := NewColumnSet(kinds(types.KindInt, types.KindString))
	b := NewColumnSet(kinds(types.KindInt, types.KindString))
	var rows []types.Row
	for i := 0; i < 300; i++ {
		r := row(types.NewInt(int64(i)), types.NewString("v"))
		if i%11 == 0 {
			r[0] = types.Null
		}
		rows = append(rows, r)
		a.AppendRow(r)
	}
	b.AppendRows(rows[:150])
	b.AppendRows(rows[150:])
	if !a.DataEqual(b) {
		t.Fatal("bulk append diverges from row-at-a-time append")
	}
}

// A lane adopts the kind of its first non-NULL value, degrades on a second
// kind, copies typed views lane to lane (negative positions are NULL), and
// after Reset holds only what was appended since.
func TestLaneAppendAndReset(t *testing.T) {
	i, f := types.NewInt, types.NewFloat
	check := func(name string, l *Lane, want []types.Datum, mixed bool) {
		t.Helper()
		v := l.View()
		if v.Mixed != mixed {
			t.Fatalf("%s: mixed = %v, want %v", name, v.Mixed, mixed)
		}
		for k, d := range want {
			got := v.Datum(k)
			if got.Kind() != d.Kind() || types.Compare(got, d) != 0 || v.Null(k) != d.IsNull() {
				t.Fatalf("%s: value %d = %v, want %v", name, k, got, d)
			}
		}
	}
	var l Lane
	l.Reset()
	l.AppendColumn([]types.Row{nil, {types.Null}, {i(3)}, {i(4)}}, 0)
	check("adopted", &l, []types.Datum{types.Null, types.Null, i(3), i(4)}, false)
	if v := l.View(); v.Kind != types.KindInt {
		t.Fatalf("adopted kind %v, want int", v.Kind)
	}
	l.AppendDatum(f(2.5))
	check("degraded", &l, []types.Datum{types.Null, types.Null, i(3), i(4), f(2.5)}, true)

	src := NewColumnSet(kinds(types.KindString))
	for _, s := range []types.Datum{types.NewString("a"), types.Null, types.NewString("c")} {
		src.AppendRow(row(s))
	}
	sv := src.ColView(0)
	sv.Base = 1 // a window starting at the NULL
	l.Reset()
	l.AppendView(&sv, []int32{1, -1, 0})
	check("typed copy", &l, []types.Datum{types.NewString("c"), types.Null, types.Null}, false)
	l.AppendDatum(i(1))
	check("degraded copy", &l, []types.Datum{types.NewString("c"), types.Null, types.Null, i(1)}, true)
}

// AppendColumn's typed loops against a lane built value by value with
// AppendDatum: nil rows, leading NULLs, each lane kind, a kind change
// mid-column (the rest degrades to mixed), and a second call onto a lane
// of another kind. Column 1 of two-column rows is appended, so the column
// index is honoured.
func TestLaneAppendColumnMatchesAppendDatum(t *testing.T) {
	i, f, s, d, b := types.NewInt, types.NewFloat, types.NewString, types.NewDate, types.NewBool
	null := types.Null
	// A nil entry is a nil row; every call of a case appends to one lane.
	cases := []struct {
		name  string
		calls [][]*types.Datum
	}{
		{"empty", [][]*types.Datum{{}}},
		{"int with nil rows and leading NULLs", [][]*types.Datum{{nil, &null, &null, ptr(i(3)), nil, ptr(i(-4)), &null}}},
		{"date", [][]*types.Datum{{&null, ptr(d(19000)), ptr(d(0)), nil}}},
		{"bool", [][]*types.Datum{{ptr(b(true)), &null, ptr(b(false)), nil, ptr(b(true))}}},
		{"float", [][]*types.Datum{{nil, ptr(f(2.5)), ptr(f(-1.5)), &null, ptr(f(1e300))}}},
		{"string", [][]*types.Datum{{&null, ptr(s("")), ptr(s("a")), nil, ptr(s("bc"))}}},
		{"only NULLs", [][]*types.Datum{{nil, &null, nil}}},
		{"int then float mid-column", [][]*types.Datum{{ptr(i(1)), &null, ptr(f(2.5)), ptr(i(3)), nil}}},
		{"float then int mid-column", [][]*types.Datum{{&null, ptr(f(0.5)), ptr(i(3)), ptr(f(4))}}},
		{"int then date mid-column", [][]*types.Datum{{ptr(i(1)), ptr(d(2)), nil}}},
		{"string then int", [][]*types.Datum{{nil, ptr(s("x")), ptr(i(7)), ptr(s("y"))}}},
		{"second call, same kind", [][]*types.Datum{{ptr(i(1)), &null}, {nil, ptr(i(2))}}},
		{"second call, NULLs onto int", [][]*types.Datum{{ptr(i(1))}, {nil, &null}}},
		{"second call, other kind", [][]*types.Datum{{ptr(i(1)), nil}, {&null, ptr(f(2)), ptr(f(3))}}},
		{"second call onto mixed", [][]*types.Datum{{ptr(i(1)), ptr(s("m"))}, {ptr(i(2)), nil}}},
		{"NULLs then a kind", [][]*types.Datum{{nil, &null}, {&null, ptr(s("late")), nil}}},
	}
	for _, tc := range cases {
		var got, want Lane
		got.Reset()
		want.Reset()
		n := 0
		for _, call := range tc.calls {
			rows := make([]types.Row, len(call))
			for k, v := range call {
				if v == nil {
					want.AppendDatum(null)
					continue
				}
				rows[k] = types.Row{i(99), *v}
				want.AppendDatum(*v)
			}
			got.AppendColumn(rows, 1)
			n += len(call)
		}
		gv, wv := got.View(), want.View()
		if gv.Mixed != wv.Mixed || gv.Kind != wv.Kind {
			t.Fatalf("%s: lane is kind %v mixed %v, want kind %v mixed %v", tc.name, gv.Kind, gv.Mixed, wv.Kind, wv.Mixed)
		}
		for k := 0; k < n; k++ {
			if g, w := gv.Datum(k), wv.Datum(k); g != w || gv.Null(k) != wv.Null(k) {
				t.Fatalf("%s: value %d = %v (null %v), want %v (null %v)", tc.name, k, g, gv.Null(k), w, wv.Null(k))
			}
		}
	}
}

func ptr(d types.Datum) *types.Datum { return &d }
