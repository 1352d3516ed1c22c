package expr

import (
	"math/rand"
	"testing"

	"partopt/internal/types"
)

func TestFindPredOnKey(t *testing.T) {
	key := colA.ID
	pred := Conj(
		NewCmp(GE, colA, intc(10)),
		NewCmp(EQ, colB, intc(1)),
		NewCmp(LE, colA, intc(12)),
	)
	got := FindPredOnKey(key, pred)
	if got == nil {
		t.Fatalf("expected key predicate")
	}
	want := Conj(NewCmp(GE, colA, intc(10)), NewCmp(LE, colA, intc(12)))
	if !Equal(got, want) {
		t.Errorf("FindPredOnKey = %q, want %q", got, want)
	}
	// No key conjunct at all.
	if FindPredOnKey(key, NewCmp(EQ, colB, intc(1))) != nil {
		t.Errorf("FindPredOnKey should be nil without key conjuncts")
	}
	if FindPredOnKey(key, nil) != nil {
		t.Errorf("FindPredOnKey(nil) should be nil")
	}
}

// StaticConjuncts keeps a conjunct only when the key is its one column: a
// join conjunct on the key and a conjunct on another column both go, a
// parameter stays.
func TestStaticConjuncts(t *testing.T) {
	key := colA.ID
	param := NewCmp(LE, colA, &Param{Idx: 0})
	pred := Conj(NewCmp(GE, colA, intc(10)), NewCmp(EQ, colA, colB), NewCmp(EQ, colB, intc(1)), param)
	want := Conj(NewCmp(GE, colA, intc(10)), param)
	if got := StaticConjuncts(pred, key); !Equal(got, want) {
		t.Errorf("StaticConjuncts = %q, want %q", got, want)
	}
	if StaticConjuncts(NewCmp(EQ, colA, colB), key) != nil || StaticConjuncts(nil, key) != nil {
		t.Errorf("StaticConjuncts should be nil without a static conjunct")
	}
}

func TestFindPredOnKeyFlippedAndJoin(t *testing.T) {
	key := colA.ID
	// Constant on the left.
	got := FindPredOnKey(key, NewCmp(GT, intc(5), colA))
	if got == nil {
		t.Fatalf("flipped comparison not found")
	}
	// Join predicate: key vs other relation's column is usable (dynamic).
	j := NewCmp(EQ, colX, colA)
	if FindPredOnKey(key, j) == nil {
		t.Errorf("join equality on key should be usable")
	}
	// Self-comparison r.a = r.a + 1 is not usable.
	self := NewCmp(EQ, colA, &Arith{Op: Add, L: colA, R: intc(1)})
	if FindPredOnKey(key, self) != nil {
		t.Errorf("self-referential comparison should be rejected")
	}
	// <> is not usable for interval pruning.
	if FindPredOnKey(key, NewCmp(NE, colA, intc(5))) != nil {
		t.Errorf("<> should not be treated as a selection predicate")
	}
}

func TestFindPredOnKeyInListAndOr(t *testing.T) {
	key := colA.ID
	in := &InList{Arg: colA, List: []Expr{intc(1), intc(2)}}
	if FindPredOnKey(key, in) == nil {
		t.Errorf("IN list on key should be usable")
	}
	orPred := Disj(NewCmp(EQ, colA, intc(1)), NewCmp(EQ, colA, intc(2)))
	if FindPredOnKey(key, orPred) == nil {
		t.Errorf("OR of key equalities should be usable")
	}
	badOr := Disj(NewCmp(EQ, colA, intc(1)), NewCmp(EQ, colB, intc(2)))
	if FindPredOnKey(key, badOr) != nil {
		t.Errorf("OR with a non-key branch cannot prune")
	}
}

func TestFindPredsOnKeysMultiLevel(t *testing.T) {
	keys := []ColID{colA.ID, colB.ID}
	pred := Conj(NewCmp(EQ, colA, intc(1)), NewCmp(EQ, colX, intc(9)))
	preds, any := FindPredsOnKeys(keys, pred)
	if !any || preds[0] == nil || preds[1] != nil {
		t.Errorf("multi-level extraction wrong: %v any=%v", preds, any)
	}
	preds, any = FindPredsOnKeys(keys, NewCmp(EQ, colX, intc(9)))
	if any {
		t.Errorf("no level constrained, any should be false (preds=%v)", preds)
	}
}

func TestDeriveIntervalsStatic(t *testing.T) {
	key := colA.ID
	eval := ConstEval(nil)
	cases := []struct {
		pred     Expr
		contains []int64
		excludes []int64
	}{
		{NewCmp(EQ, colA, intc(5)), []int64{5}, []int64{4, 6}},
		{NewCmp(LT, colA, intc(5)), []int64{4}, []int64{5, 6}},
		{NewCmp(LE, colA, intc(5)), []int64{5}, []int64{6}},
		{NewCmp(GT, colA, intc(5)), []int64{6}, []int64{5}},
		{NewCmp(GE, colA, intc(5)), []int64{5}, []int64{4}},
		{NewCmp(GT, intc(5), colA), []int64{4}, []int64{5}}, // 5 > a ⇒ a < 5
		{Between(colA, intc(10), intc(12)), []int64{10, 11, 12}, []int64{9, 13}},
		{&InList{Arg: colA, List: []Expr{intc(1), intc(7)}}, []int64{1, 7}, []int64{2}},
		{Disj(NewCmp(LT, colA, intc(0)), NewCmp(GT, colA, intc(10))), []int64{-1, 11}, []int64{5}},
	}
	for _, c := range cases {
		set := DeriveIntervals(c.pred, key, eval)
		for _, v := range c.contains {
			if !set.Contains(types.NewInt(v)) {
				t.Errorf("%s: derived %v should contain %d", c.pred, set, v)
			}
		}
		for _, v := range c.excludes {
			if set.Contains(types.NewInt(v)) {
				t.Errorf("%s: derived %v should exclude %d", c.pred, set, v)
			}
		}
	}
}

func TestDeriveIntervalsConservative(t *testing.T) {
	key := colA.ID
	eval := ConstEval(nil)
	// nil predicate → whole domain.
	if !DeriveIntervals(nil, key, eval).Contains(types.NewInt(123)) {
		t.Errorf("nil pred should derive whole domain")
	}
	// Unevaluable operand (outer column) → whole domain.
	set := DeriveIntervals(NewCmp(EQ, colA, colX), key, eval)
	if !set.Contains(types.NewInt(99)) {
		t.Errorf("unevaluable operand should derive whole domain")
	}
	// <> → whole domain.
	set = DeriveIntervals(NewCmp(NE, colA, intc(5)), key, eval)
	if !set.Contains(types.NewInt(5)) {
		t.Errorf("NE should not prune")
	}
	// Predicate on a different column → whole domain.
	set = DeriveIntervals(NewCmp(EQ, colB, intc(5)), key, eval)
	if !set.Contains(types.NewInt(0)) {
		t.Errorf("other-column pred should not prune key")
	}
	// key = NULL → empty.
	set = DeriveIntervals(NewCmp(EQ, colA, NewConst(types.Null)), key, eval)
	if !set.Empty() {
		t.Errorf("key = NULL should derive empty set, got %v", set)
	}
	// IN with only NULL → empty.
	set = DeriveIntervals(&InList{Arg: colA, List: []Expr{NewConst(types.Null)}}, key, eval)
	if !set.Empty() {
		t.Errorf("key IN (NULL) should derive empty set")
	}
}

func TestDeriveIntervalsDynamic(t *testing.T) {
	// Outer row provides s.x = 42; predicate r.a = s.x selects exactly 42.
	outer := &Env{
		Layout: Layout{colX.ID: 0},
		Row:    types.Row{types.NewInt(42)},
	}
	set := DeriveIntervals(NewCmp(EQ, colA, colX), colA.ID, EnvEval(outer))
	if !set.Contains(types.NewInt(42)) || set.Contains(types.NewInt(41)) {
		t.Errorf("dynamic derivation = %v, want exactly {42}", set)
	}
	// Range join: r.a < s.x.
	set = DeriveIntervals(NewCmp(LT, colA, colX), colA.ID, EnvEval(outer))
	if !set.Contains(types.NewInt(41)) || set.Contains(types.NewInt(42)) {
		t.Errorf("dynamic range derivation = %v", set)
	}
}

func TestDeriveIntervalsParams(t *testing.T) {
	// Prepared statement: r.a = $1 with $1 = 7.
	eval := ConstEval([]types.Datum{types.NewInt(7)})
	set := DeriveIntervals(NewCmp(EQ, colA, &Param{Idx: 0}), colA.ID, eval)
	if !set.Contains(types.NewInt(7)) || set.Contains(types.NewInt(8)) {
		t.Errorf("param derivation = %v, want {7}", set)
	}
	// Unbound param → conservative.
	set = DeriveIntervals(NewCmp(EQ, colA, &Param{Idx: 0}), colA.ID, ConstEval(nil))
	if !set.Contains(types.NewInt(999)) {
		t.Errorf("unbound param should derive whole domain")
	}
}

func TestKeyEqualitySource(t *testing.T) {
	key := colA.ID
	src, ok := KeyEqualitySource(key, NewCmp(EQ, colA, colX))
	if !ok || !Equal(src, colX) {
		t.Errorf("KeyEqualitySource = %v, %v", src, ok)
	}
	src, ok = KeyEqualitySource(key, NewCmp(EQ, colX, colA))
	if !ok || !Equal(src, colX) {
		t.Errorf("flipped KeyEqualitySource = %v, %v", src, ok)
	}
	if _, ok := KeyEqualitySource(key, NewCmp(LT, colA, colX)); ok {
		t.Errorf("range predicate is not an equality source")
	}
	if _, ok := KeyEqualitySource(key, NewCmp(EQ, colB, colX)); ok {
		t.Errorf("equality on other column is not a source")
	}
}

// Property: DeriveIntervals is sound — for random single-key predicates and
// random key values, if the predicate evaluates to true then the key value
// is inside the derived set.
func TestDeriveIntervalsSoundness(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	key := colA.ID
	genPred := func(depth int) Expr {
		var gen func(d int) Expr
		gen = func(d int) Expr {
			if d <= 0 || rnd.Intn(3) == 0 {
				op := []CmpOp{EQ, LT, LE, GT, GE}[rnd.Intn(5)]
				return NewCmp(op, colA, intc(rnd.Int63n(20)))
			}
			switch rnd.Intn(3) {
			case 0:
				return Conj(gen(d-1), gen(d-1))
			case 1:
				return Disj(gen(d-1), gen(d-1))
			default:
				return &InList{Arg: colA, List: []Expr{intc(rnd.Int63n(20)), intc(rnd.Int63n(20))}}
			}
		}
		return gen(depth)
	}
	for i := 0; i < 3000; i++ {
		pred := genPred(3)
		set := DeriveIntervals(pred, key, ConstEval(nil))
		v := rnd.Int63n(24) - 2
		e := &Env{Layout: Layout{key: 0}, Row: types.Row{types.NewInt(v)}}
		sat, err := EvalPred(pred, e)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		if sat && !set.Contains(types.NewInt(v)) {
			t.Fatalf("unsound: pred %s true at %d but derived set %v excludes it", pred, v, set)
		}
	}
}
