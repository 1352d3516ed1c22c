package expr

import (
	"math"
	"strings"
	"testing"

	"partopt/internal/types"
)

func env(vals ...types.Datum) *Env {
	l := Layout{}
	for i := range vals {
		l[ColID{Rel: 1, Ord: i}] = i
	}
	return &Env{Layout: l, Row: types.Row(vals)}
}

func TestEvalBasics(t *testing.T) {
	e := env(types.NewInt(7), types.NewString("CA"))
	v, err := Eval(colA, e)
	if err != nil || v.Int() != 7 {
		t.Fatalf("col eval = %v, %v", v, err)
	}
	v, err = Eval(intc(3), e)
	if err != nil || v.Int() != 3 {
		t.Fatalf("const eval = %v, %v", v, err)
	}
	if _, err := Eval(NewCol(ColID{Rel: 5, Ord: 5}, "ghost"), e); err == nil {
		t.Errorf("unknown column should error")
	}
}

func TestEvalComparisons(t *testing.T) {
	e := env(types.NewInt(7))
	cases := []struct {
		op   CmpOp
		rhs  int64
		want bool
	}{
		{EQ, 7, true}, {EQ, 8, false},
		{NE, 8, true}, {NE, 7, false},
		{LT, 8, true}, {LT, 7, false},
		{LE, 7, true}, {LE, 6, false},
		{GT, 6, true}, {GT, 7, false},
		{GE, 7, true}, {GE, 8, false},
	}
	for _, c := range cases {
		got, err := EvalPred(NewCmp(c.op, colA, intc(c.rhs)), e)
		if err != nil {
			t.Fatalf("EvalPred: %v", err)
		}
		if got != c.want {
			t.Errorf("7 %v %d = %v, want %v", c.op, c.rhs, got, c.want)
		}
	}
}

func TestEvalNullPropagation(t *testing.T) {
	e := env(types.Null)
	v, err := Eval(NewCmp(EQ, colA, intc(1)), e)
	if err != nil || !v.IsNull() {
		t.Errorf("NULL = 1 should be NULL, got %v (%v)", v, err)
	}
	ok, err := EvalPred(NewCmp(EQ, colA, intc(1)), e)
	if err != nil || ok {
		t.Errorf("WHERE NULL=1 should filter the row")
	}
	// Kleene: (NULL AND false) = false, (NULL OR true) = true.
	f := NewConst(types.NewBool(false))
	tr := NewConst(types.NewBool(true))
	nullCmp := NewCmp(EQ, colA, intc(1))
	v, _ = Eval(Conj(nullCmp, f), e)
	if v.IsNull() || v.Bool() {
		t.Errorf("NULL AND false = %v, want false", v)
	}
	v, _ = Eval(Disj(nullCmp, tr), e)
	if v.IsNull() || !v.Bool() {
		t.Errorf("NULL OR true = %v, want true", v)
	}
	v, _ = Eval(Conj(nullCmp, tr), e)
	if !v.IsNull() {
		t.Errorf("NULL AND true = %v, want NULL", v)
	}
	v, _ = Eval(&Not{Arg: nullCmp}, e)
	if !v.IsNull() {
		t.Errorf("NOT NULL-cmp = %v, want NULL", v)
	}
}

func TestEvalIsNull(t *testing.T) {
	e := env(types.Null)
	ok, err := EvalPred(&IsNull{Arg: colA}, e)
	if err != nil || !ok {
		t.Errorf("NULL IS NULL = %v (%v)", ok, err)
	}
	ok, _ = EvalPred(&IsNull{Arg: colA, Negate: true}, e)
	if ok {
		t.Errorf("NULL IS NOT NULL should be false")
	}
	e2 := env(types.NewInt(5))
	ok, _ = EvalPred(&IsNull{Arg: colA, Negate: true}, e2)
	if !ok {
		t.Errorf("5 IS NOT NULL should be true")
	}
}

func TestEvalArith(t *testing.T) {
	e := env(types.NewInt(10))
	cases := []struct {
		op   ArithOp
		want int64
	}{{Add, 13}, {Sub, 7}, {Mul, 30}, {Div, 3}, {Mod, 1}}
	for _, c := range cases {
		v, err := Eval(&Arith{Op: c.op, L: colA, R: intc(3)}, e)
		if err != nil {
			t.Fatalf("arith %v: %v", c.op, err)
		}
		if v.Int() != c.want {
			t.Errorf("10 %v 3 = %v, want %d", c.op, v, c.want)
		}
	}
	// Float widening.
	v, err := Eval(&Arith{Op: Div, L: colA, R: NewConst(types.NewFloat(4))}, e)
	if err != nil || v.Float() != 2.5 {
		t.Errorf("10 / 4.0 = %v (%v), want 2.5", v, err)
	}
	// Division by zero.
	if _, err := Eval(&Arith{Op: Div, L: colA, R: intc(0)}, e); err == nil {
		t.Errorf("division by zero should error")
	}
	if _, err := Eval(&Arith{Op: Mod, L: colA, R: intc(0)}, e); err == nil {
		t.Errorf("modulo by zero should error")
	}
	// NULL propagation.
	v, err = Eval(&Arith{Op: Add, L: colA, R: NewConst(types.Null)}, e)
	if err != nil || !v.IsNull() {
		t.Errorf("10 + NULL = %v, want NULL", v)
	}
}

// TestEvalArithIntRange checks the int64 edges: a result that leaves
// int64 fails as "bigint out of range" instead of wrapping, and results
// on the edge itself still succeed.
func TestEvalArithIntRange(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	for _, c := range []struct {
		a    int64
		op   ArithOp
		b    int64
		want int64
		err  bool
	}{
		{a: maxI, op: Add, b: 1, err: true},
		{a: minI, op: Add, b: -1, err: true},
		{a: maxI, op: Add, b: 0, want: maxI},
		{a: minI, op: Add, b: maxI, want: -1},
		{a: minI, op: Sub, b: 1, err: true},
		{a: maxI, op: Sub, b: -1, err: true},
		{a: 0, op: Sub, b: minI, err: true},
		{a: -1, op: Sub, b: maxI, want: minI},
		{a: 4e18, op: Mul, b: 3, err: true},
		{a: maxI, op: Mul, b: 2, err: true},
		{a: minI, op: Mul, b: -1, err: true},
		{a: -1, op: Mul, b: minI, err: true},
		{a: minI, op: Mul, b: 1, want: minI},
		{a: maxI, op: Mul, b: -1, want: -maxI},
		{a: 0, op: Mul, b: minI, want: 0},
		{a: minI, op: Div, b: -1, err: true},
		{a: minI, op: Div, b: 1, want: minI},
		{a: minI, op: Mod, b: -1, want: 0},
	} {
		v, err := Eval(&Arith{Op: c.op, L: intc(c.a), R: intc(c.b)}, env())
		switch {
		case c.err && (err == nil || !strings.Contains(err.Error(), "bigint out of range")):
			t.Errorf("%d %v %d = %v (%v), want bigint out of range", c.a, c.op, c.b, v, err)
		case !c.err && (err != nil || v.Int() != c.want):
			t.Errorf("%d %v %d = %v (%v), want %d", c.a, c.op, c.b, v, err, c.want)
		}
	}
}

func TestEvalInList(t *testing.T) {
	e := env(types.NewInt(2))
	in := &InList{Arg: colA, List: []Expr{intc(1), intc(2), intc(3)}}
	ok, err := EvalPred(in, e)
	if err != nil || !ok {
		t.Errorf("2 IN (1,2,3) = %v (%v)", ok, err)
	}
	notIn := &InList{Arg: colA, List: []Expr{intc(7)}}
	ok, _ = EvalPred(notIn, e)
	if ok {
		t.Errorf("2 IN (7) should be false")
	}
	// NULL in list: unknown unless matched.
	withNull := &InList{Arg: colA, List: []Expr{intc(7), NewConst(types.Null)}}
	v, _ := Eval(withNull, e)
	if !v.IsNull() {
		t.Errorf("2 IN (7, NULL) = %v, want NULL", v)
	}
	matched := &InList{Arg: colA, List: []Expr{intc(2), NewConst(types.Null)}}
	v, _ = Eval(matched, e)
	if v.IsNull() || !v.Bool() {
		t.Errorf("2 IN (2, NULL) = %v, want true", v)
	}
}

func TestEvalParams(t *testing.T) {
	e := env(types.NewInt(5))
	e.Params = []types.Datum{types.NewInt(5)}
	ok, err := EvalPred(NewCmp(EQ, colA, &Param{Idx: 0}), e)
	if err != nil || !ok {
		t.Errorf("a = $1 with $1=5 should hold: %v (%v)", ok, err)
	}
	if _, err := Eval(&Param{Idx: 3}, e); err == nil {
		t.Errorf("unbound param should error")
	}
}

func TestEvalPredNilAndNonBool(t *testing.T) {
	e := env(types.NewInt(1))
	ok, err := EvalPred(nil, e)
	if err != nil || !ok {
		t.Errorf("nil predicate should be true")
	}
	if _, err := EvalPred(intc(3), e); err == nil || !strings.Contains(err.Error(), "not bool") {
		t.Errorf("non-bool predicate should error, got %v", err)
	}
}

func TestEvalConst(t *testing.T) {
	v, ok, err := EvalConst(&Arith{Op: Add, L: intc(1), R: intc(2)}, nil)
	if err != nil || !ok || v.Int() != 3 {
		t.Errorf("EvalConst(1+2) = %v ok=%v err=%v", v, ok, err)
	}
	_, ok, err = EvalConst(colA, nil)
	if err != nil || ok {
		t.Errorf("EvalConst of column should report ok=false")
	}
	v, ok, err = EvalConst(&Param{Idx: 0}, []types.Datum{types.NewInt(9)})
	if err != nil || !ok || v.Int() != 9 {
		t.Errorf("EvalConst($1) = %v ok=%v err=%v", v, ok, err)
	}
}

func TestLayoutConcat(t *testing.T) {
	l1 := Layout{ColID{Rel: 1, Ord: 0}: 0, ColID{Rel: 1, Ord: 1}: 1}
	l2 := Layout{ColID{Rel: 2, Ord: 0}: 0}
	cat := Concat(l1, l2)
	if cat[ColID{Rel: 2, Ord: 0}] != 2 {
		t.Errorf("concat layout offset wrong: %v", cat)
	}
	if cat.Width() != 3 {
		t.Errorf("width = %d, want 3", cat.Width())
	}
	if Layout(nil).Width() != 0 {
		t.Errorf("empty layout width should be 0")
	}
}
