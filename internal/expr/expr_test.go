package expr

import (
	"strings"
	"testing"

	"partopt/internal/types"
)

var (
	colA = NewCol(ColID{Rel: 1, Ord: 0}, "r.a")
	colB = NewCol(ColID{Rel: 1, Ord: 1}, "r.b")
	colX = NewCol(ColID{Rel: 2, Ord: 0}, "s.x")
)

func intc(v int64) *Const { return NewConst(types.NewInt(v)) }

func TestConjFlattening(t *testing.T) {
	if Conj() != nil {
		t.Errorf("Conj() should be nil")
	}
	single := NewCmp(EQ, colA, intc(1))
	if Conj(single) != single {
		t.Errorf("Conj of one pred should be identity")
	}
	if Conj(nil, single, nil) != single {
		t.Errorf("Conj should drop nils")
	}
	nested := Conj(Conj(NewCmp(LT, colA, intc(1)), NewCmp(GT, colA, intc(0))), single)
	and, ok := nested.(*And)
	if !ok || len(and.Args) != 3 {
		t.Fatalf("Conj should flatten to 3 args, got %v", nested)
	}
	if got := len(Conjuncts(nested)); got != 3 {
		t.Errorf("Conjuncts = %d, want 3", got)
	}
	if Conjuncts(nil) != nil {
		t.Errorf("Conjuncts(nil) should be nil")
	}
}

func TestDisj(t *testing.T) {
	if Disj() != nil {
		t.Errorf("Disj() should be nil")
	}
	d := Disj(NewCmp(EQ, colA, intc(1)), Disj(NewCmp(EQ, colA, intc(2)), NewCmp(EQ, colA, intc(3))))
	or, ok := d.(*Or)
	if !ok || len(or.Args) != 3 {
		t.Fatalf("Disj should flatten, got %v", d)
	}
}

func TestBetweenExpansion(t *testing.T) {
	b := Between(colA, intc(10), intc(12))
	cs := Conjuncts(b)
	if len(cs) != 2 {
		t.Fatalf("Between should expand to 2 conjuncts")
	}
	if cs[0].String() != "r.a >= 10" || cs[1].String() != "r.a <= 12" {
		t.Errorf("Between conjuncts = %q, %q", cs[0], cs[1])
	}
}

func TestColsUsedAndUses(t *testing.T) {
	e := Conj(NewCmp(EQ, colA, colX), NewCmp(LT, colB, intc(5)))
	used := ColsUsed(e)
	if len(used) != 3 {
		t.Errorf("ColsUsed = %v, want 3 entries", used)
	}
	if !UsesCol(e, colA.ID) || !UsesCol(e, colX.ID) {
		t.Errorf("UsesCol missed a column")
	}
	if UsesCol(e, ColID{Rel: 9, Ord: 9}) {
		t.Errorf("UsesCol found a phantom column")
	}
	if !UsesRel(e, 2) || UsesRel(e, 7) {
		t.Errorf("UsesRel wrong")
	}
}

func TestHasParam(t *testing.T) {
	if HasParam(NewCmp(EQ, colA, intc(1))) {
		t.Errorf("no param expected")
	}
	if !HasParam(NewCmp(EQ, colA, &Param{Idx: 0})) {
		t.Errorf("param not found")
	}
}

func TestSubstituteCols(t *testing.T) {
	e := NewCmp(EQ, colA, colX)
	sub := SubstituteCols(e, map[ColID]Expr{colX.ID: intc(42)})
	if sub.String() != "r.a = 42" {
		t.Errorf("SubstituteCols = %q", sub)
	}
	// Original untouched.
	if e.String() != "r.a = s.x" {
		t.Errorf("original mutated: %q", e)
	}
}

func TestEqualStructural(t *testing.T) {
	a := Conj(NewCmp(GE, colA, intc(10)), NewCmp(LE, colA, intc(12)))
	b := Conj(NewCmp(GE, NewCol(colA.ID, "alias.a"), intc(10)), NewCmp(LE, colA, intc(12)))
	if !Equal(a, b) {
		t.Errorf("structurally equal exprs reported unequal")
	}
	if Equal(a, NewCmp(GE, colA, intc(10))) {
		t.Errorf("different exprs reported equal")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Errorf("nil handling wrong")
	}
	if !Equal(intc(3), NewConst(types.NewFloat(3))) {
		t.Errorf("numeric const equality should hold across kinds")
	}
	if Equal(intc(3), NewConst(types.NewString("3"))) {
		t.Errorf("int and string consts reported equal")
	}
}

func TestCmpFlip(t *testing.T) {
	cases := map[CmpOp]CmpOp{EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}
	for op, want := range cases {
		if op.Flip() != want {
			t.Errorf("%v.Flip() = %v, want %v", op, op.Flip(), want)
		}
	}
}

func TestCmpNegate(t *testing.T) {
	cases := map[CmpOp]CmpOp{EQ: NE, NE: EQ, LT: GE, LE: GT, GT: LE, GE: LT}
	for op, want := range cases {
		if op.Negate() != want {
			t.Errorf("%v.Negate() = %v, want %v", op, op.Negate(), want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := Conj(
		NewCmp(GE, colA, intc(10)),
		Disj(NewCmp(EQ, colB, intc(1)), NewCmp(EQ, colB, intc(2))),
	)
	s := e.String()
	for _, want := range []string{"r.a >= 10", "OR", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	in := &InList{Arg: colA, List: []Expr{intc(1), intc(2)}}
	if in.String() != "r.a IN (1, 2)" {
		t.Errorf("InList.String = %q", in.String())
	}
	n := &IsNull{Arg: colA}
	if n.String() != "r.a IS NULL" {
		t.Errorf("IsNull.String = %q", n.String())
	}
	nn := &IsNull{Arg: colA, Negate: true}
	if nn.String() != "r.a IS NOT NULL" {
		t.Errorf("IsNotNull.String = %q", nn.String())
	}
	p := &Param{Idx: 1}
	if p.String() != "$2" {
		t.Errorf("Param.String = %q", p.String())
	}
	ar := &Arith{Op: Mul, L: colA, R: intc(3)}
	if ar.String() != "(r.a * 3)" {
		t.Errorf("Arith.String = %q", ar.String())
	}
	nt := &Not{Arg: colA}
	if nt.String() != "NOT (r.a)" {
		t.Errorf("Not.String = %q", nt.String())
	}
}

func TestRewritePreservesStructure(t *testing.T) {
	e := Conj(NewCmp(EQ, colA, intc(1)), &InList{Arg: colB, List: []Expr{intc(2), intc(3)}})
	// Identity rewrite returns an equal tree.
	id := Rewrite(e, func(n Expr) Expr { return n })
	if !Equal(e, id) {
		t.Errorf("identity rewrite changed tree")
	}
	// Replace const 2 with 99 inside the IN list.
	rw := Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*Const); ok && !c.Val.IsNull() && c.Val.Kind() == types.KindInt && c.Val.Int() == 2 {
			return intc(99)
		}
		return n
	})
	if !strings.Contains(rw.String(), "IN (99, 3)") {
		t.Errorf("rewrite failed: %q", rw)
	}
}
