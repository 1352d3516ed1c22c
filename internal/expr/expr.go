// Package expr implements scalar expressions: column references, constants,
// comparisons, boolean connectives, arithmetic and IN-lists, together with
// evaluation and the predicate analysis the partition-selection machinery
// needs (conjunct extraction, key-predicate discovery, interval derivation).
package expr

import (
	"fmt"
	"strings"

	"partopt/internal/types"
)

// ColID identifies a column globally within one query: Rel is the relation
// instance (table reference) id assigned by the binder, Ord the column
// ordinal within that relation. Relation ids double as the domain for
// partScanId assignment, so every DynamicScan's columns are addressable.
type ColID struct {
	Rel int
	Ord int
}

func (c ColID) String() string { return fmt.Sprintf("t%d.c%d", c.Rel, c.Ord) }

// Expr is a scalar expression tree node.
type Expr interface {
	// String renders the expression for EXPLAIN output.
	String() string
	// Children returns the direct sub-expressions.
	Children() []Expr
	// withChildren returns a copy with the given children (same arity).
	withChildren(ch []Expr) Expr
}

// Col is a column reference.
type Col struct {
	ID   ColID
	Name string // display name, e.g. "d.month"
}

// NewCol returns a column reference expression.
func NewCol(id ColID, name string) *Col { return &Col{ID: id, Name: name} }

func (c *Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return c.ID.String()
}
func (c *Col) Children() []Expr         { return nil }
func (c *Col) withChildren([]Expr) Expr { return c }

// Const is a literal value.
type Const struct {
	Val types.Datum
}

// NewConst returns a literal expression.
func NewConst(v types.Datum) *Const { return &Const{Val: v} }

func (c *Const) String() string           { return c.Val.String() }
func (c *Const) Children() []Expr         { return nil }
func (c *Const) withChildren([]Expr) Expr { return c }

// Param is a placeholder for a prepared-statement parameter ($1, $2, ...),
// bound only at execution time. Partition selection over Param predicates is
// necessarily dynamic (paper §1).
type Param struct {
	Idx int // 0-based parameter index
}

func (p *Param) String() string           { return fmt.Sprintf("$%d", p.Idx+1) }
func (p *Param) Children() []Expr         { return nil }
func (p *Param) withChildren([]Expr) Expr { return p }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Flip mirrors the operator: a op b  ≡  b op.Flip() a.
func (o CmpOp) Flip() CmpOp {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return o
}

// Negate returns the complement operator: a op b is FALSE exactly where
// a op.Negate() b is TRUE, and both are NULL on the same rows.
func (o CmpOp) Negate() CmpOp {
	return [...]CmpOp{EQ: NE, NE: EQ, LT: GE, LE: GT, GT: LE, GE: LT}[o]
}

// Cmp is a binary comparison.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp returns the comparison l op r.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}
func (c *Cmp) Children() []Expr { return []Expr{c.L, c.R} }
func (c *Cmp) withChildren(ch []Expr) Expr {
	return &Cmp{Op: c.Op, L: ch[0], R: ch[1]}
}

// And is an n-ary conjunction.
type And struct {
	Args []Expr
}

func (a *And) String() string              { return joinArgs(a.Args, " AND ") }
func (a *And) Children() []Expr            { return a.Args }
func (a *And) withChildren(ch []Expr) Expr { return &And{Args: ch} }

// Or is an n-ary disjunction.
type Or struct {
	Args []Expr
}

func (o *Or) String() string              { return "(" + joinArgs(o.Args, " OR ") + ")" }
func (o *Or) Children() []Expr            { return o.Args }
func (o *Or) withChildren(ch []Expr) Expr { return &Or{Args: ch} }

// Not is logical negation.
type Not struct {
	Arg Expr
}

func (n *Not) String() string              { return "NOT (" + n.Arg.String() + ")" }
func (n *Not) Children() []Expr            { return []Expr{n.Arg} }
func (n *Not) withChildren(ch []Expr) Expr { return &Not{Arg: ch[0]} }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (o ArithOp) String() string {
	return [...]string{"+", "-", "*", "/", "%"}[o]
}

// Arith is binary arithmetic over numeric datums.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}
func (a *Arith) Children() []Expr { return []Expr{a.L, a.R} }
func (a *Arith) withChildren(ch []Expr) Expr {
	return &Arith{Op: a.Op, L: ch[0], R: ch[1]}
}

// InList is "arg IN (e1, e2, ...)".
type InList struct {
	Arg  Expr
	List []Expr
}

func (in *InList) String() string {
	return fmt.Sprintf("%s IN (%s)", in.Arg, joinArgs(in.List, ", "))
}
func (in *InList) Children() []Expr {
	ch := make([]Expr, 0, len(in.List)+1)
	ch = append(ch, in.Arg)
	ch = append(ch, in.List...)
	return ch
}
func (in *InList) withChildren(ch []Expr) Expr {
	return &InList{Arg: ch[0], List: ch[1:]}
}

// IsNull is "arg IS [NOT] NULL".
type IsNull struct {
	Arg    Expr
	Negate bool
}

func (n *IsNull) String() string {
	if n.Negate {
		return n.Arg.String() + " IS NOT NULL"
	}
	return n.Arg.String() + " IS NULL"
}
func (n *IsNull) Children() []Expr { return []Expr{n.Arg} }
func (n *IsNull) withChildren(ch []Expr) Expr {
	return &IsNull{Arg: ch[0], Negate: n.Negate}
}

func joinArgs(args []Expr, sep string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, sep)
}

// Between builds lo <= arg AND arg <= hi, the expansion of SQL BETWEEN.
func Between(arg, lo, hi Expr) Expr {
	return Conj(NewCmp(GE, arg, lo), NewCmp(LE, arg, hi))
}

// Conj builds the conjunction of the given predicates, flattening nested
// ANDs, dropping nils, and simplifying the 0- and 1-ary cases. A nil result
// means "true" (no restriction), matching the paper's use in Algorithms 3-4
// where partPredicate may be NULL.
func Conj(preds ...Expr) Expr {
	var flat []Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if a, ok := p.(*And); ok {
			flat = append(flat, a.Args...)
			continue
		}
		flat = append(flat, p)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return &And{Args: flat}
}

// Disj builds the disjunction of the given predicates, symmetrical to Conj.
func Disj(preds ...Expr) Expr {
	var flat []Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if o, ok := p.(*Or); ok {
			flat = append(flat, o.Args...)
			continue
		}
		flat = append(flat, p)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return &Or{Args: flat}
}

// Conjuncts splits a predicate into its top-level AND factors. A nil
// predicate yields no conjuncts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, arg := range a.Args {
			out = append(out, Conjuncts(arg)...)
		}
		return out
	}
	return []Expr{e}
}

// Walk visits e and all descendants in pre-order. The visitor returning
// false prunes the subtree.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	for _, c := range e.Children() {
		Walk(c, visit)
	}
}

// ColsUsed returns the set of column ids referenced anywhere in e.
func ColsUsed(e Expr) map[ColID]bool {
	out := map[ColID]bool{}
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*Col); ok {
			out[c.ID] = true
		}
		return true
	})
	return out
}

// UsesCol reports whether e references the given column.
func UsesCol(e Expr, id ColID) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if found {
			return false
		}
		if c, ok := n.(*Col); ok && c.ID == id {
			found = true
			return false
		}
		return true
	})
	return found
}

// UsesRel reports whether e references any column of relation rel.
func UsesRel(e Expr, rel int) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if found {
			return false
		}
		if c, ok := n.(*Col); ok && c.ID.Rel == rel {
			found = true
			return false
		}
		return true
	})
	return found
}

// HasParam reports whether e contains a prepared-statement parameter.
func HasParam(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if found {
			return false
		}
		if _, ok := n.(*Param); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// Rewrite returns a copy of e with every node passed through f bottom-up.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	ch := e.Children()
	if len(ch) > 0 {
		newCh := make([]Expr, len(ch))
		changed := false
		for i, c := range ch {
			newCh[i] = Rewrite(c, f)
			if newCh[i] != c {
				changed = true
			}
		}
		if changed {
			e = e.withChildren(newCh)
		}
	}
	return f(e)
}

// SubstituteCols replaces column references per the given mapping; columns
// absent from the map are preserved.
func SubstituteCols(e Expr, m map[ColID]Expr) Expr {
	return Rewrite(e, func(n Expr) Expr {
		if c, ok := n.(*Col); ok {
			if r, ok := m[c.ID]; ok {
				return r
			}
		}
		return n
	})
}

// Equal reports structural equality of two expressions.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *Col:
		y, ok := b.(*Col)
		return ok && x.ID == y.ID
	case *Const:
		y, ok := b.(*Const)
		if !ok {
			return false
		}
		if x.Val.IsNull() || y.Val.IsNull() {
			return x.Val.IsNull() && y.Val.IsNull()
		}
		if x.Val.Kind() != y.Val.Kind() && !(isNumericKind(x.Val.Kind()) && isNumericKind(y.Val.Kind())) {
			return false
		}
		return types.Equal(x.Val, y.Val)
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Idx == y.Idx
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Arith:
		y, ok := b.(*Arith)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.Arg, y.Arg)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Negate == y.Negate && Equal(x.Arg, y.Arg)
	case *And:
		y, ok := b.(*And)
		return ok && equalSlices(x.Args, y.Args)
	case *Or:
		y, ok := b.(*Or)
		return ok && equalSlices(x.Args, y.Args)
	case *InList:
		y, ok := b.(*InList)
		return ok && Equal(x.Arg, y.Arg) && equalSlices(x.List, y.List)
	}
	return false
}

func equalSlices(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func isNumericKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat || k == types.KindDate
}
