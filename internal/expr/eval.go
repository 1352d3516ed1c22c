package expr

import (
	"errors"
	"fmt"
	"math"

	"partopt/internal/types"
)

// Layout maps column identities to positions within a physical row. Each
// executor operator publishes the layout of the rows it produces; bound
// expressions evaluate against (layout, row) pairs.
type Layout map[ColID]int

// Concat builds the layout of a row formed by concatenating rows with the
// given layouts (as a hash join does with build ++ probe columns).
func Concat(layouts ...Layout) Layout {
	out := Layout{}
	off := 0
	for _, l := range layouts {
		max := -1
		for id, pos := range l {
			out[id] = off + pos
			if pos > max {
				max = pos
			}
		}
		off += max + 1
	}
	return out
}

// Width returns the number of row positions the layout covers.
func (l Layout) Width() int {
	max := -1
	for _, pos := range l {
		if pos > max {
			max = pos
		}
	}
	return max + 1
}

// Env carries everything needed to evaluate an expression against one row.
type Env struct {
	Layout Layout
	Row    types.Row
	Params []types.Datum
}

// Eval computes the value of e under env. Unknown columns and out-of-range
// parameters are errors; SQL NULL propagates through operators per
// three-valued logic.
func Eval(e Expr, env *Env) (types.Datum, error) {
	switch x := e.(type) {
	case *Const:
		return x.Val, nil
	case *Col:
		pos, ok := env.Layout[x.ID]
		if !ok {
			return types.Null, fmt.Errorf("expr: column %s (%s) not in layout", x.ID, x.Name)
		}
		if pos < 0 || pos >= len(env.Row) {
			return types.Null, fmt.Errorf("expr: column %s maps to position %d outside row of width %d", x.ID, pos, len(env.Row))
		}
		return env.Row[pos], nil
	case *Param:
		if x.Idx < 0 || x.Idx >= len(env.Params) {
			return types.Null, fmt.Errorf("expr: parameter $%d not bound", x.Idx+1)
		}
		return env.Params[x.Idx], nil
	case *Cmp:
		l, err := Eval(x.L, env)
		if err != nil {
			return types.Null, err
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return types.Null, err
		}
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		c := types.Compare(l, r)
		var res bool
		switch x.Op {
		case EQ:
			res = c == 0
		case NE:
			res = c != 0
		case LT:
			res = c < 0
		case LE:
			res = c <= 0
		case GT:
			res = c > 0
		case GE:
			res = c >= 0
		}
		return types.NewBool(res), nil
	case *And:
		// Kleene AND: false dominates, then NULL, then true.
		sawNull := false
		for _, a := range x.Args {
			v, err := Eval(a, env)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				sawNull = true
				continue
			}
			if !v.Bool() {
				return types.NewBool(false), nil
			}
		}
		if sawNull {
			return types.Null, nil
		}
		return types.NewBool(true), nil
	case *Or:
		sawNull := false
		for _, a := range x.Args {
			v, err := Eval(a, env)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				sawNull = true
				continue
			}
			if v.Bool() {
				return types.NewBool(true), nil
			}
		}
		if sawNull {
			return types.Null, nil
		}
		return types.NewBool(false), nil
	case *Not:
		v, err := Eval(x.Arg, env)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			return types.Null, nil
		}
		return types.NewBool(!v.Bool()), nil
	case *IsNull:
		v, err := Eval(x.Arg, env)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull() != x.Negate), nil
	case *Arith:
		l, err := Eval(x.L, env)
		if err != nil {
			return types.Null, err
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return types.Null, err
		}
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		return evalArith(x.Op, l, r)
	case *InList:
		v, err := Eval(x.Arg, env)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			return types.Null, nil
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := Eval(item, env)
			if err != nil {
				return types.Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if types.Equal(v, iv) {
				return types.NewBool(true), nil
			}
		}
		if sawNull {
			return types.Null, nil
		}
		return types.NewBool(false), nil
	}
	return types.Null, fmt.Errorf("expr: cannot evaluate %T", e)
}

// errIntRange is the error of an integer result that leaves int64: it
// fails, as in PostgreSQL, rather than wrap.
var errIntRange = errors.New("expr: bigint out of range")

func evalArith(op ArithOp, l, r types.Datum) (types.Datum, error) {
	bothInt := (l.Kind() == types.KindInt || l.Kind() == types.KindDate) &&
		(r.Kind() == types.KindInt || r.Kind() == types.KindDate)
	if bothInt {
		a, b := l.Int(), r.Int()
		switch op {
		case Add:
			if s := a + b; (a^s)&(b^s) >= 0 {
				return types.NewInt(s), nil
			}
			return types.Null, errIntRange
		case Sub:
			if s := a - b; (a^b)&(a^s) >= 0 {
				return types.NewInt(s), nil
			}
			return types.Null, errIntRange
		case Mul:
			if p := a * b; a == 0 || p/a == b && !(a == -1 && b == math.MinInt64) {
				return types.NewInt(p), nil
			}
			return types.Null, errIntRange
		case Div:
			if b == 0 {
				return types.Null, fmt.Errorf("expr: division by zero")
			}
			if a == math.MinInt64 && b == -1 {
				return types.Null, errIntRange
			}
			return types.NewInt(a / b), nil
		case Mod:
			if b == 0 {
				return types.Null, fmt.Errorf("expr: modulo by zero")
			}
			return types.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case Add:
		return types.NewFloat(a + b), nil
	case Sub:
		return types.NewFloat(a - b), nil
	case Mul:
		return types.NewFloat(a * b), nil
	case Div:
		if b == 0 {
			return types.Null, fmt.Errorf("expr: division by zero")
		}
		return types.NewFloat(a / b), nil
	case Mod:
		return types.Null, fmt.Errorf("expr: modulo of non-integers")
	}
	return types.Null, fmt.Errorf("expr: unknown arithmetic op %d", op)
}

// EvalPred evaluates a filter predicate: a nil predicate is true, and a
// NULL result is treated as false per SQL WHERE semantics.
func EvalPred(e Expr, env *Env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != types.KindBool {
		return false, fmt.Errorf("expr: predicate %s evaluated to %s, not bool", e, v.Kind())
	}
	return v.Bool(), nil
}

// EvalConst evaluates an expression that must not reference any columns
// (constants, parameters, arithmetic over them). ok is false when the
// expression does reference a column.
func EvalConst(e Expr, params []types.Datum) (types.Datum, bool, error) {
	if len(ColsUsed(e)) > 0 {
		return types.Null, false, nil
	}
	v, err := Eval(e, &Env{Params: params})
	if err != nil {
		return types.Null, false, err
	}
	return v, true, nil
}
