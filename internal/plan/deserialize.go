package plan

import (
	"encoding/binary"
	"fmt"
	"math"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/part"
	"partopt/internal/types"
)

// Deserialize decodes a plan produced by Serialize, resolving table OIDs
// against the given catalog — what a segment process does with the plan the
// coordinator dispatches. Serialize∘Deserialize is the identity up to node
// pointer identity (see the round-trip property tests).
func Deserialize(data []byte, cat *catalog.Catalog) (Node, error) {
	r := &planReader{data: data, cat: cat}
	n, err := r.node()
	if err != nil {
		return nil, err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("plan: %d trailing bytes after plan", len(r.data)-r.pos)
	}
	return n, nil
}

type planReader struct {
	data []byte
	pos  int
	cat  *catalog.Catalog
}

func (r *planReader) u8() (uint8, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("plan: truncated input at byte %d", r.pos)
	}
	v := r.data[r.pos]
	r.pos++
	return v, nil
}

func (r *planReader) i32() (int32, error) {
	if r.pos+4 > len(r.data) {
		return 0, fmt.Errorf("plan: truncated int32 at byte %d", r.pos)
	}
	v := int32(binary.LittleEndian.Uint32(r.data[r.pos:]))
	r.pos += 4
	return v, nil
}

func (r *planReader) i64() (int64, error) {
	if r.pos+8 > len(r.data) {
		return 0, fmt.Errorf("plan: truncated int64 at byte %d", r.pos)
	}
	v := int64(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v, nil
}

func (r *planReader) f64() (float64, error) {
	v, err := r.i64()
	return math.Float64frombits(uint64(v)), err
}

func (r *planReader) str() (string, error) {
	n, err := r.i32()
	if err != nil {
		return "", err
	}
	if n < 0 || r.pos+int(n) > len(r.data) {
		return "", fmt.Errorf("plan: bad string length %d at byte %d", n, r.pos)
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *planReader) bool() (bool, error) {
	v, err := r.u8()
	return v != 0, err
}

func (r *planReader) colID() (expr.ColID, error) {
	rel, err := r.i32()
	if err != nil {
		return expr.ColID{}, err
	}
	ord, err := r.i32()
	if err != nil {
		return expr.ColID{}, err
	}
	return expr.ColID{Rel: int(rel), Ord: int(ord)}, nil
}

func (r *planReader) table() (*catalog.Table, error) {
	oid, err := r.i32()
	if err != nil {
		return nil, err
	}
	t, ok := r.cat.TableByOID(part.OID(oid))
	if !ok {
		return nil, fmt.Errorf("plan: unknown table OID %d", oid)
	}
	return t, nil
}

func (r *planReader) node() (Node, error) {
	tag, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagScan:
		t, err := r.table()
		if err != nil {
			return nil, err
		}
		rel, err := r.i32()
		if err != nil {
			return nil, err
		}
		leaf, err := r.i32()
		if err != nil {
			return nil, err
		}
		withRowID, err := r.bool()
		if err != nil {
			return nil, err
		}
		s := NewLeafScan(t, int(rel), part.OID(leaf))
		s.WithRowID = withRowID
		return s, nil
	case tagDynamicScan:
		t, err := r.table()
		if err != nil {
			return nil, err
		}
		rel, err := r.i32()
		if err != nil {
			return nil, err
		}
		id, err := r.i32()
		if err != nil {
			return nil, err
		}
		withRowID, err := r.bool()
		if err != nil {
			return nil, err
		}
		s := NewDynamicScan(t, int(rel), int(id))
		s.WithRowID = withRowID
		return s, nil
	case tagPartitionSelector:
		t, err := r.table()
		if err != nil {
			return nil, err
		}
		id, err := r.i32()
		if err != nil {
			return nil, err
		}
		hub, err := r.bool()
		if err != nil {
			return nil, err
		}
		np, err := r.i32()
		if err != nil {
			return nil, err
		}
		var preds []expr.Expr
		for i := int32(0); i < np; i++ {
			p, err := r.expr()
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
		}
		hasChild, err := r.bool()
		if err != nil {
			return nil, err
		}
		var child Node
		if hasChild {
			child, err = r.node()
			if err != nil {
				return nil, err
			}
		}
		sel := NewPartitionSelector(t, int(id), preds, child)
		sel.Hub = hub
		return sel, nil
	case tagSequence:
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		kids, err := r.nodes(int(n))
		if err != nil {
			return nil, err
		}
		return NewSequence(kids...), nil
	case tagAppend:
		paramID, err := r.i32()
		if err != nil {
			return nil, err
		}
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		kids, err := r.nodes(int(n))
		if err != nil {
			return nil, err
		}
		return NewFilteredAppend(int(paramID), kids...), nil
	case tagFilter:
		pred, err := r.expr()
		if err != nil {
			return nil, err
		}
		child, err := r.node()
		if err != nil {
			return nil, err
		}
		return NewFilter(pred, child), nil
	case tagProject:
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		cols := make([]ProjCol, n)
		for i := range cols {
			e, err := r.expr()
			if err != nil {
				return nil, err
			}
			name, err := r.str()
			if err != nil {
				return nil, err
			}
			out, err := r.colID()
			if err != nil {
				return nil, err
			}
			cols[i] = ProjCol{E: e, Name: name, Out: out}
		}
		child, err := r.node()
		if err != nil {
			return nil, err
		}
		return NewProject(cols, child), nil
	case tagHashJoin:
		jt, err := r.u8()
		if err != nil {
			return nil, err
		}
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		buildKeys := make([]expr.Expr, n)
		probeKeys := make([]expr.Expr, n)
		for i := int32(0); i < n; i++ {
			if buildKeys[i], err = r.expr(); err != nil {
				return nil, err
			}
			if probeKeys[i], err = r.expr(); err != nil {
				return nil, err
			}
		}
		residual, err := r.expr()
		if err != nil {
			return nil, err
		}
		build, err := r.node()
		if err != nil {
			return nil, err
		}
		probe, err := r.node()
		if err != nil {
			return nil, err
		}
		return NewHashJoin(JoinType(jt), buildKeys, probeKeys, residual, build, probe, nil), nil
	case tagHashAgg:
		stage, err := r.u8()
		if err != nil {
			return nil, err
		}
		if stage >= NumAggStages {
			return nil, fmt.Errorf("plan: unknown aggregation stage %d", stage)
		}
		ng, err := r.i32()
		if err != nil {
			return nil, err
		}
		groups := make([]GroupCol, ng)
		for i := range groups {
			e, err := r.expr()
			if err != nil {
				return nil, err
			}
			name, err := r.str()
			if err != nil {
				return nil, err
			}
			out, err := r.colID()
			if err != nil {
				return nil, err
			}
			groups[i] = GroupCol{E: e, Name: name, Out: out}
		}
		na, err := r.i32()
		if err != nil {
			return nil, err
		}
		aggs := make([]AggSpec, na)
		for i := range aggs {
			kind, err := r.u8()
			if err != nil {
				return nil, err
			}
			arg, err := r.expr()
			if err != nil {
				return nil, err
			}
			name, err := r.str()
			if err != nil {
				return nil, err
			}
			out, err := r.colID()
			if err != nil {
				return nil, err
			}
			aggs[i] = AggSpec{Kind: AggKind(kind), Arg: arg, Name: name, Out: out}
		}
		child, err := r.node()
		if err != nil {
			return nil, err
		}
		return NewStagedHashAgg(AggStage(stage), groups, aggs, child), nil
	case tagMotion:
		kind, err := r.u8()
		if err != nil {
			return nil, err
		}
		fromSeg, err := r.i32()
		if err != nil {
			return nil, err
		}
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		keys := make([]expr.Expr, n)
		for i := range keys {
			if keys[i], err = r.expr(); err != nil {
				return nil, err
			}
		}
		child, err := r.node()
		if err != nil {
			return nil, err
		}
		m := NewMotion(MotionKind(kind), keys, child)
		m.FromSegment = int(fromSeg)
		return m, nil
	case tagUpdate:
		t, err := r.table()
		if err != nil {
			return nil, err
		}
		rel, err := r.i32()
		if err != nil {
			return nil, err
		}
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		sets := make([]SetClause, n)
		for i := range sets {
			ord, err := r.i32()
			if err != nil {
				return nil, err
			}
			val, err := r.expr()
			if err != nil {
				return nil, err
			}
			sets[i] = SetClause{Ord: int(ord), Value: val}
		}
		child, err := r.node()
		if err != nil {
			return nil, err
		}
		return NewUpdate(t, int(rel), sets, child), nil
	case tagDelete:
		t, err := r.table()
		if err != nil {
			return nil, err
		}
		rel, err := r.i32()
		if err != nil {
			return nil, err
		}
		child, err := r.node()
		if err != nil {
			return nil, err
		}
		return NewDelete(t, int(rel), child), nil
	case tagIndexScan:
		t, err := r.table()
		if err != nil {
			return nil, err
		}
		rel, err := r.i32()
		if err != nil {
			return nil, err
		}
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		colOrd, err := r.i32()
		if err != nil {
			return nil, err
		}
		pred, err := r.expr()
		if err != nil {
			return nil, err
		}
		leaf, err := r.i32()
		if err != nil {
			return nil, err
		}
		withRowID, err := r.bool()
		if err != nil {
			return nil, err
		}
		s := NewIndexScan(t, int(rel), catalog.IndexDef{Name: name, ColOrd: int(colOrd)}, pred)
		s.Leaf = part.OID(leaf)
		s.WithRowID = withRowID
		return s, nil
	case tagDynamicIndexScan:
		t, err := r.table()
		if err != nil {
			return nil, err
		}
		rel, err := r.i32()
		if err != nil {
			return nil, err
		}
		id, err := r.i32()
		if err != nil {
			return nil, err
		}
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		colOrd, err := r.i32()
		if err != nil {
			return nil, err
		}
		pred, err := r.expr()
		if err != nil {
			return nil, err
		}
		withRowID, err := r.bool()
		if err != nil {
			return nil, err
		}
		ds := NewDynamicIndexScan(t, int(rel), int(id), catalog.IndexDef{Name: name, ColOrd: int(colOrd)}, pred)
		ds.WithRowID = withRowID
		return ds, nil
	case tagSort:
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		keys := make([]SortKey, n)
		for i := range keys {
			pos, err := r.i32()
			if err != nil {
				return nil, err
			}
			desc, err := r.bool()
			if err != nil {
				return nil, err
			}
			keys[i] = SortKey{Pos: int(pos), Desc: desc}
		}
		child, err := r.node()
		if err != nil {
			return nil, err
		}
		return NewSort(keys, child), nil
	case tagLimit:
		n, err := r.i64()
		if err != nil {
			return nil, err
		}
		child, err := r.node()
		if err != nil {
			return nil, err
		}
		return NewLimit(n, child), nil
	case tagPartitionWiseJoin:
		jt, err := r.u8()
		if err != nil {
			return nil, err
		}
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		buildKeys := make([]expr.Expr, n)
		probeKeys := make([]expr.Expr, n)
		for i := int32(0); i < n; i++ {
			if buildKeys[i], err = r.expr(); err != nil {
				return nil, err
			}
			if probeKeys[i], err = r.expr(); err != nil {
				return nil, err
			}
		}
		residual, err := r.expr()
		if err != nil {
			return nil, err
		}
		buildNode, err := r.node()
		if err != nil {
			return nil, err
		}
		probeNode, err := r.node()
		if err != nil {
			return nil, err
		}
		build, ok := buildNode.(*DynamicScan)
		if !ok {
			return nil, fmt.Errorf("plan: partition-wise join build is %T", buildNode)
		}
		probe, ok := probeNode.(*DynamicScan)
		if !ok {
			return nil, fmt.Errorf("plan: partition-wise join probe is %T", probeNode)
		}
		return NewPartitionWiseJoin(JoinType(jt), buildKeys, probeKeys, residual, build, probe, nil), nil
	default:
		return nil, fmt.Errorf("plan: unknown operator tag %d at byte %d", tag, r.pos-1)
	}
}

func (r *planReader) nodes(n int) ([]Node, error) {
	if n < 0 {
		return nil, fmt.Errorf("plan: negative child count")
	}
	out := make([]Node, n)
	for i := range out {
		var err error
		if out[i], err = r.node(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *planReader) expr() (expr.Expr, error) {
	tag, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case etagNil:
		return nil, nil
	case etagCol:
		id, err := r.colID()
		if err != nil {
			return nil, err
		}
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		return expr.NewCol(id, name), nil
	case etagConst:
		d, err := r.datum()
		if err != nil {
			return nil, err
		}
		return expr.NewConst(d), nil
	case etagParam:
		idx, err := r.i32()
		if err != nil {
			return nil, err
		}
		return &expr.Param{Idx: int(idx)}, nil
	case etagCmp:
		op, err := r.u8()
		if err != nil {
			return nil, err
		}
		l, err := r.expr()
		if err != nil {
			return nil, err
		}
		rr, err := r.expr()
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(expr.CmpOp(op), l, rr), nil
	case etagAnd, etagOr:
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		args := make([]expr.Expr, n)
		for i := range args {
			if args[i], err = r.expr(); err != nil {
				return nil, err
			}
		}
		if tag == etagAnd {
			return &expr.And{Args: args}, nil
		}
		return &expr.Or{Args: args}, nil
	case etagNot:
		arg, err := r.expr()
		if err != nil {
			return nil, err
		}
		return &expr.Not{Arg: arg}, nil
	case etagArith:
		op, err := r.u8()
		if err != nil {
			return nil, err
		}
		l, err := r.expr()
		if err != nil {
			return nil, err
		}
		rr, err := r.expr()
		if err != nil {
			return nil, err
		}
		return &expr.Arith{Op: expr.ArithOp(op), L: l, R: rr}, nil
	case etagInList:
		arg, err := r.expr()
		if err != nil {
			return nil, err
		}
		n, err := r.i32()
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, n)
		for i := range list {
			if list[i], err = r.expr(); err != nil {
				return nil, err
			}
		}
		return &expr.InList{Arg: arg, List: list}, nil
	case etagIsNull:
		neg, err := r.bool()
		if err != nil {
			return nil, err
		}
		arg, err := r.expr()
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Arg: arg, Negate: neg}, nil
	default:
		return nil, fmt.Errorf("plan: unknown expression tag %d at byte %d", tag, r.pos-1)
	}
}

func (r *planReader) datum() (types.Datum, error) {
	kind, err := r.u8()
	if err != nil {
		return types.Null, err
	}
	switch types.Kind(kind) {
	case types.KindNull:
		return types.Null, nil
	case types.KindInt:
		v, err := r.i64()
		return types.NewInt(v), err
	case types.KindDate:
		v, err := r.i64()
		return types.NewDate(v), err
	case types.KindFloat:
		v, err := r.f64()
		return types.NewFloat(v), err
	case types.KindString:
		s, err := r.str()
		return types.NewString(s), err
	case types.KindBool:
		b, err := r.bool()
		return types.NewBool(b), err
	default:
		return types.Null, fmt.Errorf("plan: unknown datum kind %d", kind)
	}
}
