package plan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"partopt/internal/expr"
	"partopt/internal/types"
)

// Serialize encodes a plan tree into the compact binary form a coordinator
// would dispatch to segment processes. Its output length is the "plan size"
// of the paper's Figure 18: legacy plans that enumerate partitions grow
// with partition count, while DynamicScan plans stay constant.
//
// The encoding is deliberately faithful to what must actually be shipped:
// operator tags, table OIDs, leaf OIDs, predicates, projection lists — but
// no catalog payloads (those live on the segments).
func Serialize(n Node) []byte {
	var b bytes.Buffer
	w := &planWriter{b: &b}
	w.node(n)
	return b.Bytes()
}

// SerializedSize returns len(Serialize(n)).
func SerializedSize(n Node) int { return len(Serialize(n)) }

type planWriter struct {
	b *bytes.Buffer
}

func (w *planWriter) u8(v uint8)  { w.b.WriteByte(v) }
func (w *planWriter) i32(v int32) { binary.Write(w.b, binary.LittleEndian, v) }
func (w *planWriter) i64(v int64) { binary.Write(w.b, binary.LittleEndian, v) }
func (w *planWriter) f64(v float64) {
	binary.Write(w.b, binary.LittleEndian, math.Float64bits(v))
}
func (w *planWriter) str(s string) {
	w.i32(int32(len(s)))
	w.b.WriteString(s)
}

// Operator tags.
const (
	tagScan uint8 = iota + 1
	tagDynamicScan
	tagPartitionSelector
	tagSequence
	tagAppend
	tagFilter
	tagProject
	tagHashJoin
	tagHashAgg
	tagMotion
	tagUpdate
	tagDelete
	tagPartitionWiseJoin
	tagSort
	tagLimit
	tagIndexScan
	tagDynamicIndexScan
)

func (w *planWriter) node(n Node) {
	switch x := n.(type) {
	case *Scan:
		w.u8(tagScan)
		w.i32(int32(x.Table.OID))
		w.i32(int32(x.Rel))
		w.i32(int32(x.Leaf))
		w.bool(x.WithRowID)
	case *DynamicScan:
		w.u8(tagDynamicScan)
		w.i32(int32(x.Table.OID))
		w.i32(int32(x.Rel))
		w.i32(int32(x.PartScanID))
		w.bool(x.WithRowID)
	case *PartitionSelector:
		w.u8(tagPartitionSelector)
		w.i32(int32(x.Table.OID))
		w.i32(int32(x.PartScanID))
		w.bool(x.Hub)
		w.i32(int32(len(x.Preds)))
		for _, p := range x.Preds {
			w.expr(p)
		}
		if x.Child == nil {
			w.u8(0)
		} else {
			w.u8(1)
			w.node(x.Child)
		}
	case *Sequence:
		w.u8(tagSequence)
		w.i32(int32(len(x.Kids)))
		for _, k := range x.Kids {
			w.node(k)
		}
	case *Append:
		w.u8(tagAppend)
		w.i32(int32(x.ParamID))
		w.i32(int32(len(x.Kids)))
		for _, k := range x.Kids {
			w.node(k)
		}
	case *Filter:
		w.u8(tagFilter)
		w.expr(x.Pred)
		w.node(x.Child)
	case *Project:
		w.u8(tagProject)
		w.i32(int32(len(x.Cols)))
		for _, c := range x.Cols {
			w.expr(c.E)
			w.str(c.Name)
			w.colID(c.Out)
		}
		w.node(x.Child)
	case *HashJoin:
		w.u8(tagHashJoin)
		w.u8(uint8(x.Type))
		w.i32(int32(len(x.BuildKeys)))
		for i := range x.BuildKeys {
			w.expr(x.BuildKeys[i])
			w.expr(x.ProbeKeys[i])
		}
		w.expr(x.Residual)
		w.node(x.Build)
		w.node(x.Probe)
	case *HashAgg:
		w.u8(tagHashAgg)
		w.u8(uint8(x.Stage))
		w.i32(int32(len(x.Groups)))
		for _, g := range x.Groups {
			w.expr(g.E)
			w.str(g.Name)
			w.colID(g.Out)
		}
		w.i32(int32(len(x.Aggs)))
		for _, a := range x.Aggs {
			w.u8(uint8(a.Kind))
			w.expr(a.Arg)
			w.str(a.Name)
			w.colID(a.Out)
		}
		w.node(x.Child)
	case *Motion:
		w.u8(tagMotion)
		w.u8(uint8(x.Kind))
		w.i32(int32(x.FromSegment))
		w.i32(int32(len(x.HashKeys)))
		for _, k := range x.HashKeys {
			w.expr(k)
		}
		w.node(x.Child)
	case *Update:
		w.u8(tagUpdate)
		w.i32(int32(x.Table.OID))
		w.i32(int32(x.Rel))
		w.i32(int32(len(x.Sets)))
		for _, s := range x.Sets {
			w.i32(int32(s.Ord))
			w.expr(s.Value)
		}
		w.node(x.Child)
	case *Delete:
		w.u8(tagDelete)
		w.i32(int32(x.Table.OID))
		w.i32(int32(x.Rel))
		w.node(x.Child)
	case *IndexScan:
		w.u8(tagIndexScan)
		w.i32(int32(x.Table.OID))
		w.i32(int32(x.Rel))
		w.str(x.Index.Name)
		w.i32(int32(x.Index.ColOrd))
		w.expr(x.Pred)
		w.i32(int32(x.Leaf))
		w.bool(x.WithRowID)
	case *DynamicIndexScan:
		w.u8(tagDynamicIndexScan)
		w.i32(int32(x.Table.OID))
		w.i32(int32(x.Rel))
		w.i32(int32(x.PartScanID))
		w.str(x.Index.Name)
		w.i32(int32(x.Index.ColOrd))
		w.expr(x.Pred)
		w.bool(x.WithRowID)
	case *Sort:
		w.u8(tagSort)
		w.i32(int32(len(x.Keys)))
		for _, k := range x.Keys {
			w.i32(int32(k.Pos))
			w.bool(k.Desc)
		}
		w.node(x.Child)
	case *Limit:
		w.u8(tagLimit)
		w.i64(x.N)
		w.node(x.Child)
	case *PartitionWiseJoin:
		w.u8(tagPartitionWiseJoin)
		w.u8(uint8(x.Type))
		w.i32(int32(len(x.BuildKeys)))
		for i := range x.BuildKeys {
			w.expr(x.BuildKeys[i])
			w.expr(x.ProbeKeys[i])
		}
		w.expr(x.Residual)
		w.node(x.Build)
		w.node(x.Probe)
	default:
		panic(fmt.Sprintf("plan: cannot serialize %T", n))
	}
}

func (w *planWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *planWriter) colID(id expr.ColID) {
	w.i32(int32(id.Rel))
	w.i32(int32(id.Ord))
}

// Expression tags.
const (
	etagNil uint8 = iota
	etagCol
	etagConst
	etagParam
	etagCmp
	etagAnd
	etagOr
	etagNot
	etagArith
	etagInList
	etagIsNull
)

func (w *planWriter) expr(e expr.Expr) {
	if e == nil {
		w.u8(etagNil)
		return
	}
	switch x := e.(type) {
	case *expr.Col:
		w.u8(etagCol)
		w.colID(x.ID)
		w.str(x.Name)
	case *expr.Const:
		w.u8(etagConst)
		w.datum(x.Val)
	case *expr.Param:
		w.u8(etagParam)
		w.i32(int32(x.Idx))
	case *expr.Cmp:
		w.u8(etagCmp)
		w.u8(uint8(x.Op))
		w.expr(x.L)
		w.expr(x.R)
	case *expr.And:
		w.u8(etagAnd)
		w.i32(int32(len(x.Args)))
		for _, a := range x.Args {
			w.expr(a)
		}
	case *expr.Or:
		w.u8(etagOr)
		w.i32(int32(len(x.Args)))
		for _, a := range x.Args {
			w.expr(a)
		}
	case *expr.Not:
		w.u8(etagNot)
		w.expr(x.Arg)
	case *expr.Arith:
		w.u8(etagArith)
		w.u8(uint8(x.Op))
		w.expr(x.L)
		w.expr(x.R)
	case *expr.InList:
		w.u8(etagInList)
		w.expr(x.Arg)
		w.i32(int32(len(x.List)))
		for _, item := range x.List {
			w.expr(item)
		}
	case *expr.IsNull:
		w.u8(etagIsNull)
		w.bool(x.Negate)
		w.expr(x.Arg)
	default:
		panic(fmt.Sprintf("plan: cannot serialize expression %T", e))
	}
}

func (w *planWriter) datum(d types.Datum) {
	w.u8(uint8(d.Kind()))
	switch d.Kind() {
	case types.KindNull:
	case types.KindInt, types.KindDate:
		w.i64(d.Int())
	case types.KindFloat:
		w.f64(d.Float())
	case types.KindString:
		w.str(d.Str())
	case types.KindBool:
		w.bool(d.Bool())
	}
}
