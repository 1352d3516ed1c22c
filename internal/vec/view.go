package vec

import "partopt/internal/types"

// View is a zero-copy read-only window onto one column's lanes. Base is
// the window's starting row within the full lanes (the null bitmap cannot
// be re-sliced mid-word, so views carry the whole lane plus an offset).
// Row indices passed to the accessors are window-relative.
type View struct {
	Kind  types.Kind
	Mixed bool
	Ints  []int64
	Flts  []float64
	Strs  []string
	Any   []types.Datum
	Nulls []uint64
	Base  int
}

// ViewSnapshot returns read-only views of every column (Base 0), cached
// until the next write. Like the row view, a handed-out snapshot is never
// written again: the next mutation moves the live lanes onto fresh arrays
// (prepareWrite), so callers that captured the snapshot under the storage
// read lock may keep reading it after the lock is released, concurrently
// with writers. Concurrent readers may race to build the first snapshot;
// both candidates view the same (unwritten) arrays, so either wins safely.
func (cs *ColumnSet) ViewSnapshot() []View {
	if cs == nil {
		return nil
	}
	if v := cs.colSnap.Load(); v != nil {
		return *v
	}
	views := make([]View, len(cs.cols))
	for j := range views {
		views[j] = cs.ColView(j)
	}
	cs.colSnap.Store(&views)
	return views
}

// ColView returns a read-only view of column j covering the whole set
// (Base 0). Callers windowing a scan adjust Base themselves. The view
// aliases the live lanes — safe only while the caller excludes writers;
// scans that outlive the storage lock go through ViewSnapshot instead.
func (cs *ColumnSet) ColView(j int) View { return cs.cols[j].view() }

// view returns a read-only view of the column's lanes (Base 0).
func (c *Column) view() View {
	return View{
		Kind:  c.kind,
		Mixed: c.mixed,
		Ints:  c.ints,
		Flts:  c.flts,
		Strs:  c.strs,
		Any:   c.any,
		Nulls: c.nulls,
	}
}

// Null reports whether window row i is NULL.
func (v *View) Null(i int) bool {
	ri := v.Base + i
	if v.Mixed {
		return v.Any[ri].IsNull()
	}
	w := ri >> 6
	if w >= len(v.Nulls) {
		return false
	}
	return v.Nulls[w]&(1<<uint(ri&63)) != 0
}

// Datum reconstructs window row i as a boxed datum.
func (v *View) Datum(i int) types.Datum {
	ri := v.Base + i
	if v.Mixed {
		return v.Any[ri]
	}
	if v.Null(i) {
		return types.Null
	}
	switch v.Kind {
	case types.KindInt:
		return types.NewInt(v.Ints[ri])
	case types.KindDate:
		return types.NewDate(v.Ints[ri])
	case types.KindBool:
		return types.NewBool(v.Ints[ri] != 0)
	case types.KindFloat:
		return types.NewFloat(v.Flts[ri])
	case types.KindString:
		return types.NewString(v.Strs[ri])
	default:
		return types.Null
	}
}

// EqualDatum reports whether window row i equals d under types.Compare —
// the grouping rule, where NULL equals NULL. Same-kind integer, date and
// string values compare on the lane without boxing.
func (v *View) EqualDatum(i int, d types.Datum) bool {
	if !v.Mixed && d.Kind() == v.Kind && !v.Null(i) {
		switch v.Kind {
		case types.KindInt, types.KindDate:
			return v.Ints[v.Base+i] == d.Int()
		case types.KindString:
			return v.Strs[v.Base+i] == d.Str()
		}
	}
	return types.Compare(v.Datum(i), d) == 0
}

// Matches reports whether window row i of v and window row j of w are
// both non-NULL and equal under types.Compare — the join-key rule, where
// NULL equals nothing. Typed lanes of one kind compare on the lanes; mixed
// or cross-kind lanes take Compare's numeric rules (int 1 equals float
// 1.0, NaN equals NaN).
func (v *View) Matches(i int, w *View, j int) bool {
	if v.Null(i) || w.Null(j) {
		return false
	}
	if !v.Mixed && !w.Mixed && v.Kind == w.Kind {
		switch v.Kind {
		case types.KindInt, types.KindDate, types.KindBool:
			return v.Ints[v.Base+i] == w.Ints[w.Base+j]
		case types.KindString:
			return v.Strs[v.Base+i] == w.Strs[w.Base+j]
		case types.KindFloat:
			return types.CompareFloat64(v.Flts[v.Base+i], w.Flts[w.Base+j]) == 0
		}
	}
	a, b := v.Datum(i), w.Datum(j)
	return !a.IsNull() && !b.IsNull() && types.Compare(a, b) == 0
}

// HashInto folds this column's values into the running hashes h[k] for
// k in [0, len(h)). sel maps output slot k to window row sel[k]; nil means
// the identity mapping. The mixing functions are the typed types.Hash*
// entry points, so the result is bit-identical to HashDatum over the boxed
// datums.
//
// With mixNulls true a NULL mixes types.HashNull, as HashDatum does
// (Redistribute routing); with mixNulls false a NULL sets nullOut[k] and
// leaves h[k] alone (join keys, which never match a NULL).
func (v *View) HashInto(h []uint64, nullOut []bool, sel []int32, mixNulls bool) {
	n := len(h)
	switch {
	case v.Mixed:
		for k := 0; k < n; k++ {
			if d := v.Any[v.Base+selAt(sel, k)]; d.IsNull() {
				hashNull(h, nullOut, k, mixNulls)
			} else {
				h[k] = types.HashDatum(h[k], d)
			}
		}
	case v.Kind == types.KindInt || v.Kind == types.KindDate:
		for k := 0; k < n; k++ {
			if i := selAt(sel, k); v.Null(i) {
				hashNull(h, nullOut, k, mixNulls)
			} else {
				h[k] = types.HashInt64(h[k], v.Ints[v.Base+i])
			}
		}
	case v.Kind == types.KindBool:
		for k := 0; k < n; k++ {
			if i := selAt(sel, k); v.Null(i) {
				hashNull(h, nullOut, k, mixNulls)
			} else {
				h[k] = types.HashBool(h[k], v.Ints[v.Base+i])
			}
		}
	case v.Kind == types.KindFloat:
		for k := 0; k < n; k++ {
			if i := selAt(sel, k); v.Null(i) {
				hashNull(h, nullOut, k, mixNulls)
			} else {
				h[k] = types.HashFloat64(h[k], v.Flts[v.Base+i])
			}
		}
	case v.Kind == types.KindString:
		for k := 0; k < n; k++ {
			if i := selAt(sel, k); v.Null(i) {
				hashNull(h, nullOut, k, mixNulls)
			} else {
				h[k] = types.HashString(h[k], v.Strs[v.Base+i])
			}
		}
	default:
		// Declared-NULL lane: every row is NULL.
		for k := 0; k < n; k++ {
			hashNull(h, nullOut, k, mixNulls)
		}
	}
}

// selAt maps slot k through sel; nil is the identity.
func selAt(sel []int32, k int) int {
	if sel == nil {
		return k
	}
	return int(sel[k])
}

// hashNull applies a NULL at slot k: mixed into h[k], or flagged in nullOut.
func hashNull(h []uint64, nullOut []bool, k int, mixNulls bool) {
	if mixNulls {
		h[k] = types.HashNull(h[k])
	} else {
		nullOut[k] = true
	}
}

// StringBytes sums the string payload bytes of the n window rows starting
// at the view's base — the variable-length component of mem.RowBytes. NULL
// slots contribute nothing, exactly like a KindNull datum in the row path.
func (v *View) StringBytes(n int) int64 {
	var total int64
	if v.Mixed {
		for i := 0; i < n; i++ {
			if d := v.Any[v.Base+i]; d.Kind() == types.KindString {
				total += int64(len(d.Str()))
			}
		}
		return total
	}
	if v.Kind != types.KindString {
		return 0
	}
	if len(v.Nulls) == 0 {
		for _, s := range v.Strs[v.Base : v.Base+n] {
			total += int64(len(s))
		}
		return total
	}
	for i := 0; i < n; i++ {
		if !v.Null(i) {
			total += int64(len(v.Strs[v.Base+i]))
		}
	}
	return total
}
