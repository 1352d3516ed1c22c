package vec

import (
	"slices"

	"partopt/internal/types"
)

// Lane is a reusable single-column builder: an operator that assembles
// column values of its own (the hash join's output columns) appends them
// here batch after batch and hands out View()s of what it holds. Reset
// keeps the storage, so a lane grows to the largest batch it has held and
// no further. A view is valid only until the lane's next Reset — the same
// transience as a batch's Rows header.
//
// A lane is a Column without a declared kind: it adopts the kind of the
// first non-NULL value it receives (the NULLs before it take zero slots,
// which fit any lane) and, like a storage column, degrades to the mixed
// representation when a value of another kind arrives.
type Lane struct {
	col Column
	n   int
}

// Reset empties the lane, keeping its storage.
func (l *Lane) Reset() {
	c := &l.col
	c.kind, c.mixed = types.KindNull, false
	c.ints, c.flts, c.strs, c.any, c.nulls = c.ints[:0], c.flts[:0], c.strs[:0], c.any[:0], c.nulls[:0]
	l.n = 0
}

// View returns a read-only view of the lane's values (Base 0).
func (l *Lane) View() View { return l.col.view() }

// adopt gives a lane that has held only NULLs the kind k.
func (l *Lane) adopt(k types.Kind) {
	c := &l.col
	if c.kind != types.KindNull || c.mixed || k == types.KindNull {
		return
	}
	c.kind = k
	for i := 0; i < l.n; i++ {
		c.appendZero()
	}
}

// grow makes room for n more values in the live lane, so a batch's worth
// of appends allocates once, exactly, rather than doubling its way up.
func (l *Lane) grow(n int) {
	c := &l.col
	switch {
	case c.mixed:
		c.any = slices.Grow(c.any, n)
	case c.kind == types.KindFloat:
		c.flts = slices.Grow(c.flts, n)
	case c.kind == types.KindString:
		c.strs = slices.Grow(c.strs, n)
	case c.kind != types.KindNull:
		c.ints = slices.Grow(c.ints, n)
	}
}

// AppendDatum appends one value.
func (l *Lane) AppendDatum(d types.Datum) {
	l.adopt(d.Kind())
	l.col.appendDatum(d, l.n)
	l.n++
}

// AppendColumn appends value j of every row in rows; a nil row appends a
// NULL. The kind is decided once, from the first non-NULL value, and the
// values are copied by a loop typed to it; a value of another kind (or a
// lane already mixed or of another kind) sends the rest through
// AppendDatum, which degrades the lane.
func (l *Lane) AppendColumn(rows []types.Row, j int) {
	k := types.KindNull
	for _, r := range rows {
		if r != nil && !r[j].IsNull() {
			k = r[j].Kind()
			break
		}
	}
	l.adopt(k)
	l.grow(len(rows))
	done := 0
	if c := &l.col; !c.mixed && (k == types.KindNull || k == c.kind) {
		done = l.appendTyped(rows, j)
	}
	for _, r := range rows[done:] {
		d := types.Null
		if r != nil {
			d = r[j]
		}
		l.AppendDatum(d)
	}
}

// appendTyped appends value j of rows to the lane's typed storage, NULLs
// as zero slots with their bit set, and stops at the first non-NULL value
// of another kind. It returns the number of rows appended.
func (l *Lane) appendTyped(rows []types.Row, j int) int {
	c := &l.col
	kind := c.kind
	i := 0
	switch kind {
	case types.KindInt, types.KindDate:
		for ; i < len(rows); i++ {
			if d := l.value(rows[i], j); d == nil {
				c.ints = append(c.ints, 0)
			} else if d.Kind() == kind {
				c.ints = append(c.ints, d.Int())
			} else {
				break
			}
			l.n++
		}
	case types.KindBool:
		for ; i < len(rows); i++ {
			v := int64(0)
			if d := l.value(rows[i], j); d != nil {
				if d.Kind() != kind {
					break
				}
				if d.Bool() {
					v = 1
				}
			}
			c.ints = append(c.ints, v)
			l.n++
		}
	case types.KindFloat:
		for ; i < len(rows); i++ {
			if d := l.value(rows[i], j); d == nil {
				c.flts = append(c.flts, 0)
			} else if d.Kind() == kind {
				c.flts = append(c.flts, d.Float())
			} else {
				break
			}
			l.n++
		}
	case types.KindString:
		for ; i < len(rows); i++ {
			if d := l.value(rows[i], j); d == nil {
				c.strs = append(c.strs, "")
			} else if d.Kind() == kind {
				c.strs = append(c.strs, d.Str())
			} else {
				break
			}
			l.n++
		}
	case types.KindNull:
		// A lane of NULLs so far: only NULLs can follow on this path (a
		// first non-NULL value would have given the lane its kind).
		for ; i < len(rows) && l.value(rows[i], j) == nil; i++ {
			l.n++
		}
	}
	return i
}

// value returns value j of row r, or nil for a NULL — a nil row reads as
// NULL — after setting the NULL's bit at the lane's next position.
func (l *Lane) value(r types.Row, j int) *types.Datum {
	if r == nil || r[j].IsNull() {
		l.col.setNullBit(l.n)
		return nil
	}
	return &r[j]
}

// AppendView appends window row rows[p] of v for every p; a negative
// position appends a NULL. Values are copied lane to lane when v is typed
// and of the lane's kind, boxed through Datum otherwise.
func (l *Lane) AppendView(v *View, rows []int32) {
	l.adopt(v.Kind)
	l.grow(len(rows))
	c := &l.col
	if v.Mixed || v.Kind == types.KindNull || c.mixed || c.kind != v.Kind {
		for _, r := range rows {
			d := types.Null
			if r >= 0 {
				d = v.Datum(int(r))
			}
			l.AppendDatum(d)
		}
		return
	}
	nullable := len(v.Nulls) > 0
	for _, r := range rows {
		if r < 0 || (nullable && v.Null(int(r))) {
			c.appendZero()
			c.setNullBit(l.n)
		} else {
			i := v.Base + int(r)
			switch v.Kind {
			case types.KindInt, types.KindDate, types.KindBool:
				c.ints = append(c.ints, v.Ints[i])
			case types.KindFloat:
				c.flts = append(c.flts, v.Flts[i])
			case types.KindString:
				c.strs = append(c.strs, v.Strs[i])
			}
		}
		l.n++
	}
}
