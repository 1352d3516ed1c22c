// Package vec implements the columnar data substrate: typed column vectors
// with null bitmaps, grouped into a ColumnSet (one per storage heap), plus
// read-only column views and the typed kernels (hashing) the vectorized
// executor runs over them.
//
// Layout. Each column is one lane chosen by the column's declared kind:
// ints, dates and booleans share an []int64 lane (dates as epoch days,
// booleans as 0/1), floats a []float64 lane, strings a []string lane. NULLs
// occupy a zero slot in the lane and set a bit in a per-column bitmap. A
// column that ever receives a non-NULL datum of a different kind than its
// lane degrades to a generic []types.Datum fallback lane ("mixed"), which
// round-trips any row exactly; vectorized kernels skip mixed columns and
// the executor falls back to row-at-a-time evaluation for them.
//
// Row view. A ColumnSet can materialize a cached row-oriented view of
// itself (one datum arena for the whole heap). The cache is invalidated —
// replaced, never mutated — by every write, so row slices handed out
// earlier stay stable forever; this is what lets the row-oriented storage
// API (ScanLeaf and friends) and the executor's row ownership contract
// survive unchanged on top of column-major storage.
//
// Column snapshot. The columnar scan path gets the same guarantee from the
// other direction: ViewSnapshot hands out lane views, and the first write
// after a snapshot moves the live set onto fresh lane arrays
// (copy-on-write), so a reader still holding the snapshot never shares an
// address with a writer. A set that is only written, or only read, pays
// nothing; the copy happens once per write-after-read alternation — the
// same schedule on which the row view re-materializes.
package vec

import (
	"fmt"
	"sync/atomic"

	"partopt/internal/types"
)

// Column is one typed vector plus its null bitmap. The zero Column is an
// empty lane of kind KindNull (degenerate; normally built via NewColumnSet
// with a declared kind).
type Column struct {
	kind  types.Kind
	mixed bool
	ints  []int64
	flts  []float64
	strs  []string
	any   []types.Datum
	nulls []uint64 // bit i set = row i NULL; nil when no NULLs were seen
}

// rowView is the cached materialized row-oriented view of a ColumnSet.
type rowView struct {
	rows []types.Row
}

// ColumnSet is one heap's worth of columns: all lanes share the same
// length. Mutations are not internally synchronized — the storage layer
// serializes writers (and excludes readers) with its per-table lock, the
// same discipline the row-oriented heaps used.
type ColumnSet struct {
	cols    []Column
	n       int
	view    atomic.Pointer[rowView]
	colSnap atomic.Pointer[[]View] // handed-out lane views; see prepareWrite
}

// NewColumnSet allocates an empty set with one column per declared kind.
func NewColumnSet(kinds []types.Kind) *ColumnSet {
	cs := &ColumnSet{cols: make([]Column, len(kinds))}
	for i, k := range kinds {
		cs.cols[i].kind = k
	}
	return cs
}

// Len returns the number of rows.
func (cs *ColumnSet) Len() int {
	if cs == nil {
		return 0
	}
	return cs.n
}

// Width returns the number of columns.
func (cs *ColumnSet) Width() int { return len(cs.cols) }

// invalidate drops the cached row view. Every mutation calls it; handed-out
// views keep their (now stale) arena untouched.
func (cs *ColumnSet) invalidate() { cs.view.Store(nil) }

// prepareWrite readies the set for mutation. If a column snapshot has been
// handed out since the last write, the live lanes move onto fresh arrays
// first, so the snapshot's arrays are never written again — a scan that
// captured views under the storage read lock can keep reading them after
// releasing it, concurrently with later writers. Every mutation calls this
// before touching a lane; it runs under the storage layer's exclusive table
// lock, so the load cannot race a snapshot being built.
func (cs *ColumnSet) prepareWrite() {
	if cs.colSnap.Load() == nil {
		return
	}
	cs.colSnap.Store(nil)
	for j := range cs.cols {
		c := &cs.cols[j]
		c.ints = append([]int64(nil), c.ints...)
		c.flts = append([]float64(nil), c.flts...)
		c.strs = append([]string(nil), c.strs...)
		c.any = append([]types.Datum(nil), c.any...)
		c.nulls = append([]uint64(nil), c.nulls...)
	}
}

// nullBit reports row i's null bit. The bitmap grows lazily (only when a
// NULL is stored), so rows past its end are implicitly non-NULL.
func (c *Column) nullBit(i int) bool {
	w := i >> 6
	if w >= len(c.nulls) {
		return false
	}
	return c.nulls[w]&(1<<uint(i&63)) != 0
}

// setNullBit sets row i's null bit, growing the bitmap as needed.
func (c *Column) setNullBit(i int) {
	w := i >> 6
	for len(c.nulls) <= w {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[w] |= 1 << uint(i&63)
}

// clearNullBit clears row i's null bit (a bit past the bitmap's end is
// already implicitly clear).
func (c *Column) clearNullBit(i int) {
	w := i >> 6
	if w < len(c.nulls) {
		c.nulls[w] &^= 1 << uint(i&63)
	}
}

// laneFits reports whether a datum can live in the column's typed lane.
func (c *Column) laneFits(d types.Datum) bool {
	return d.IsNull() || d.Kind() == c.kind
}

// degrade migrates a typed column of n rows to the mixed representation.
func (c *Column) degrade(n int) {
	if c.mixed {
		return
	}
	out := make([]types.Datum, n)
	for i := 0; i < n; i++ {
		out[i] = c.datumAt(i)
	}
	c.mixed = true
	c.any = out
	c.ints, c.flts, c.strs = nil, nil, nil
	// The bitmap stays: Null(i) keeps answering without inspecting datums.
}

// datumAt reconstructs row i's datum from the lane.
func (c *Column) datumAt(i int) types.Datum {
	if c.mixed {
		return c.any[i]
	}
	if c.nullBit(i) {
		return types.Null
	}
	switch c.kind {
	case types.KindInt:
		return types.NewInt(c.ints[i])
	case types.KindDate:
		return types.NewDate(c.ints[i])
	case types.KindBool:
		return types.NewBool(c.ints[i] != 0)
	case types.KindFloat:
		return types.NewFloat(c.flts[i])
	case types.KindString:
		return types.NewString(c.strs[i])
	default:
		return types.Null
	}
}

// appendDatum appends one value to a column currently n rows long.
func (c *Column) appendDatum(d types.Datum, n int) {
	if !c.mixed && !c.laneFits(d) {
		c.degrade(n)
	}
	if c.mixed {
		c.any = append(c.any, d)
		if d.IsNull() {
			c.setNullBit(n)
		}
		return
	}
	if d.IsNull() {
		c.appendZero()
		c.setNullBit(n)
		return
	}
	switch c.kind {
	case types.KindInt, types.KindDate:
		c.ints = append(c.ints, d.Int())
	case types.KindBool:
		v := int64(0)
		if d.Bool() {
			v = 1
		}
		c.ints = append(c.ints, v)
	case types.KindFloat:
		c.flts = append(c.flts, d.Float())
	case types.KindString:
		c.strs = append(c.strs, d.Str())
	default:
		// Declared kind KindNull (untyped): any non-null datum degrades.
		c.degrade(n)
		c.any = append(c.any, d)
	}
}

// appendZero appends the lane's zero value.
func (c *Column) appendZero() {
	switch c.kind {
	case types.KindInt, types.KindDate, types.KindBool:
		c.ints = append(c.ints, 0)
	case types.KindFloat:
		c.flts = append(c.flts, 0)
	case types.KindString:
		c.strs = append(c.strs, "")
	default:
		if !c.mixed {
			// Untyped lane holding only NULLs so far: nothing to store, the
			// bitmap carries the value. Degrade lazily on first non-null.
		}
	}
}

// setDatum overwrites row i's value.
func (c *Column) setDatum(i int, d types.Datum, n int) {
	if !c.mixed && !c.laneFits(d) {
		c.degrade(n)
	}
	if c.mixed {
		c.any[i] = d
		if d.IsNull() {
			c.setNullBit(i)
		} else {
			c.clearNullBit(i)
		}
		return
	}
	if d.IsNull() {
		c.setNullBit(i)
		c.zero(i)
		return
	}
	c.clearNullBit(i)
	switch c.kind {
	case types.KindInt, types.KindDate:
		c.ints[i] = d.Int()
	case types.KindBool:
		if d.Bool() {
			c.ints[i] = 1
		} else {
			c.ints[i] = 0
		}
	case types.KindFloat:
		c.flts[i] = d.Float()
	case types.KindString:
		c.strs[i] = d.Str()
	}
}

// zero clears row i's lane slot.
func (c *Column) zero(i int) {
	switch c.kind {
	case types.KindInt, types.KindDate, types.KindBool:
		if i < len(c.ints) {
			c.ints[i] = 0
		}
	case types.KindFloat:
		if i < len(c.flts) {
			c.flts[i] = 0
		}
	case types.KindString:
		if i < len(c.strs) {
			c.strs[i] = ""
		}
	}
}

// swapDelete moves row last into slot i and truncates to last rows.
func (c *Column) swapDelete(i, last int) {
	if c.mixed {
		c.any[i] = c.any[last]
		c.any = c.any[:last]
	} else {
		switch c.kind {
		case types.KindInt, types.KindDate, types.KindBool:
			if len(c.ints) > last {
				c.ints[i] = c.ints[last]
				c.ints = c.ints[:last]
			}
		case types.KindFloat:
			if len(c.flts) > last {
				c.flts[i] = c.flts[last]
				c.flts = c.flts[:last]
			}
		case types.KindString:
			if len(c.strs) > last {
				c.strs[i] = c.strs[last]
				c.strs = c.strs[:last]
			}
		}
	}
	if c.nulls != nil {
		if c.nullBit(last) {
			c.setNullBit(i)
		} else {
			c.clearNullBit(i)
		}
		c.clearNullBit(last)
	}
}

// AppendRow appends one row (width must match; unchecked beyond panics).
func (cs *ColumnSet) AppendRow(row types.Row) {
	cs.prepareWrite()
	for j := range cs.cols {
		cs.cols[j].appendDatum(row[j], cs.n)
	}
	cs.n++
	cs.invalidate()
}

// AppendRows bulk-appends rows column-by-column (one cache-friendly pass
// per lane) — the batch-insert fast path.
func (cs *ColumnSet) AppendRows(rows []types.Row) {
	cs.prepareWrite()
	for j := range cs.cols {
		c := &cs.cols[j]
		n := cs.n
		for _, row := range rows {
			c.appendDatum(row[j], n)
			n++
		}
	}
	cs.n += len(rows)
	cs.invalidate()
}

// RowAt materializes row i as a fresh Row.
func (cs *ColumnSet) RowAt(i int) types.Row {
	row := make(types.Row, len(cs.cols))
	for j := range cs.cols {
		row[j] = cs.cols[j].datumAt(i)
	}
	return row
}

// SetRow overwrites row i in place.
func (cs *ColumnSet) SetRow(i int, row types.Row) {
	cs.prepareWrite()
	for j := range cs.cols {
		cs.cols[j].setDatum(i, row[j], cs.n)
	}
	cs.invalidate()
}

// SwapDelete removes row i by moving the last row into its slot (the
// storage layer's swap-delete, applied lane-wise).
func (cs *ColumnSet) SwapDelete(i int) {
	cs.prepareWrite()
	last := cs.n - 1
	if i != last {
		for j := range cs.cols {
			cs.cols[j].swapDelete(i, last)
		}
	} else {
		for j := range cs.cols {
			cs.cols[j].swapDelete(last, last)
		}
	}
	cs.n = last
	cs.invalidate()
}

// Clone deep-copies the set (lanes and bitmaps; string payloads are shared,
// they are immutable). The clone starts with a cold row-view cache.
func (cs *ColumnSet) Clone() *ColumnSet {
	out := &ColumnSet{cols: make([]Column, len(cs.cols)), n: cs.n}
	for j := range cs.cols {
		c := &cs.cols[j]
		oc := &out.cols[j]
		oc.kind, oc.mixed = c.kind, c.mixed
		oc.ints = append([]int64(nil), c.ints...)
		oc.flts = append([]float64(nil), c.flts...)
		oc.strs = append([]string(nil), c.strs...)
		oc.any = append([]types.Datum(nil), c.any...)
		oc.nulls = append([]uint64(nil), c.nulls...)
	}
	return out
}

// DataEqual reports whether two sets hold byte-identical column data:
// same length, same lane kinds and representation, same values and null
// bits. It is the mirror-resync invariant check.
func (cs *ColumnSet) DataEqual(other *ColumnSet) bool {
	if cs.n != other.n || len(cs.cols) != len(other.cols) {
		return false
	}
	for j := range cs.cols {
		a, b := &cs.cols[j], &other.cols[j]
		if a.kind != b.kind || a.mixed != b.mixed {
			return false
		}
		for i := 0; i < cs.n; i++ {
			if a.nullBit(i) != b.nullBit(i) {
				return false
			}
			da, db := a.datumAt(i), b.datumAt(i)
			if da.Kind() != db.Kind() {
				return false
			}
			if !da.IsNull() && types.Compare(da, db) != 0 {
				return false
			}
		}
	}
	return true
}

// RowView returns the cached materialized row-oriented view, building it on
// first use. The returned rows live in one arena owned by the cache
// generation: a later mutation replaces the cache rather than touching it,
// so callers may retain the rows indefinitely. Concurrent readers may race
// to build the first view; the loser's arena is discarded.
func (cs *ColumnSet) RowView() []types.Row {
	if cs == nil {
		return nil
	}
	if v := cs.view.Load(); v != nil {
		return v.rows
	}
	built := &rowView{rows: cs.materialize()}
	if cs.view.CompareAndSwap(nil, built) {
		return built.rows
	}
	if v := cs.view.Load(); v != nil {
		return v.rows
	}
	return built.rows // cache was invalidated again; our snapshot is fine
}

// HasRowView reports whether the set holds a built row view. Every write
// drops it, and only a reader that asks for rows (RowView) builds it again.
func (cs *ColumnSet) HasRowView() bool { return cs != nil && cs.view.Load() != nil }

// materialize builds the row view: one datum arena filled lane-by-lane.
func (cs *ColumnSet) materialize() []types.Row {
	n, w := cs.n, len(cs.cols)
	if n == 0 {
		return nil
	}
	arena := make([]types.Datum, n*w)
	for j := range cs.cols {
		c := &cs.cols[j]
		switch {
		case c.mixed:
			for i := 0; i < n; i++ {
				arena[i*w+j] = c.any[i]
			}
		case c.kind == types.KindInt:
			for i, v := range c.ints {
				if !c.nullBit(i) {
					arena[i*w+j] = types.NewInt(v)
				}
			}
		case c.kind == types.KindDate:
			for i, v := range c.ints {
				if !c.nullBit(i) {
					arena[i*w+j] = types.NewDate(v)
				}
			}
		case c.kind == types.KindBool:
			for i, v := range c.ints {
				if !c.nullBit(i) {
					arena[i*w+j] = types.NewBool(v != 0)
				}
			}
		case c.kind == types.KindFloat:
			for i, v := range c.flts {
				if !c.nullBit(i) {
					arena[i*w+j] = types.NewFloat(v)
				}
			}
		case c.kind == types.KindString:
			for i, v := range c.strs {
				if !c.nullBit(i) {
					arena[i*w+j] = types.NewString(v)
				}
			}
		}
		// NULL slots keep the arena's zero datum, which is types.Null.
	}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// String renders a debugging summary.
func (cs *ColumnSet) String() string {
	return fmt.Sprintf("vec.ColumnSet{%d cols × %d rows}", len(cs.cols), cs.n)
}
