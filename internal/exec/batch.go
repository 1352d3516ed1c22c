package exec

import (
	"errors"

	"partopt/internal/types"
	"partopt/internal/vec"
)

// Batch-at-a-time execution protocol.
//
// Row-at-a-time iteration pays an abort poll, a fault-point check, stats
// accounting and an interface dispatch per tuple. Operator amortizes all of
// that to once per batch: operators hand whole []types.Row slices up the
// tree and per-row work shrinks to the actual data movement.
//
// Ownership contract:
//
//   - Rows inside a returned batch are immutable and stable: a consumer may
//     retain individual row headers (hash-join build tables, sort buffers,
//     the coordinator's result set) indefinitely. Producers never reuse the
//     datum storage behind emitted rows.
//   - Rows may be lazy. A batch that carries column lanes (Cols) may leave
//     Rows nil; a consumer that needs rows calls rows(ctx). When the batch
//     also carries the row headers of its column window (a plain scan's
//     leaf rows, forwarded unchanged by the filters and semi joins above
//     it), rows gathers those headers through Sel into a header buffer the
//     batch reuses: no datum is built and nothing is counted. Otherwise
//     rows builds them from Cols+Sel into a fresh, exactly-sized arena —
//     so they are stable like any other rows — and counts the batch as
//     materialized. A RowID-bearing heap scan (the target of an UPDATE or
//     DELETE) carries no window, only the RowID as one more int lane.
//   - The length is explicit: Len reports it whether or not Rows is built.
//   - The Batch itself (the *Batch, its Rows slice header and the header
//     buffer behind gathered rows, Cols, Sel and the lanes behind Cols
//     that an operator assembled itself) is transient: it is valid only
//     until the next NextBatch or Close call on the same operator.
//     Consumers that need the slice beyond that must copy the headers
//     out. Truncating a batch in place (limitOp) is permitted — the
//     producer resets it on its next call.
//   - A returned batch holds at least one row; end of stream is (nil,
//     errEOF). Operators that filter (filterOp) keep pulling child batches
//     until they can return a non-empty batch.

// DefaultBatchSize is the standard batch capacity. 1024 rows keeps a batch
// of small rows comfortably inside the L2 cache while amortizing per-batch
// bookkeeping to noise.
const DefaultBatchSize = 1024

// execBatchSize is the active batch capacity. It is a package variable (not
// a constant) so equivalence tests can sweep degenerate sizes; the engine
// never mutates it mid-query.
var execBatchSize = DefaultBatchSize

// SetBatchSize overrides the batch capacity (test hook; n < 1 is pinned to
// 1). It returns the previous value so tests can restore it.
func SetBatchSize(n int) int {
	prev := execBatchSize
	if n < 1 {
		n = 1
	}
	execBatchSize = n
	return prev
}

// Batch is one unit of batched data flow: Len rows, held as row headers,
// as column lanes, or both. See the ownership contract above.
//
// The columnar payload is Cols, one view per output column, plus an
// optional selection vector Sel. The invariant tying the two
// representations together is
//
//	Rows[k] == column values at window row (Sel == nil ? k : Sel[k])
//
// for every k < Len(). A scan's views are zero-copy windows onto storage's
// vectors (plus, for a RowID-bearing scan, the RowID lane it fills per
// batch); a hash join's are lanes it assembled. A plain scan also hands
// over its window's row headers (win, with win[i] the row at window
// position i), so the rows are there for the gathering without being
// built; filters and semi joins narrow Sel and forward win, and a
// consumer that reads only lanes never touches a header. Operators that
// only read rows call rows(ctx); operators that build fresh rows emit
// batches with Cols == nil. Operators that forward a child's *Batch
// unchanged (selector, sequence, append, stats, limit's in-place
// truncation) preserve the invariant for free. The views' underlying
// vectors are read-only here.
type Batch struct {
	Rows []types.Row
	Cols []vec.View
	Sel  []int32
	win  []types.Row // row headers of the column window, or nil
	hdr  []types.Row // reused header buffer: row-built output, gathered rows
	n    int
}

// Len returns the number of rows, tolerating a nil batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// reset empties the batch for refilling, keeping the header buffer's
// capacity and dropping any payload.
func (b *Batch) reset() {
	b.Rows, b.Cols, b.Sel, b.win, b.hdr, b.n = nil, nil, nil, nil, b.hdr[:0], 0
}

// setRows makes the batch exactly rows, with no columnar payload.
func (b *Batch) setRows(rows []types.Row) {
	b.Rows, b.Cols, b.Sel, b.win, b.n = rows, nil, nil, nil, len(rows)
}

// addRow appends row to a batch being built row by row (after reset),
// in the batch's reused header buffer.
func (b *Batch) addRow(row types.Row) {
	b.hdr = append(b.hdr, row)
	b.Rows, b.n = b.hdr, len(b.hdr)
}

// setLanes makes the batch the first n rows of the column window cols,
// whose row headers are win (nil: none), with rows left lazy.
func (b *Batch) setLanes(cols []vec.View, win []types.Row, n int) {
	b.Rows, b.Cols, b.Sel, b.win, b.n = nil, cols, nil, win, n
}

// hasRows reports whether b's rows cost nothing to read: built already,
// or gathered from its window's headers without building a datum.
func (b *Batch) hasRows() bool { return b.Rows != nil || b.win != nil }

// narrowFrom makes b, just reset, the rows of src at the slots ks, in
// order. Over a column window, src's lanes go up under ks mapped in place
// through src's Sel as the selection vector, so b keeps ks until its next
// reset, and src's window headers go up beside them: no header is copied.
// Only a src whose rows are built per slot, with no window, has its kept
// headers copied.
func (b *Batch) narrowFrom(src *Batch, ks []int32) {
	if src.win == nil && src.Rows != nil {
		for _, k := range ks {
			b.addRow(src.Rows[k])
		}
	}
	b.n = len(ks)
	if src.Cols == nil {
		return
	}
	if src.Sel != nil {
		for j, k := range ks {
			ks[j] = src.Sel[k]
		}
	}
	b.Cols, b.Sel, b.win = src.Cols, ks, src.win
}

// truncate keeps the first n rows.
func (b *Batch) truncate(n int) {
	if n >= b.n {
		return
	}
	if b.Rows != nil {
		b.Rows = b.Rows[:n]
	}
	if b.Sel != nil {
		b.Sel = b.Sel[:n]
	}
	b.n = n
}

// rows returns the batch's rows when the producer left Rows lazy. A batch
// with a window gathers its headers through Sel into the reused header
// buffer (with no Sel the window itself is the rows); otherwise the rows
// are built from the column lanes into a fresh arena sized to the batch,
// so they are stable. The batch keeps them, so a second call is free.
// Each build is counted as a materialization — it is the slow road a
// columnar consumer avoids; a gather is not, since no datum is built.
func (b *Batch) rows(ctx *Ctx) []types.Row {
	if b.Rows != nil || b.n == 0 {
		return b.Rows
	}
	if b.win != nil {
		if b.Sel == nil {
			b.Rows = b.win[:b.n]
			return b.Rows
		}
		b.hdr = b.hdr[:0]
		for _, i := range b.Sel[:b.n] {
			b.hdr = append(b.hdr, b.win[i])
		}
		b.Rows = b.hdr
		return b.Rows
	}
	n, w := b.n, len(b.Cols)
	arena := make([]types.Datum, n*w)
	for j := range b.Cols {
		v := &b.Cols[j]
		for k := 0; k < n; k++ {
			arena[k*w+j] = v.Datum(selRow(b.Sel, k))
		}
	}
	rows := make([]types.Row, n)
	for k := range rows {
		rows[k] = arena[k*w : (k+1)*w : (k+1)*w]
	}
	b.Rows = rows
	ctx.noteRowsMaterialized()
	return rows
}

// batchRow returns row k of b: its row header, its window's header, or,
// when rows are lazy and there is no window, the row read off the lanes
// into *tmp, valid until the next call with the same tmp. Unlike rows it
// materializes nothing the batch keeps.
func batchRow(b *Batch, k int, tmp *types.Row) types.Row {
	if b.Rows != nil {
		return b.Rows[k]
	}
	i := selRow(b.Sel, k)
	if b.win != nil {
		return b.win[i]
	}
	if cap(*tmp) < len(b.Cols) {
		*tmp = make(types.Row, len(b.Cols))
	}
	row := (*tmp)[:len(b.Cols)]
	for c := range b.Cols {
		row[c] = b.Cols[c].Datum(i)
	}
	return row
}

// fillBatch refills out with rows pulled from next until it holds
// execBatchSize rows or next reports errEOF, and returns it. It returns
// errEOF only when the stream ends with out still empty, so every batch it
// hands back is non-empty. The rows next yields must already be stable (see
// the ownership contract); only out's header is reused.
func fillBatch(out *Batch, next func() (types.Row, error)) (*Batch, error) {
	out.reset()
	for out.n < execBatchSize {
		row, err := next()
		if errors.Is(err, errEOF) {
			if out.n == 0 {
				return nil, errEOF
			}
			break
		}
		if err != nil {
			return nil, err
		}
		out.addRow(row)
	}
	return out, nil
}
