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
//     Rows nil; a consumer that needs rows calls rows(ctx), which builds
//     them from Cols+Sel into a fresh, exactly-sized arena — so they are
//     stable like any other rows — and counts the batch as materialized.
//     Plain scans fill Rows (zero-copy); a RowID-bearing heap scan (the
//     target of an UPDATE or DELETE) leaves them lazy and carries the
//     RowID as one more int lane.
//   - The length is explicit: Len reports it whether or not Rows is built.
//   - The Batch itself (the *Batch, its Rows slice header, Cols, Sel and the
//     lanes behind Cols that an operator assembled itself) is transient: it
//     is valid only until the next NextBatch or Close call on the same
//     operator. Consumers that need the slice beyond that must copy the
//     headers out. Truncating a batch in place (limitOp) is permitted — the
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
// batch); a hash join's are lanes it assembled. Operators that only read
// rows call rows(ctx); operators that build fresh rows emit batches with
// Cols == nil. Operators that forward a child's *Batch unchanged
// (selector, sequence, append, stats, limit's in-place truncation)
// preserve the invariant for free. The views' underlying vectors are
// read-only here.
type Batch struct {
	Rows []types.Row
	Cols []vec.View
	Sel  []int32
	n    int
}

// Len returns the number of rows, tolerating a nil batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// reset empties the batch for refilling, keeping the header capacity and
// dropping any columnar payload.
func (b *Batch) reset() { b.Rows, b.Cols, b.Sel, b.n = b.Rows[:0], nil, nil, 0 }

// setRows makes the batch exactly rows, with no columnar payload.
func (b *Batch) setRows(rows []types.Row) { b.Rows, b.Cols, b.Sel, b.n = rows, nil, nil, len(rows) }

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

// rows returns the batch's rows, materializing them from the column lanes
// when the producer left Rows lazy. Materialized rows live in a fresh
// arena sized to the batch, so they are stable; the batch keeps them, so a
// second call is free. Each materialization is counted — it is the slow
// road a columnar consumer avoids.
func (b *Batch) rows(ctx *Ctx) []types.Row {
	if b.Rows != nil || b.n == 0 {
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

// batchRow returns row k of b: its row header, or, when rows are lazy, the
// row read off the lanes into *tmp, valid until the next call with the
// same tmp. Unlike rows it materializes nothing the batch keeps.
func batchRow(b *Batch, k int, tmp *types.Row) types.Row {
	if b.Rows != nil {
		return b.Rows[k]
	}
	if cap(*tmp) < len(b.Cols) {
		*tmp = make(types.Row, len(b.Cols))
	}
	row := (*tmp)[:len(b.Cols)]
	i := selRow(b.Sel, k)
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
	for len(out.Rows) < execBatchSize {
		row, err := next()
		if errors.Is(err, errEOF) {
			if len(out.Rows) == 0 {
				return nil, errEOF
			}
			break
		}
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	out.n = len(out.Rows)
	return out, nil
}
