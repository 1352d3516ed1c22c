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
//   - The Batch itself (the *Batch and its Rows slice header) is transient:
//     it is valid only until the next NextBatch or Close call on the same
//     operator. Consumers that need the slice beyond that must copy the
//     headers out. Truncating b.Rows in place (limitOp) is permitted — the
//     producer resets the header on its next call.
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

// Batch is one unit of batched data flow: a slice of rows plus the reusable
// header storage behind it. See the ownership contract above.
//
// A batch may additionally carry a columnar payload: Cols is a set of
// zero-copy column views (one per output column, straight off the storage
// layer's vectors) and Sel an optional selection vector. The invariant tying
// the two representations together is
//
//	Rows[k] == column values at window row (Sel == nil ? k : Sel[k])
//
// for every k < len(Rows). Rows is ALWAYS populated — operators that read
// only Rows and the stats layer never look at Cols — so the columnar
// payload is a strictly optional acceleration: any operator may ignore it,
// and any operator that builds fresh rows simply emits batches with
// Cols == nil.
// Operators that forward a child's *Batch unchanged (selector, sequence,
// append, stats, limit's in-place prefix truncation) preserve the invariant
// for free. Cols and Sel are transient exactly like the Rows header; the
// views' underlying vectors are owned by storage and are read-only here.
type Batch struct {
	Rows []types.Row
	Cols []vec.View
	Sel  []int32
}

// Len returns the number of rows, tolerating a nil batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Rows)
}

// reset empties the batch for refilling, keeping the header capacity and
// dropping any columnar payload.
func (b *Batch) reset() { b.Rows, b.Cols, b.Sel = b.Rows[:0], nil, nil }

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
	return out, nil
}

// batchCursor iterates the rows of successive batches from a child
// operator, for operators that stream rows out of it one at a time (the
// hash-join probe).
type batchCursor struct {
	cur *Batch
	pos int
}

func (c *batchCursor) next(ctx *Ctx, src Operator) (types.Row, error) {
	for c.cur == nil || c.pos >= len(c.cur.Rows) {
		b, err := src.NextBatch(ctx)
		if err != nil {
			return nil, err // includes EOF
		}
		c.cur, c.pos = b, 0
	}
	row := c.cur.Rows[c.pos]
	c.pos++
	return row, nil
}
