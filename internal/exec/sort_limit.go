package exec

import (
	"errors"
	"io"
	"sort"

	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// sortOp materializes its input and emits it ordered by the sort keys.
// NULLs sort first (matching types.Compare's total order).
//
// Buffered rows charge the query budget. When a reservation is denied the
// buffer is sorted and flushed to disk as a run, and the final order comes
// from a k-way merge of the runs plus nothing in memory but one head row
// per run (hard reservations — the merge's irreducible working set). Ties
// pop from the lowest-numbered run, which preserves the stable order a
// single in-memory sort would produce: runs are cut from the input in
// order, and each run is sorted stably.
type sortOp struct {
	n     *plan.Sort
	child Operator
	rows  []types.Row
	pos   int

	reserved int64
	runs     []*mem.SpillWriter

	// k-way merge state: one reader and one head row per run (nil head =
	// run exhausted).
	readers   []*mem.SpillReader
	heads     []types.Row
	headBytes []int64

	childOpen bool

	out Batch // reused output header for NextBatch
}

func (s *sortOp) Open(ctx *Ctx) (err error) {
	s.rows, s.pos = nil, 0
	s.reserved = 0
	s.runs, s.readers, s.heads, s.headBytes = nil, nil, nil, nil
	defer func() {
		if err != nil {
			s.abort(ctx)
		}
	}()

	if err := s.child.Open(ctx); err != nil {
		return err
	}
	s.childOpen = true
	for {
		b, err := s.child.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := ctx.pollAbortBatch(); err != nil {
			return err
		}
		for _, row := range b.rows(ctx) {
			rb := mem.RowBytes(row)
			if ctx.reserve(rb) != nil {
				if err := s.flushRun(ctx); err != nil {
					return err
				}
				if ctx.reserve(rb) != nil {
					// Even an empty buffer cannot afford the row: it is the
					// sort's irreducible working set, so reserve it hard.
					if err := ctx.reserveHard(rb); err != nil {
						return err
					}
				}
			}
			s.reserved += rb
			s.rows = append(s.rows, row)
		}
	}
	if err := s.child.Close(ctx); err != nil {
		s.childOpen = false
		return err
	}
	s.childOpen = false

	if len(s.runs) == 0 {
		s.sortRows()
		return nil
	}
	// Spilled: flush the remainder as the last run and start the merge.
	if len(s.rows) > 0 {
		if err := s.flushRun(ctx); err != nil {
			return err
		}
	}
	var spillBytes int64
	for _, w := range s.runs {
		spillBytes += w.Bytes()
	}
	ctx.noteSpill(spillBytes, int64(len(s.runs)))
	s.readers = make([]*mem.SpillReader, len(s.runs))
	s.heads = make([]types.Row, len(s.runs))
	s.headBytes = make([]int64, len(s.runs))
	for i, w := range s.runs {
		r, err := w.Reader()
		if err != nil {
			return err
		}
		s.readers[i] = r
		if err := s.advance(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// flushRun sorts the buffered rows, writes them as one run, and returns
// their reservation.
func (s *sortOp) flushRun(ctx *Ctx) error {
	if len(s.rows) == 0 {
		return nil
	}
	s.sortRows()
	w, err := ctx.Budget().NewSpillWriter("sort-run-*")
	if err != nil {
		return err
	}
	s.runs = append(s.runs, w)
	for _, row := range s.rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	ctx.release(s.reserved)
	s.reserved = 0
	s.rows = nil
	return nil
}

func (s *sortOp) sortRows() {
	keys := s.n.Keys
	sort.SliceStable(s.rows, func(i, j int) bool { return s.less(s.rows[i], s.rows[j], keys) })
}

func (s *sortOp) less(a, b types.Row, keys []plan.SortKey) bool {
	for _, k := range keys {
		c := types.Compare(a[k.Pos], b[k.Pos])
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// advance replaces run i's head with its next row (nil at end of run),
// swapping the head's hard reservation accordingly.
func (s *sortOp) advance(ctx *Ctx, i int) error {
	ctx.release(s.headBytes[i])
	s.headBytes[i] = 0
	row, err := s.readers[i].Next()
	if err == io.EOF {
		s.heads[i] = nil
		s.readers[i].Close()
		s.runs[i].Remove()
		return nil
	}
	if err != nil {
		return err
	}
	rb := mem.RowBytes(row)
	if err := ctx.reserveHard(rb); err != nil {
		return err
	}
	s.headBytes[i] = rb
	s.heads[i] = row
	return nil
}

// popMerge pops the smallest run head; ties go to the lowest run index.
func (s *sortOp) popMerge(ctx *Ctx) (types.Row, error) {
	best := -1
	for i, h := range s.heads {
		if h == nil {
			continue
		}
		if best < 0 || s.less(h, s.heads[best], s.n.Keys) {
			best = i
		}
	}
	if best < 0 {
		return nil, errEOF
	}
	row := s.heads[best]
	if err := s.advance(ctx, best); err != nil {
		return nil, err
	}
	return row, nil
}

// NextBatch emits sorted output. The in-memory case is zero-copy: batches
// are windows over the sorted buffer. The merge case fills a reused header
// with rows popped off the run heads.
func (s *sortOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	if len(s.runs) == 0 {
		if s.pos >= len(s.rows) {
			return nil, errEOF
		}
		end := s.pos + execBatchSize
		if end > len(s.rows) {
			end = len(s.rows)
		}
		s.out.setRows(s.rows[s.pos:end])
		s.pos = end
		return &s.out, nil
	}
	return fillBatch(&s.out, func() (types.Row, error) { return s.popMerge(ctx) })
}

// cleanup releases buffered rows, heads, readers and run files. Idempotent.
func (s *sortOp) cleanup(ctx *Ctx) {
	for _, r := range s.readers {
		r.Close()
	}
	s.readers = nil
	for _, w := range s.runs {
		w.Remove()
	}
	s.runs = nil
	for _, hb := range s.headBytes {
		ctx.release(hb)
	}
	s.headBytes, s.heads = nil, nil
	ctx.release(s.reserved)
	s.reserved = 0
	s.rows = nil
}

// abort is the failed-Open teardown.
func (s *sortOp) abort(ctx *Ctx) {
	if s.childOpen {
		s.child.Close(ctx)
		s.childOpen = false
	}
	s.cleanup(ctx)
}

func (s *sortOp) Close(ctx *Ctx) error {
	var firstErr error
	if s.childOpen {
		firstErr = s.child.Close(ctx)
		s.childOpen = false
	}
	s.cleanup(ctx)
	return firstErr
}

// limitOp passes through at most N rows. The moment the limit is satisfied
// it closes its child, so a spilling sort (or join) below releases its
// memory and deletes its spill files immediately rather than at slice
// teardown.
type limitOp struct {
	n           *plan.Limit
	child       Operator
	seen        int64
	childClosed bool
}

func (l *limitOp) Open(ctx *Ctx) error {
	l.seen = 0
	l.childClosed = false
	return l.child.Open(ctx)
}

func (l *limitOp) closeChild(ctx *Ctx) error {
	if l.childClosed {
		return nil
	}
	l.childClosed = true
	return l.child.Close(ctx)
}

// NextBatch truncates the child's batch in place once the limit is reached
// (permitted by the ownership contract — the child resets its header on its
// next call) and closes the child the moment the limit is reached.
func (l *limitOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if l.seen >= l.n.N {
		if err := l.closeChild(ctx); err != nil {
			return nil, err
		}
		return nil, errEOF
	}
	b, err := l.child.NextBatch(ctx)
	if err != nil {
		return nil, err // includes EOF
	}
	if rem := l.n.N - l.seen; int64(b.Len()) > rem {
		b.truncate(int(rem))
	}
	l.seen += int64(b.Len())
	if l.seen >= l.n.N {
		if err := l.closeChild(ctx); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (l *limitOp) Close(ctx *Ctx) error { return l.closeChild(ctx) }
