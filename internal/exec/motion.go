package exec

import (
	"errors"
	"fmt"
	"sync"

	"partopt/internal/expr"
	"partopt/internal/fault"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// Motions are slice boundaries. Each Motion in a plan gets one exchange: a
// set of per-receiver channels that all sender instances write into. The
// sending side is driven by the child slice's goroutines (one per segment);
// the receiving side appears as a motionRecvOp leaf in the parent slice.
//
// Rows cross the exchange in chunks of up to motionChunkRows, not one at a
// time: each sender stages rows per receiver and flushes a staged buffer
// when it fills or at EOF. Fault points, memory accounting, and row-moved
// stats all fire once per chunk. Ownership of a flushed chunk passes to the
// receiver — the sender allocates a fresh staging buffer for the next chunk.

const (
	motionChunkRows    = 64 // max rows per chunk shipped through a channel
	motionBufferChunks = 8  // per-receiver channel buffer, in chunks
)

// motionChunk is one shipped chunk plus its memory footprint, computed
// once at flush time so the receiving side releases exactly what the
// sender accounted without re-walking the rows.
type motionChunk struct {
	rows  []types.Row
	bytes int64
}

// exchange wires the sender instances of one Motion to its receivers.
type exchange struct {
	kind     plan.MotionKind
	hashKeys []expr.Expr
	layout   expr.Layout // child row layout (for hashing)
	fromSeg  int         // -1: all segments send; ≥0: only that segment

	recvSegs []int                    // receiver pseudo-segments
	chans    map[int]chan motionChunk // receiver seg → fan-in channel of chunks
	senders  sync.WaitGroup
	closed   sync.Once
}

func newExchange(m *plan.Motion, recvSegs []int, senderCount int) *exchange {
	ex := &exchange{
		kind:     m.Kind,
		hashKeys: m.HashKeys,
		layout:   m.Child.Layout(),
		fromSeg:  m.FromSegment,
		recvSegs: recvSegs,
		chans:    map[int]chan motionChunk{},
	}
	for _, seg := range recvSegs {
		ex.chans[seg] = make(chan motionChunk, motionBufferChunks)
	}
	ex.senders.Add(senderCount)
	go func() {
		ex.senders.Wait()
		ex.closeAll()
	}()
	return ex
}

func (ex *exchange) closeAll() {
	ex.closed.Do(func() {
		for _, ch := range ex.chans {
			close(ch)
		}
	})
}

// senderDone signals this sender instance finished (EOF or error); when all
// senders are done the receiver channels close.
func (ex *exchange) senderDone() { ex.senders.Done() }

var errQueryAborted = errors.New("exec: query aborted")

// motionSender is one slice instance's sending half of an exchange. It owns
// per-receiver staging buffers and, for a Redistribute, the hash keys' reused
// lanes, so routing a row allocates nothing until a chunk flushes.
type motionSender struct {
	ex      *exchange
	staging [][]types.Row // parallel to ex.recvSegs; nil after a flush
	keys    *keyLanes     // Redistribute hash keys
}

func (ex *exchange) newSender(ctx *Ctx) *motionSender {
	s := &motionSender{ex: ex, staging: make([][]types.Row, len(ex.recvSegs))}
	if ex.kind == plan.RedistributeMotion {
		s.keys = newKeyLanes(ex.hashKeys, ex.layout, ctx.Params.Vals)
	}
	return s
}

// sendBatch routes every row of one batch into the staging buffers, flushing
// any buffer that fills. Rows are staged by reference: batch rows are stable
// per the batch ownership contract, so no copy is needed. A Redistribute
// hashes the batch's key lanes; NULL key values mix into the hash like any
// other value.
func (s *motionSender) sendBatch(ctx *Ctx, b *Batch) error {
	rows := b.rows(ctx)
	switch s.ex.kind {
	case plan.GatherMotion:
		return s.stageRows(ctx, 0, rows)
	case plan.BroadcastMotion:
		for i := range s.ex.recvSegs {
			if err := s.stageRows(ctx, i, rows); err != nil {
				return err
			}
		}
		return nil
	case plan.RedistributeMotion:
		if err := s.keys.load(b); err != nil {
			return err
		}
		h, _ := s.keys.hash(true)
		for k := range rows {
			i := int(h[k] % uint64(len(s.ex.recvSegs)))
			if err := s.stageRows(ctx, i, rows[k:k+1]); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("exec: unknown motion kind %d", s.ex.kind)
}

// stageRows stages a run of rows for receiver i: fill its buffer to
// motionChunkRows, flush, repeat. Gather and broadcast stage a whole batch
// at once, Redistribute one row at a time.
func (s *motionSender) stageRows(ctx *Ctx, i int, rows []types.Row) error {
	for len(rows) > 0 {
		if s.staging[i] == nil {
			s.staging[i] = make([]types.Row, 0, motionChunkRows)
		}
		take := motionChunkRows - len(s.staging[i])
		if take > len(rows) {
			take = len(rows)
		}
		s.staging[i] = append(s.staging[i], rows[:take]...)
		rows = rows[take:]
		if len(s.staging[i]) >= motionChunkRows {
			if err := s.flush(ctx, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush ships receiver i's staged chunk. Ownership passes to the receiver:
// the staging slot is cleared so the next stage call allocates fresh.
//
// Chunks sitting in fan-in channels are query memory like any other: they
// are accounted against the budget while buffered (released by the
// receiver) so a wide redistribute can't hide queued rows from the
// governor. Accounting never denies — the channel buffer bounds it.
func (s *motionSender) flush(ctx *Ctx, i int) error {
	rows := s.staging[i]
	if len(rows) == 0 {
		return nil
	}
	s.staging[i] = nil
	if err := ctx.hitFault(fault.MotionSend); err != nil {
		return err
	}
	chunk := motionChunk{rows: rows, bytes: ctx.accountChunk(rows)}
	select {
	case s.ex.chans[s.ex.recvSegs[i]] <- chunk:
		ctx.noteRowsMoved(int64(len(rows)))
		return nil
	case <-ctx.done:
		ctx.releaseChunkBytes(chunk.bytes)
		return errQueryAborted
	}
}

// flushAll ships every non-empty staged chunk. Called on clean EOF only —
// after an error the staged rows are simply dropped with the query.
func (s *motionSender) flushAll(ctx *Ctx) error {
	for i := range s.staging {
		if err := s.flush(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// motionRecvOp is the receiving half of a Motion: a leaf operator in the
// parent slice that drains this instance's fan-in channel chunk by chunk.
type motionRecvOp struct {
	ex    *exchange
	batch Batch // reused header for NextBatch
}

func (r *motionRecvOp) Open(ctx *Ctx) error {
	if _, ok := r.ex.chans[ctx.Seg]; !ok {
		return fmt.Errorf("exec: motion has no channel for segment %d", ctx.Seg)
	}
	return nil
}

// recvChunk blocks for the next chunk, releasing its budget charge on
// arrival (the rows now belong to this slice's operators). The charge is
// the figure the sender computed at flush time, carried with the chunk.
func (r *motionRecvOp) recvChunk(ctx *Ctx) ([]types.Row, error) {
	select {
	case chunk, ok := <-r.ex.chans[ctx.Seg]:
		if !ok {
			return nil, errEOF
		}
		ctx.releaseChunkBytes(chunk.bytes)
		return chunk.rows, nil
	case <-ctx.done:
		return nil, errQueryAborted
	}
}

func (r *motionRecvOp) NextBatch(ctx *Ctx) (*Batch, error) {
	chunk, err := r.recvChunk(ctx)
	if err != nil {
		return nil, err
	}
	r.batch.setRows(chunk)
	return &r.batch, nil
}

func (r *motionRecvOp) Close(*Ctx) error { return nil }
