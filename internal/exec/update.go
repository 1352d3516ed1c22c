package exec

import (
	"errors"
	"fmt"
	"slices"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// dmlOp is what updateOp and deleteOp share: the input that names their
// target rows by the RowID pseudo-column, the drain that reads it, and the
// affected-row count they emit. Both collect every target first and apply
// at end of input in storage.CompareApplyOrder, because a swap-delete
// invalidates the higher indexes of its heap.
type dmlOp struct {
	child Operator

	count   int64
	emitted bool
}

// drain checks that the operator runs on a segment and that its input
// layout carries relation rel's RowID, then opens the child, pulls its
// batches, polls abort once per batch and calls visit once per distinct
// target RowID (each target row is changed at most once) with the batch
// and slot that hold it. The child is closed on every exit. The RowID is
// read off the batch's RowID lane (a heap scan) or its row (an index read,
// which carries no lanes), so the drain itself builds no rows.
func (d *dmlOp) drain(ctx *Ctx, what string, t *catalog.Table, rel int, layout expr.Layout, visit func(id storage.RowID, b *Batch, k int) error) error {
	if ctx.Seg == CoordinatorSeg {
		return fmt.Errorf("exec: %s of %s cannot run on the coordinator", what, t.Name)
	}
	ridPos, ok := layout[expr.ColID{Rel: rel, Ord: plan.RowIDOrd}]
	if !ok {
		return fmt.Errorf("exec: %s input lacks the RowID column of relation %d", what, rel)
	}
	d.count, d.emitted = 0, false
	if err := d.child.Open(ctx); err != nil {
		return err
	}
	seen := map[storage.RowID]bool{}
	for {
		b, err := d.child.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			return d.child.Close(ctx)
		}
		if err == nil {
			err = ctx.pollAbortBatch()
		}
		for k := 0; err == nil && k < b.Len(); k++ {
			var rid types.Datum
			if b.Cols != nil {
				rid = b.Cols[ridPos].Datum(selRow(b.Sel, k))
			} else {
				rid = b.Rows[k][ridPos]
			}
			if id := DecodeRowID(rid); !seen[id] {
				seen[id] = true
				err = visit(id, b, k)
			}
		}
		if err != nil {
			d.child.Close(ctx) // release the child's state before failing
			return err
		}
	}
}

// NextBatch emits the affected-row count as a one-row batch on the first
// call, and errEOF after.
func (d *dmlOp) NextBatch(*Ctx) (*Batch, error) {
	if d.emitted {
		return nil, errEOF
	}
	d.emitted = true
	b := &Batch{}
	b.setRows([]types.Row{{types.NewInt(d.count)}})
	return b, nil
}

func (d *dmlOp) Close(*Ctx) error { return nil }

// updateOp applies SET clauses to its target rows. A target row is read
// with batchRow into one reused header; only the new row it computes is
// kept.
type updateOp struct {
	n *plan.Update
	dmlOp
}

type pendingUpdate struct {
	id  storage.RowID
	row types.Row
}

func (u *updateOp) Open(ctx *Ctx) error {
	layout := u.n.Child.Layout()
	colPos := make([]int, len(u.n.Table.Cols))
	for i, c := range u.n.Table.Cols {
		pos, ok := layout[expr.ColID{Rel: u.n.Rel, Ord: i}]
		if !ok {
			return fmt.Errorf("exec: Update input lacks target column %q", c.Name)
		}
		colPos[i] = pos
	}
	var pending []pendingUpdate
	var tmp types.Row
	env := expr.Env{Layout: layout, Params: ctx.Params.Vals}
	err := u.drain(ctx, "Update", u.n.Table, u.n.Rel, layout, func(id storage.RowID, b *Batch, k int) error {
		env.Row = batchRow(b, k, &tmp)
		newRow := make(types.Row, len(colPos))
		for i, pos := range colPos {
			newRow[i] = env.Row[pos]
		}
		for _, set := range u.n.Sets {
			v, err := expr.Eval(set.Value, &env)
			if err != nil {
				return err
			}
			newRow[set.Ord] = v
		}
		pending = append(pending, pendingUpdate{id: id, row: newRow})
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(pending, func(a, b pendingUpdate) int { return storage.CompareApplyOrder(a.id, b.id) })
	for _, p := range pending {
		if _, err := ctx.Rt.Store.UpdateRow(u.n.Table, p.id, p.row); err != nil {
			// A dead primary mid-DML still reports evidence (the FTS may fail
			// over for later queries) but the error stays non-retryable:
			// runWithRetry masks DML failures so they never look transient.
			return ctx.noteSegFailure(err)
		}
		u.count++
	}
	return nil
}

// deleteOp removes its target rows.
type deleteOp struct {
	n *plan.Delete
	dmlOp
}

func (d *deleteOp) Open(ctx *Ctx) error {
	var ids []storage.RowID
	err := d.drain(ctx, "Delete", d.n.Table, d.n.Rel, d.n.Child.Layout(), func(id storage.RowID, _ *Batch, _ int) error {
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(ids, storage.CompareApplyOrder)
	for _, id := range ids {
		if err := ctx.Rt.Store.DeleteRow(d.n.Table, id); err != nil {
			return ctx.noteSegFailure(err)
		}
		d.count++
	}
	return nil
}
