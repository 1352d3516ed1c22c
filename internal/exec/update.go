package exec

import (
	"errors"
	"fmt"
	"sort"

	"partopt/internal/expr"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// updateOp applies SET clauses to target rows identified by the RowID
// pseudo-column in its input. All updates are collected first and applied
// at end-of-input: cross-partition moves use swap-deletes that invalidate
// higher heap indexes, so pending updates are applied per heap in
// descending index order to keep every collected RowID valid.
type updateOp struct {
	n     *plan.Update
	child Operator

	count   int64
	emitted bool
}

type pendingUpdate struct {
	id  storage.RowID
	row types.Row
}

func (u *updateOp) Open(ctx *Ctx) error {
	if ctx.Seg == CoordinatorSeg {
		return fmt.Errorf("exec: Update of %s cannot run on the coordinator", u.n.Table.Name)
	}
	u.count, u.emitted = 0, false
	layout := u.n.Child.Layout()
	ridCol := expr.ColID{Rel: u.n.Rel, Ord: plan.RowIDOrd}
	ridPos, ok := layout[ridCol]
	if !ok {
		return fmt.Errorf("exec: Update input lacks the RowID column of relation %d", u.n.Rel)
	}
	colPos := make([]int, len(u.n.Table.Cols))
	for i := range u.n.Table.Cols {
		pos, ok := layout[expr.ColID{Rel: u.n.Rel, Ord: i}]
		if !ok {
			return fmt.Errorf("exec: Update input lacks target column %q", u.n.Table.Cols[i].Name)
		}
		colPos[i] = pos
	}

	if err := u.child.Open(ctx); err != nil {
		return err
	}
	var pending []pendingUpdate
	seen := map[storage.RowID]bool{}
	env := expr.Env{Layout: layout, Params: ctx.Params.Vals}
	for {
		b, err := u.child.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			u.child.Close(ctx) // release the child's state before failing
			return err
		}
		if err := ctx.pollAbortBatch(); err != nil {
			u.child.Close(ctx)
			return err
		}
		for _, row := range b.rows(ctx) {
			id := DecodeRowID(row[ridPos])
			if seen[id] {
				continue // each target row updated at most once
			}
			seen[id] = true
			newRow := make(types.Row, len(u.n.Table.Cols))
			for i, pos := range colPos {
				newRow[i] = row[pos]
			}
			env.Row = row
			for _, set := range u.n.Sets {
				v, err := expr.Eval(set.Value, &env)
				if err != nil {
					u.child.Close(ctx)
					return err
				}
				newRow[set.Ord] = v
			}
			pending = append(pending, pendingUpdate{id: id, row: newRow})
		}
	}
	if err := u.child.Close(ctx); err != nil {
		return err
	}

	// Apply in descending heap-index order within each (seg, leaf).
	sort.Slice(pending, func(i, j int) bool {
		a, b := pending[i].id, pending[j].id
		if a.Seg != b.Seg {
			return a.Seg < b.Seg
		}
		if a.Leaf != b.Leaf {
			return a.Leaf < b.Leaf
		}
		return a.Idx > b.Idx
	})
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

func (u *updateOp) NextBatch(*Ctx) (*Batch, error) { return countBatch(&u.emitted, u.count) }

// countBatch emits a DML operator's result — one row holding the affected
// row count — as a one-row batch on the first call, and errEOF after.
func countBatch(emitted *bool, count int64) (*Batch, error) {
	if *emitted {
		return nil, errEOF
	}
	*emitted = true
	b := &Batch{}
	b.setRows([]types.Row{{types.NewInt(count)}})
	return b, nil
}

func (u *updateOp) Close(*Ctx) error { return nil }

// deleteOp removes the rows its child identifies via the RowID column.
// Like updateOp it collects first and applies per heap in descending index
// order, because swap-deletes invalidate higher indexes.
type deleteOp struct {
	n     *plan.Delete
	child Operator

	count   int64
	emitted bool
}

func (d *deleteOp) Open(ctx *Ctx) error {
	if ctx.Seg == CoordinatorSeg {
		return fmt.Errorf("exec: Delete of %s cannot run on the coordinator", d.n.Table.Name)
	}
	d.count, d.emitted = 0, false
	layout := d.n.Child.Layout()
	ridPos, ok := layout[expr.ColID{Rel: d.n.Rel, Ord: plan.RowIDOrd}]
	if !ok {
		return fmt.Errorf("exec: Delete input lacks the RowID column of relation %d", d.n.Rel)
	}
	if err := d.child.Open(ctx); err != nil {
		return err
	}
	var ids []storage.RowID
	seen := map[storage.RowID]bool{}
	for {
		b, err := d.child.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			d.child.Close(ctx) // release the child's state before failing
			return err
		}
		if err := ctx.pollAbortBatch(); err != nil {
			d.child.Close(ctx)
			return err
		}
		for _, row := range b.rows(ctx) {
			id := DecodeRowID(row[ridPos])
			if seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if err := d.child.Close(ctx); err != nil {
		return err
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.Seg != b.Seg {
			return a.Seg < b.Seg
		}
		if a.Leaf != b.Leaf {
			return a.Leaf < b.Leaf
		}
		return a.Idx > b.Idx
	})
	for _, id := range ids {
		if err := ctx.Rt.Store.DeleteRow(d.n.Table, id); err != nil {
			return ctx.noteSegFailure(err)
		}
		d.count++
	}
	return nil
}

func (d *deleteOp) NextBatch(*Ctx) (*Batch, error) { return countBatch(&d.emitted, d.count) }

func (d *deleteOp) Close(*Ctx) error { return nil }
