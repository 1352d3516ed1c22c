package exec

import (
	"fmt"

	"partopt/internal/expr"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// indexScanOp reads one heap through a secondary index: the predicate's
// interval set is derived at Open (so prepared-statement parameters bind
// correctly), then looked up with binary search per selected heap.
type indexScanOp struct {
	n    *plan.IndexScan
	rows []types.Row
	ids  []storage.RowID
	pos  int

	batch Batch
	idBuf []types.Row
}

// deriveIndexSet turns the scan predicate into the indexed column's
// interval set.
func deriveIndexSet(ctx *Ctx, rel, colOrd int, pred expr.Expr) types.IntervalSet {
	key := expr.ColID{Rel: rel, Ord: colOrd}
	return expr.DeriveIntervals(pred, key, expr.ConstEval(ctx.Params.Vals))
}

func (s *indexScanOp) Open(ctx *Ctx) error {
	if ctx.Seg == CoordinatorSeg {
		return fmt.Errorf("exec: IndexScan of %s cannot run on the coordinator", s.n.Table.Name)
	}
	set := deriveIndexSet(ctx, s.n.Rel, s.n.Index.ColOrd, s.n.Pred)
	rows, ids, err := ctx.indexLookup(s.n.Table, s.n.Index.Name, s.n.Leaf, set)
	if err != nil {
		return err
	}
	s.rows, s.ids, s.pos = rows, ids, 0
	ctx.notePartScanned(s.n.Table.Name, s.n.Leaf)
	ctx.noteRowsScanned(int64(len(rows)))
	return nil
}

func (s *indexScanOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.rows) {
		return nil, errEOF
	}
	end := s.pos + execBatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	out := s.rows[s.pos:end]
	if s.n.WithRowID {
		s.idBuf = withRowIDs(out, s.ids[s.pos:end], 0, 0, 0, s.idBuf)
		out = s.idBuf
	}
	s.pos = end
	s.batch.Rows = out
	return &s.batch, nil
}

func (s *indexScanOp) Close(*Ctx) error { s.rows = nil; return nil }

// dynIndexScanOp is the partitioned variant: partition selection chooses
// the leaves, the index narrows each leaf to the qualifying rows.
type dynIndexScanOp struct {
	n      *plan.DynamicIndexScan
	set    types.IntervalSet
	leaves []part.OID
	li     int
	rows   []types.Row
	ids    []storage.RowID
	pos    int

	batch Batch
	idBuf []types.Row
}

func (s *dynIndexScanOp) Open(ctx *Ctx) error {
	if ctx.Seg == CoordinatorSeg {
		return fmt.Errorf("exec: DynamicIndexScan of %s cannot run on the coordinator", s.n.Table.Name)
	}
	leaves, err := ctx.selectedOIDs(s.n.PartScanID)
	if err != nil {
		return err
	}
	s.leaves, s.li = leaves, 0
	s.rows, s.pos = nil, 0
	s.set = deriveIndexSet(ctx, s.n.Rel, s.n.Index.ColOrd, s.n.Pred)
	for _, leaf := range leaves {
		ctx.notePartScanned(s.n.Table.Name, leaf)
	}
	if f := ctx.curFrame(); f != nil && s.n.Table.Part != nil {
		f.partsTotal = s.n.Table.Part.NumLeaves()
	}
	return nil
}

func (s *dynIndexScanOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	for s.pos >= len(s.rows) {
		if s.li >= len(s.leaves) {
			return nil, errEOF
		}
		leaf := s.leaves[s.li]
		s.li++
		rows, ids, err := ctx.indexLookup(s.n.Table, s.n.Index.Name, leaf, s.set)
		if err != nil {
			return nil, err
		}
		ctx.noteRowsScanned(int64(len(rows)))
		s.rows, s.ids, s.pos = rows, ids, 0
	}
	end := s.pos + execBatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	out := s.rows[s.pos:end]
	if s.n.WithRowID {
		s.idBuf = withRowIDs(out, s.ids[s.pos:end], 0, 0, 0, s.idBuf)
		out = s.idBuf
	}
	s.pos = end
	s.batch.Rows = out
	return &s.batch, nil
}

func (s *dynIndexScanOp) Close(*Ctx) error { s.rows, s.leaves = nil, nil; return nil }
