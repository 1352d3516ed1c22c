package exec

import (
	"errors"

	"partopt/internal/catalog"
	"partopt/internal/fault"
	"partopt/internal/part"
	"partopt/internal/storage"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// The executor's segment-dispatched read path. Every storage read a slice
// instance performs — scan open, dynamic-scan leaf load, index lookup —
// goes through these helpers, which (1) address the replica the attempt's
// primary-map snapshot names for the segment, (2) pass the seg.exec fault
// point so chaos schedules can kill a segment mid-query, and (3) turn
// segment-death failures into evidence for the fault tolerance service.
//
// The FTS decides on the spot whether the cluster failed over past the
// dead replica; its verdict becomes SegmentFailureError.Recovered, which
// is what makes the error retryable — the coordinator's retry loop then
// re-snapshots the primary map and the next attempt reads the mirrors.

// scanLeafCols reads one (segment × leaf) heap through this instance's
// replica: lane view snapshots of the leaf's columns, so the scan can emit
// zero-copy column windows, and the set's cached row view. Both
// snapshots are stable against concurrent writers (storage copies lanes on
// the next write rather than mutating what it handed out).
func (c *Ctx) scanLeafCols(root part.OID, leaf part.OID) ([]vec.View, []types.Row, error) {
	if err := c.hitFault(fault.SegExec); err != nil {
		return nil, nil, c.noteSegFailure(err)
	}
	cols, rows, err := c.Rt.Store.ScanLeafColsAt(root, c.Seg, c.replica(), leaf)
	if err != nil {
		return nil, nil, c.noteSegFailure(err)
	}
	return cols, rows, nil
}

// scanLeafLanes is scanLeafCols without the row view: the lane snapshot
// and the leaf's row count. RowID-bearing scans read this way, so a DML
// target scan neither rebuilds nor reads the heap's row arena.
func (c *Ctx) scanLeafLanes(root part.OID, leaf part.OID) ([]vec.View, int, error) {
	if err := c.hitFault(fault.SegExec); err != nil {
		return nil, 0, c.noteSegFailure(err)
	}
	cols, n, err := c.Rt.Store.ScanLeafLanesAt(root, c.Seg, c.replica(), leaf)
	if err != nil {
		return nil, 0, c.noteSegFailure(err)
	}
	return cols, n, nil
}

// indexLookup is scanLeafCols for secondary-index reads.
func (c *Ctx) indexLookup(t *catalog.Table, indexName string, leaf part.OID, set types.IntervalSet) ([]types.Row, []storage.RowID, error) {
	if err := c.hitFault(fault.SegExec); err != nil {
		return nil, nil, c.noteSegFailure(err)
	}
	rows, ids, err := c.Rt.Store.IndexLookupAt(t, indexName, c.Seg, c.replica(), leaf, set)
	if err != nil {
		return nil, nil, c.noteSegFailure(err)
	}
	return rows, ids, nil
}

// noteSegFailure classifies a read-path error. Failures that look like
// segment death — an injected seg.exec fault, or the storage layer refusing
// a dead replica — are reported to the FTS as evidence and wrapped in a
// SegmentFailureError carrying the FTS verdict; everything else (a missing
// index, an out-of-range leaf) passes through untouched.
func (c *Ctx) noteSegFailure(err error) error {
	if err == nil || c.Seg == CoordinatorSeg {
		return err
	}
	var fe *fault.Error
	var dead *storage.DeadSegmentError
	isFault := errors.As(err, &fe) && fe.Point == fault.SegExec
	if !isFault && !errors.As(err, &dead) {
		return err
	}
	rep := c.replica()
	recovered := false
	if c.Rt.FTS != nil {
		recovered = c.Rt.FTS.ReportFailure(c.goCtx, c.Seg, rep, err)
	}
	return &SegmentFailureError{Seg: c.Seg, Replica: rep, Recovered: recovered, Cause: err}
}
