package exec

import (
	"errors"
	"fmt"

	"partopt/internal/part"
	"partopt/internal/plan"
)

// pwJoinOp executes a partition-wise join: the two tables' schemes are
// aligned (leaf i of the build table can only match leaf i of the probe
// table), so the join is the ordinary hash join run once per leaf pair.
// Each side honours its PartitionSelector's mailbox, so eliminated
// partitions skip their pair entirely; with no selector, all pairs run.
// Budget charges, spilling and the pair's release on close all come from
// hashJoinOp; the join's peak memory and spill land on this node's frame.
type pwJoinOp struct {
	n  *plan.PartitionWiseJoin
	hj *plan.HashJoin // the per-pair join over the node's two DynamicScans

	pairs [][2]part.OID // pairs not joined yet
	join  hashJoinOp    // the current pair's join
	open  bool          // join is open
}

func (j *pwJoinOp) Open(ctx *Ctx) error {
	if ctx.Seg == CoordinatorSeg {
		return fmt.Errorf("exec: PartitionWiseJoin cannot run on the coordinator")
	}
	n := j.n
	bDesc, pDesc := n.Build.Table.Part, n.Probe.Table.Part
	if !part.Aligned(bDesc, pDesc) {
		return fmt.Errorf("exec: partition-wise join over unaligned schemes (%s vs %s)",
			n.Build.Table.Name, n.Probe.Table.Name)
	}
	j.hj = plan.NewHashJoin(n.Type, n.BuildKeys, n.ProbeKeys, n.Residual, n.Build, n.Probe, n.Cond)

	bSel, pSel := selectedLeaves(ctx, n.Build), selectedLeaves(ctx, n.Probe)
	bLeaves, pLeaves := bDesc.Expansion(), pDesc.Expansion()
	j.pairs, j.open = nil, false
	for i := range bLeaves {
		if bSel[bLeaves[i]] && pSel[pLeaves[i]] {
			j.pairs = append(j.pairs, [2]part.OID{bLeaves[i], pLeaves[i]})
		}
	}

	// Record every pair's partitions on the DynamicScan nodes' frames up
	// front, so EXPLAIN ANALYZE renders "Partitions selected" on each side
	// of the join even when a parent stops pulling before the last pair.
	bf, pf := ctx.frameFor(n.Build), ctx.frameFor(n.Probe)
	bf.started, pf.started = true, true
	bf.partsTotal, pf.partsTotal = bDesc.NumLeaves(), pDesc.NumLeaves()
	for _, pair := range j.pairs {
		bf.notePart(pair[0])
		pf.notePart(pair[1])
	}
	return nil
}

// selectedLeaves returns the leaf set a side may scan: the sealed mailbox of
// its selector, or every leaf when no selector ran for that id (the
// optimizer resolved the spec with no predicate).
func selectedLeaves(ctx *Ctx, s *plan.DynamicScan) map[part.OID]bool {
	oids, err := ctx.selectedOIDs(s.PartScanID)
	if err != nil {
		oids = s.Table.Part.Expansion()
	}
	out := make(map[part.OID]bool, len(oids))
	for _, oid := range oids {
		out[oid] = true
	}
	return out
}

// pairSide reads one leaf of a join side. The reader runs under the side's
// DynamicScan node, so its rows read and rows out are charged to that side.
func pairSide(n *plan.DynamicScan, leaf part.OID) Operator {
	s := newLeafScan(n)
	s.dynamic, s.leaf = false, leaf
	return &statsOp{n: n, inner: s}
}

// NextBatch forwards the current pair's join output. When a pair's join
// drains it is closed — releasing its table and spill files — and the next
// pair's join opens.
func (j *pwJoinOp) NextBatch(ctx *Ctx) (*Batch, error) {
	for {
		if !j.open {
			if len(j.pairs) == 0 {
				return nil, errEOF
			}
			pair := j.pairs[0]
			j.pairs = j.pairs[1:]
			j.join.n = j.hj
			j.join.build = pairSide(j.n.Build, pair[0])
			j.join.probe = pairSide(j.n.Probe, pair[1])
			if err := j.join.Open(ctx); err != nil {
				return nil, err
			}
			j.open = true
		}
		b, err := j.join.NextBatch(ctx)
		if !errors.Is(err, errEOF) {
			return b, err
		}
		j.open = false
		if err := j.join.Close(ctx); err != nil {
			return nil, err
		}
	}
}

func (j *pwJoinOp) Close(ctx *Ctx) error {
	j.pairs = nil
	if !j.open {
		return nil
	}
	j.open = false
	return j.join.Close(ctx)
}
