package exec

import (
	"fmt"

	"partopt/internal/expr"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// pwJoinOp executes a partition-wise join: the two tables' schemes are
// aligned (leaf i of the build table can only match leaf i of the probe
// table), so the join runs as a sequence of small per-pair hash joins.
// Each side honours its PartitionSelector's mailbox, so eliminated
// partitions skip their pair entirely; with no selector, all pairs run.
type pwJoinOp struct {
	n *plan.PartitionWiseJoin

	buildLayout, probeLayout expr.Layout

	pairs [][2]part.OID
	pi    int // next pair to load

	table map[uint64][]types.Row // build rows of the current pair

	probeRows []types.Row
	pos       int

	curProbe types.Row
	matches  []types.Row
	mi       int

	out Batch // reused output header for NextBatch
}

func (j *pwJoinOp) Open(ctx *Ctx) error {
	if ctx.Seg == CoordinatorSeg {
		return fmt.Errorf("exec: PartitionWiseJoin cannot run on the coordinator")
	}
	bDesc, pDesc := j.n.Build.Table.Part, j.n.Probe.Table.Part
	if !part.Aligned(bDesc, pDesc) {
		return fmt.Errorf("exec: partition-wise join over unaligned schemes (%s vs %s)",
			j.n.Build.Table.Name, j.n.Probe.Table.Name)
	}
	j.buildLayout = j.n.Build.Layout()
	j.probeLayout = j.n.Probe.Layout()

	bSel, err := j.selected(ctx, j.n.Build.PartScanID, bDesc)
	if err != nil {
		return err
	}
	pSel, err := j.selected(ctx, j.n.Probe.PartScanID, pDesc)
	if err != nil {
		return err
	}
	bLeaves, pLeaves := bDesc.Expansion(), pDesc.Expansion()
	j.pairs = j.pairs[:0]
	for i := range bLeaves {
		if bSel[bLeaves[i]] && pSel[pLeaves[i]] {
			j.pairs = append(j.pairs, [2]part.OID{bLeaves[i], pLeaves[i]})
		}
	}
	j.pi, j.table, j.probeRows, j.pos = 0, nil, nil, 0
	j.curProbe, j.matches, j.mi = nil, nil, 0

	// The side scans have no operator instances of their own (the pairwise
	// loop reads both heaps directly), so record their partition accounting
	// into the DynamicScan nodes' frames here: EXPLAIN ANALYZE then renders
	// "Partitions selected" on each side of the join.
	bf, pf := ctx.frameFor(j.n.Build), ctx.frameFor(j.n.Probe)
	bf.started, pf.started = true, true
	bf.partsTotal, pf.partsTotal = bDesc.NumLeaves(), pDesc.NumLeaves()
	for _, pair := range j.pairs {
		bf.notePart(pair[0])
		pf.notePart(pair[1])
	}
	return nil
}

// selected returns the leaf set a side may scan: the sealed mailbox of its
// selector, or every leaf when no selector ran for that id.
func (j *pwJoinOp) selected(ctx *Ctx, partScanID int, desc *part.Desc) (map[part.OID]bool, error) {
	out := map[part.OID]bool{}
	if oids, err := ctx.selectedOIDs(partScanID); err == nil {
		for _, oid := range oids {
			out[oid] = true
		}
		return out, nil
	}
	// No selector for this scan id: the optimizer resolved the spec with
	// no predicate; scan everything.
	for _, oid := range desc.Expansion() {
		out[oid] = true
	}
	return out, nil
}

// advancePair loads the next pair's build hash table and probe heap.
func (j *pwJoinOp) advancePair(ctx *Ctx) (bool, error) {
	for j.pi < len(j.pairs) {
		pair := j.pairs[j.pi]
		j.pi++
		buildRows, err := ctx.scanLeaf(j.n.Build.Table.OID, pair[0])
		if err != nil {
			return false, err
		}
		probeRows, err := ctx.scanLeaf(j.n.Probe.Table.OID, pair[1])
		if err != nil {
			return false, err
		}
		if ctx.Stats != nil {
			ctx.Stats.notePartScanned(j.n.Build.Table.Name, pair[0])
			ctx.Stats.notePartScanned(j.n.Probe.Table.Name, pair[1])
		}
		ctx.frameFor(j.n.Build).rowsRead += int64(len(buildRows))
		ctx.frameFor(j.n.Probe).rowsRead += int64(len(probeRows))
		ctx.noteRowsScanned(int64(len(buildRows) + len(probeRows)))
		if len(buildRows) == 0 || len(probeRows) == 0 {
			continue
		}
		j.table = map[uint64][]types.Row{}
		for _, row := range buildRows {
			h, null, err := keyHash(j.n.BuildKeys, j.buildLayout, row, ctx)
			if err != nil {
				return false, err
			}
			if null {
				continue
			}
			j.table[h] = append(j.table[h], row)
		}
		j.probeRows, j.pos = probeRows, 0
		return true, nil
	}
	return false, nil
}

func keyHash(keys []expr.Expr, layout expr.Layout, row types.Row, ctx *Ctx) (uint64, bool, error) {
	env := &expr.Env{Layout: layout, Row: row, Params: ctx.Params.Vals}
	h := types.HashSeed
	for _, k := range keys {
		v, err := expr.Eval(k, env)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, true, nil
		}
		h = types.HashDatum(h, v)
	}
	return h, false, nil
}

// NextBatch accumulates joined rows into a reused output batch. Joined rows
// are freshly allocated (inner) or heap-row references (semi), so they are
// stable; only the header is reused.
func (j *pwJoinOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	return fillBatch(&j.out, func() (types.Row, error) { return j.nextRow(ctx) })
}

func (j *pwJoinOp) nextRow(ctx *Ctx) (types.Row, error) {
	for {
		// Pending matches of the current probe row.
		for j.mi < len(j.matches) {
			b := j.matches[j.mi]
			j.mi++
			joined := make(types.Row, 0, len(b)+len(j.curProbe))
			joined = append(joined, b...)
			joined = append(joined, j.curProbe...)
			if j.n.Residual != nil {
				env := &expr.Env{Layout: expr.Concat(j.buildLayout, j.probeLayout), Row: joined, Params: ctx.Params.Vals}
				ok, err := expr.EvalPred(j.n.Residual, env)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if j.n.Type == plan.SemiJoin {
				j.matches, j.mi = nil, 0
				return j.curProbe, nil
			}
			return joined, nil
		}
		// Next probe row of the current pair, or the next pair.
		for j.pos >= len(j.probeRows) {
			ok, err := j.advancePair(ctx)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, errEOF
			}
		}
		probe := j.probeRows[j.pos]
		j.pos++
		h, null, err := keyHash(j.n.ProbeKeys, j.probeLayout, probe, ctx)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		var matches []types.Row
		for _, b := range j.table[h] {
			eq, err := j.pairKeysEqual(b, probe, ctx)
			if err != nil {
				return nil, err
			}
			if eq {
				matches = append(matches, b)
			}
		}
		j.curProbe, j.matches, j.mi = probe, matches, 0
	}
}

func (j *pwJoinOp) pairKeysEqual(buildRow, probeRow types.Row, ctx *Ctx) (bool, error) {
	benv := &expr.Env{Layout: j.buildLayout, Row: buildRow, Params: ctx.Params.Vals}
	penv := &expr.Env{Layout: j.probeLayout, Row: probeRow, Params: ctx.Params.Vals}
	for i := range j.n.BuildKeys {
		bv, err := expr.Eval(j.n.BuildKeys[i], benv)
		if err != nil {
			return false, err
		}
		pv, err := expr.Eval(j.n.ProbeKeys[i], penv)
		if err != nil {
			return false, err
		}
		if bv.IsNull() || pv.IsNull() || !types.Equal(bv, pv) {
			return false, nil
		}
	}
	return true, nil
}

func (j *pwJoinOp) Close(*Ctx) error {
	j.table, j.probeRows, j.pairs = nil, nil, nil
	return nil
}
