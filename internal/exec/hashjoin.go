package exec

import (
	"errors"
	"fmt"
	"io"

	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// spillFanout is the number of disk partitions a spilling hash operator
// fans its input into. With the budget-denial threshold at W bytes, one
// spill pass handles inputs up to roughly W × spillFanout; inputs beyond
// that still complete because partition loads use hard reservations.
const spillFanout = 8

// ---------------------------------------------------------------- hash join

// hashJoinOp drains the build child (child 0 — the "outer" in the paper's
// execution-order sense) into a hash table, then streams the probe child.
// Inner joins emit buildRow ++ probeRow; semi joins emit each probe row at
// most once.
//
// Outer joins NULL-extend the non-preserved side. RightOuterJoin (probe
// preserved) emits every probe row: a probe row with no surviving match —
// including one with a NULL join key — is emitted immediately with NULLs
// in the build columns. LeftOuterJoin (build preserved) tracks a matched
// flag per resident build row; once the probe side (or, when spilled, one
// probe partition) drains, build rows never matched by a residual-passing
// probe row are emitted with NULLs in the probe columns. NULL-keyed rows
// of a preserved side are therefore kept (they can never match but must
// still be emitted), while NULL-keyed rows of a null-producing side are
// dropped at ingest exactly like the inner-join path.
//
// The build table charges the query budget row by row. When a reservation
// is denied the operator switches to a Grace-style spill: the rows hashed
// so far, and everything after them, land in spillFanout disk partitions by
// build-key hash; the probe side is then partitioned the same way and the
// join proceeds partition-at-a-time, loading one build partition (a hard
// reservation — the algorithm's irreducible working set) and streaming the
// matching probe partition through it. Key hashes agree across sides, so a
// probe row can only match rows in its own partition.
type hashJoinOp struct {
	n     *plan.HashJoin
	build Operator
	probe Operator

	buildLayout expr.Layout
	probeLayout expr.Layout
	outLayout   expr.Layout

	table      map[uint64][]types.Row // hash(build keys) → build rows
	tableBytes int64                  // bytes reserved for the resident table

	spilled    bool
	buildParts []*mem.SpillWriter
	probeParts []*mem.SpillWriter
	part       int              // next partition to load
	partReader *mem.SpillReader // probe rows of the loaded partition

	buildOpen bool
	probeOpen bool

	// Streaming state: pending matches for the current probe row.
	curProbe types.Row
	matches  []types.Row
	mi       int

	// Outer-join state. matched parallels table bucket-for-bucket for
	// LeftOuterJoin; matchIdx parallels matches with the bucket index of
	// each candidate so a residual-passing emit can set its flag. curHash
	// is the current probe row's bucket. curEmitted tracks whether the
	// current probe row produced at least one output (RightOuterJoin).
	// outerPending holds materialized NULL-extended build rows awaiting
	// emission; nullBuild/nullProbe are the reusable all-NULL pads.
	matched        map[uint64][]bool
	matchIdx       []int
	curHash        uint64
	curEmitted     bool
	outerPending   []types.Row
	outerCollected bool
	nullBuild      types.Row
	nullProbe      types.Row

	// Probe-side cursor over the probe child's batches; the envs are
	// instance-owned so key hashing and residual evaluation do not allocate
	// per row.
	probeCur batchCursor
	benv     expr.Env // build-layout env (hashing, key equality)
	penv     expr.Env // probe-layout env
	resEnv   expr.Env // concat-layout env (residual predicate)
	out      Batch    // reused output header for NextBatch

	// Columnar key hashing (nil: keys are not plain columns). Join
	// semantics: a NULL key yields (0, true), so mixNulls is false.
	vhBuild *vecHasher
	vhProbe *vecHasher
}

func (j *hashJoinOp) Open(ctx *Ctx) (err error) {
	j.buildLayout = j.n.Build.Layout()
	j.probeLayout = j.n.Probe.Layout()
	j.outLayout = j.n.Layout()
	j.benv = expr.Env{Layout: j.buildLayout, Params: ctx.Params.Vals}
	j.penv = expr.Env{Layout: j.probeLayout, Params: ctx.Params.Vals}
	j.resEnv = expr.Env{Layout: j.outer(), Params: ctx.Params.Vals}
	j.vhBuild = newVecHasher(j.n.BuildKeys, j.buildLayout, false)
	j.vhProbe = newVecHasher(j.n.ProbeKeys, j.probeLayout, false)
	j.table = map[uint64][]types.Row{}
	j.tableBytes = 0
	j.spilled = false
	j.buildParts, j.probeParts = nil, nil
	j.part, j.partReader = 0, nil
	j.curProbe, j.matches, j.mi = nil, nil, 0
	j.probeCur = batchCursor{}
	j.matched, j.matchIdx = nil, nil
	j.curHash, j.curEmitted = 0, false
	j.outerPending, j.outerCollected = nil, false
	j.nullBuild = nullRow(len(j.buildLayout))
	j.nullProbe = nullRow(len(j.probeLayout))
	if j.n.Type == plan.LeftOuterJoin {
		j.matched = map[uint64][]bool{}
	}
	// A failed Open tears the operator down itself: the executor only
	// closes operators whose Open succeeded, and an abort must not leak the
	// hash table, spill files, or running children.
	defer func() {
		if err != nil {
			j.abort(ctx)
		}
	}()

	if err := j.build.Open(ctx); err != nil {
		return err
	}
	j.buildOpen = true
	for {
		b, err := j.build.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := ctx.pollAbortBatch(); err != nil {
			return err
		}
		bh, bnull, bok := j.vhBuild.hashBatch(b)
		for k, row := range b.Rows {
			var h uint64
			var null bool
			if bok {
				h, null = bh[k], bnull[k]
			} else {
				var err error
				h, null, err = hashRowKeys(&j.benv, j.n.BuildKeys, row, false)
				if err != nil {
					return err
				}
			}
			if null && j.n.Type != plan.LeftOuterJoin {
				continue // NULL keys never join
			}
			// A NULL-keyed row of a preserved build side is kept (h is 0):
			// it can never match, but LeftOuterJoin must still emit it.
			if !j.spilled {
				rb := mem.RowBytes(row)
				if ctx.reserve(rb) == nil {
					j.tableBytes += rb
					j.table[h] = append(j.table[h], row)
					if j.matched != nil {
						j.matched[h] = append(j.matched[h], false)
					}
					continue
				}
				if err := j.spillResidentTable(ctx); err != nil {
					return err
				}
			}
			if err := j.buildParts[int(h%spillFanout)].Write(row); err != nil {
				return err
			}
		}
	}
	if err := j.build.Close(ctx); err != nil {
		j.buildOpen = false
		return err
	}
	j.buildOpen = false

	if err := j.probe.Open(ctx); err != nil {
		return err
	}
	j.probeOpen = true
	if !j.spilled {
		return nil // stream the probe side directly in NextBatch
	}
	// Spilled: partition the probe side the same way, then join
	// partition-at-a-time in NextBatch.
	for {
		b, err := j.probe.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := ctx.pollAbortBatch(); err != nil {
			return err
		}
		ph, pnull, pok := j.vhProbe.hashBatch(b)
		for k, row := range b.Rows {
			var h uint64
			var null bool
			if pok {
				h, null = ph[k], pnull[k]
			} else {
				var err error
				h, null, err = hashRowKeys(&j.penv, j.n.ProbeKeys, row, false)
				if err != nil {
					return err
				}
			}
			if null && j.n.Type != plan.RightOuterJoin {
				continue // NULL keys never join
			}
			// A NULL-keyed preserved probe row rides partition 0 (h is 0);
			// it matches nothing there and is emitted NULL-extended.
			if err := j.probeParts[int(h%spillFanout)].Write(row); err != nil {
				return err
			}
		}
	}
	if err := j.probe.Close(ctx); err != nil {
		j.probeOpen = false
		return err
	}
	j.probeOpen = false
	var bytes, parts int64
	for i := 0; i < spillFanout; i++ {
		bytes += j.buildParts[i].Bytes() + j.probeParts[i].Bytes()
		if j.buildParts[i].Rows() > 0 || j.probeParts[i].Rows() > 0 {
			parts++
		}
	}
	ctx.noteSpill(bytes, parts)
	return nil
}

// spillResidentTable switches to Grace mode: the rows hashed so far move to
// their disk partitions and their reservation is returned.
func (j *hashJoinOp) spillResidentTable(ctx *Ctx) error {
	bp, err := newSpillParts(ctx, "join-build")
	if err != nil {
		return err
	}
	pp, err := newSpillParts(ctx, "join-probe")
	if err != nil {
		for _, w := range bp {
			w.Remove()
		}
		return err
	}
	j.buildParts, j.probeParts = bp, pp
	for h, rows := range j.table {
		w := j.buildParts[int(h%spillFanout)]
		for _, row := range rows {
			if err := w.Write(row); err != nil {
				return err
			}
		}
	}
	ctx.release(j.tableBytes)
	j.tableBytes = 0
	j.table = nil
	if j.matched != nil {
		j.matched = map[uint64][]bool{} // pre-probe: every flag was still false
	}
	j.spilled = true
	return nil
}

// newSpillParts opens one spill file per partition in the query's budget
// directory.
func newSpillParts(ctx *Ctx, name string) ([]*mem.SpillWriter, error) {
	parts := make([]*mem.SpillWriter, spillFanout)
	for i := range parts {
		w, err := ctx.Budget().NewSpillWriter(fmt.Sprintf("%s-p%d-*", name, i))
		if err != nil {
			for _, p := range parts {
				p.Remove()
			}
			return nil, err
		}
		parts[i] = w
	}
	return parts, nil
}

// loadPartition rebuilds the hash table from one build partition and opens
// the matching probe partition for streaming. The partition is the join's
// irreducible working set, so its rows use hard reservations: denial is a
// final out-of-memory error.
func (j *hashJoinOp) loadPartition(ctx *Ctx, p int) error {
	r, err := j.buildParts[p].Reader()
	if err != nil {
		return err
	}
	defer r.Close()
	j.table = map[uint64][]types.Row{}
	if j.matched != nil {
		j.matched = map[uint64][]bool{}
	}
	for {
		row, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		rb := mem.RowBytes(row)
		if err := ctx.reserveHard(rb); err != nil {
			return err
		}
		j.tableBytes += rb
		h, _, err := hashRowKeys(&j.benv, j.n.BuildKeys, row, false)
		if err != nil {
			return err
		}
		j.table[h] = append(j.table[h], row)
		if j.matched != nil {
			j.matched[h] = append(j.matched[h], false)
		}
	}
	pr, err := j.probeParts[p].Reader()
	if err != nil {
		return err
	}
	j.partReader = pr
	return nil
}

// finishPartition releases the loaded partition's table and deletes both
// spill files — partitions are reclaimed as the join advances, not at the
// end.
func (j *hashJoinOp) finishPartition(ctx *Ctx, p int) {
	if j.partReader != nil {
		j.partReader.Close()
		j.partReader = nil
	}
	j.buildParts[p].Remove()
	j.probeParts[p].Remove()
	ctx.release(j.tableBytes)
	j.tableBytes = 0
	j.table = nil
}

// nextProbe yields the next probe row: straight from the probe child when
// the build side fit in memory, or from the current probe partition —
// advancing (and reclaiming) partitions as they drain — when spilled.
func (j *hashJoinOp) nextProbe(ctx *Ctx) (types.Row, error) {
	if !j.spilled {
		row, err := j.probeCur.next(ctx, j.probe)
		if errors.Is(err, errEOF) && !j.outerCollected {
			j.outerCollected = true
			j.collectUnmatched()
		}
		return row, err
	}
	for {
		if err := ctx.pollAbort(); err != nil {
			return nil, err
		}
		if j.partReader == nil {
			if j.part >= spillFanout {
				return nil, errEOF
			}
			if err := j.loadPartition(ctx, j.part); err != nil {
				return nil, err
			}
		}
		row, err := j.partReader.Next()
		if err == io.EOF {
			// LeftOuterJoin: this partition's probe side has drained, so
			// its unmatched build rows are final — materialize them before
			// the partition's table is discarded.
			j.collectUnmatched()
			j.finishPartition(ctx, j.part)
			j.part++
			continue
		}
		return row, err
	}
}

// collectUnmatched materializes the NULL-extended output of every resident
// build row no probe row ever matched (LeftOuterJoin only; a no-op
// otherwise). The pending rows are full output copies, so they stay valid
// after the hash table is released.
func (j *hashJoinOp) collectUnmatched() {
	if j.n.Type != plan.LeftOuterJoin {
		return
	}
	for h, rows := range j.table {
		flags := j.matched[h]
		for i, b := range rows {
			if i < len(flags) && flags[i] {
				continue
			}
			j.outerPending = append(j.outerPending, j.concat(b, j.nullProbe))
		}
	}
}

// keysEqual verifies a hash match against actual key values.
func (j *hashJoinOp) keysEqual(buildRow, probeRow types.Row) (bool, error) {
	j.benv.Row, j.penv.Row = buildRow, probeRow
	for i := range j.n.BuildKeys {
		bv, err := expr.Eval(j.n.BuildKeys[i], &j.benv)
		if err != nil {
			return false, err
		}
		pv, err := expr.Eval(j.n.ProbeKeys[i], &j.penv)
		if err != nil {
			return false, err
		}
		if bv.IsNull() || pv.IsNull() || !types.Equal(bv, pv) {
			return false, nil
		}
	}
	return true, nil
}

func (j *hashJoinOp) concat(buildRow, probeRow types.Row) types.Row {
	out := make(types.Row, 0, len(buildRow)+len(probeRow))
	out = append(out, buildRow...)
	out = append(out, probeRow...)
	return out
}

func (j *hashJoinOp) residualOK(joined types.Row) (bool, error) {
	if j.n.Residual == nil {
		return true, nil
	}
	j.resEnv.Row = joined
	return expr.EvalPred(j.n.Residual, &j.resEnv)
}

// outer returns the layout of the concatenated build++probe row, which is
// what residual predicates see regardless of join type.
func (j *hashJoinOp) outer() expr.Layout {
	return expr.Concat(j.buildLayout, j.probeLayout)
}

// NextBatch accumulates joined rows into a reused output batch. Joined rows
// are freshly allocated (inner) or probe-row references (semi), so they are
// stable; only the header is reused.
func (j *hashJoinOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	return fillBatch(&j.out, func() (types.Row, error) { return j.nextRow(ctx) })
}

func (j *hashJoinOp) nextRow(ctx *Ctx) (types.Row, error) {
	for {
		// Emit pending matches of the current probe row.
		for j.mi < len(j.matches) {
			b := j.matches[j.mi]
			idx := -1
			if j.matchIdx != nil {
				idx = j.matchIdx[j.mi]
			}
			j.mi++
			joined := j.concat(b, j.curProbe)
			ok, err := j.residualOK(joined)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if j.n.Type == plan.SemiJoin {
				// One successful witness suffices; skip remaining matches.
				j.matches, j.mi = nil, 0
				return j.curProbe, nil
			}
			if j.matched != nil && idx >= 0 {
				j.matched[j.curHash][idx] = true
			}
			j.curEmitted = true
			return joined, nil
		}
		// A preserved probe row whose matches all failed (or that had none)
		// is NULL-extended exactly once.
		if j.n.Type == plan.RightOuterJoin && j.curProbe != nil && !j.curEmitted {
			row := j.concat(j.nullBuild, j.curProbe)
			j.curProbe = nil
			return row, nil
		}
		// Serve NULL-extended unmatched build rows (LeftOuterJoin), staged
		// by collectUnmatched at probe-EOF / partition boundaries.
		if n := len(j.outerPending); n > 0 {
			row := j.outerPending[n-1]
			j.outerPending[n-1] = nil
			j.outerPending = j.outerPending[:n-1]
			return row, nil
		}
		// Fetch the next probe row.
		probe, err := j.nextProbe(ctx)
		if err != nil {
			if errors.Is(err, errEOF) && len(j.outerPending) > 0 {
				continue // EOF staged the final unmatched build rows
			}
			return nil, err // includes EOF
		}
		h, null, err := hashRowKeys(&j.penv, j.n.ProbeKeys, probe, false)
		if err != nil {
			return nil, err
		}
		if null {
			if j.n.Type == plan.RightOuterJoin {
				return j.concat(j.nullBuild, probe), nil
			}
			continue
		}
		var matches []types.Row
		var idxs []int
		for i, b := range j.table[h] {
			eq, err := j.keysEqual(b, probe)
			if err != nil {
				return nil, err
			}
			if eq {
				matches = append(matches, b)
				if j.matched != nil {
					idxs = append(idxs, i)
				}
			}
		}
		j.curProbe, j.matches, j.mi = probe, matches, 0
		j.matchIdx, j.curHash, j.curEmitted = idxs, h, false
	}
}

// cleanup releases every resource the join holds — hash table reservation,
// spill files, the partition reader. Idempotent, so abort paths and normal
// Close can share it.
func (j *hashJoinOp) cleanup(ctx *Ctx) {
	if j.partReader != nil {
		j.partReader.Close()
		j.partReader = nil
	}
	for _, w := range j.buildParts {
		w.Remove()
	}
	for _, w := range j.probeParts {
		w.Remove()
	}
	j.buildParts, j.probeParts = nil, nil
	ctx.release(j.tableBytes)
	j.tableBytes = 0
	j.table = nil
	j.curProbe, j.matches = nil, nil
	j.matched, j.matchIdx, j.outerPending = nil, nil, nil
}

// nullRow returns a row of n NULL datums — the outer-join padding for the
// non-preserved side.
func nullRow(n int) types.Row {
	r := make(types.Row, n)
	for i := range r {
		r[i] = types.Null
	}
	return r
}

// abort is the failed-Open teardown: children that opened are closed (their
// errors are secondary to the one being returned) and resources released.
func (j *hashJoinOp) abort(ctx *Ctx) {
	if j.probeOpen {
		j.probe.Close(ctx)
		j.probeOpen = false
	}
	if j.buildOpen {
		j.build.Close(ctx)
		j.buildOpen = false
	}
	j.cleanup(ctx)
}

func (j *hashJoinOp) Close(ctx *Ctx) error {
	var firstErr error
	if j.probeOpen {
		firstErr = j.probe.Close(ctx)
		j.probeOpen = false
	}
	if j.buildOpen {
		if err := j.build.Close(ctx); firstErr == nil {
			firstErr = err
		}
		j.buildOpen = false
	}
	j.cleanup(ctx)
	return firstErr
}
