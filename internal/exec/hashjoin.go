package exec

import (
	"errors"
	"fmt"
	"io"

	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// spillFanout is the number of disk partitions a spilling hash operator
// fans its input into. With the budget-denial threshold at W bytes, one
// spill pass handles inputs up to roughly W × spillFanout; inputs beyond
// that still complete because partition loads use hard reservations.
const spillFanout = 8

// ---------------------------------------------------------------- hash join

// hashJoinOp drains the build child (child 0 — the "outer" in the paper's
// execution-order sense) into a hash table, then matches the probe child
// one batch at a time. Inner and outer joins emit buildRow ++ probeRow;
// semi joins emit each probe row at most once.
//
// One probe loop serves every join type and both the resident table and
// the spilled partitions. A probe batch is hashed once (vecHasher when the
// keys are plain columns and the batch has lanes), each candidate's keys
// are checked typed — the probe lane against the build datum — and the
// matches collect into reused position buffers: the probe slot and the
// build row of each output row. The output is then gathered column by
// column into reused lanes (vec.Lane), leaving Batch.Rows lazy, so an
// aggregate above the join folds the lanes without a joined row ever
// being built. Only the columns some ancestor reads are gathered (live,
// from deriveJoinMasks); the build table still holds full rows. A semi
// join forwards the probe batch itself, narrowed to the matched rows by
// Sel.
//
// Outer joins NULL-extend the non-preserved side. RightOuterJoin (probe
// preserved) emits every probe row: a probe row with no surviving match —
// including one with a NULL join key — is emitted with NULLs in the build
// columns. LeftOuterJoin (build preserved) tracks a matched flag per
// resident build row; once the probe side (or, when spilled, one probe
// partition) drains, build rows never matched by a residual-passing probe
// row are emitted with NULLs in the probe columns. NULL-keyed rows of a
// preserved side are therefore kept (they can never match but must still
// be emitted), while NULL-keyed rows of a null-producing side are dropped
// at ingest exactly like the inner-join path.
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
	bw, pw      int // build and probe row widths

	table      map[uint64][]types.Row // hash(build keys) → build rows
	tableBytes int64                  // bytes reserved for the resident table
	// matched parallels table bucket-for-bucket (LeftOuterJoin only): set
	// when a build row joins a probe row that passes the residual.
	matched map[uint64][]bool

	spilled    bool
	buildParts []*mem.SpillWriter
	probeParts []*mem.SpillWriter
	part       int              // next partition to load
	partReader *mem.SpillReader // probe rows of the loaded partition
	partBatch  Batch            // reused header for the partition's probe batches

	buildOpen bool
	probeOpen bool
	probeDone bool // the resident probe stream ended (its unmatched build rows are staged)

	// The probe batch being matched: its key hashes (a NULL key is flagged
	// in pnull), and the next row to match.
	pb       *Batch
	ph       []uint64
	pnull    []bool
	pk       int
	rowHash  []uint64 // ph/pnull storage when the batch is hashed row by row
	rowNull  []bool
	keyBuild []int // build-row position of each key; -1: computed
	keyProbe []int // probe-row position of each key; -1: computed

	// Matches awaiting emission, one entry per output row: the probe slot
	// (-1: NULL probe columns) and the build row (nil: NULL build columns,
	// or a semi join, which emits the probe row alone).
	pairK  []int32
	pairB  []types.Row
	pairAt int

	penv     expr.Env  // probe-layout env (row hashing, computed keys)
	benv     expr.Env  // build-layout env
	resEnv   expr.Env  // build ++ probe env (residual predicate)
	resRow   types.Row // scratch joined row the residual reads
	probeTmp types.Row // scratch probe row built from lanes

	// live marks the output positions some ancestor reads (see
	// deriveJoinMasks); nil: every position. emit gathers only these.
	live []bool

	// Output assembly, reused across batches.
	lanes []vec.Lane
	cols  []vec.View
	win   []int32     // window rows (Sel) of the slots being emitted
	rowsK []types.Row // probe rows of the slots being emitted
	out   Batch

	// Columnar key hashing (nil: keys are not plain columns). Join
	// semantics: a NULL key yields (0, true), so mixNulls is false.
	vhBuild *vecHasher
	vhProbe *vecHasher
}

func (j *hashJoinOp) Open(ctx *Ctx) (err error) {
	j.buildLayout = j.n.Build.Layout()
	j.probeLayout = j.n.Probe.Layout()
	j.bw, j.pw = j.buildLayout.Width(), j.probeLayout.Width()
	j.benv = expr.Env{Layout: j.buildLayout, Params: ctx.Params.Vals}
	j.penv = expr.Env{Layout: j.probeLayout, Params: ctx.Params.Vals}
	j.resEnv = expr.Env{Layout: expr.Concat(j.buildLayout, j.probeLayout), Params: ctx.Params.Vals}
	j.resRow = nil
	if j.n.Residual != nil {
		j.resRow = make(types.Row, j.bw+j.pw)
	}
	j.vhBuild = newVecHasher(j.n.BuildKeys, j.buildLayout, false)
	j.vhProbe = newVecHasher(j.n.ProbeKeys, j.probeLayout, false)
	j.keyBuild = make([]int, len(j.n.BuildKeys))
	j.keyProbe = make([]int, len(j.n.ProbeKeys))
	for i := range j.n.BuildKeys {
		j.keyBuild[i] = colPos(j.n.BuildKeys[i], j.buildLayout)
		j.keyProbe[i] = colPos(j.n.ProbeKeys[i], j.probeLayout)
	}
	j.table = map[uint64][]types.Row{}
	j.tableBytes = 0
	j.matched = nil
	if j.n.Type == plan.LeftOuterJoin {
		j.matched = map[uint64][]bool{}
	}
	j.spilled = false
	j.buildParts, j.probeParts = nil, nil
	j.part, j.partReader = 0, nil
	j.probeDone = false
	j.pb, j.pk = nil, 0
	j.pairK, j.pairB, j.pairAt = j.pairK[:0], j.pairB[:0], 0
	switch w := j.bw + j.pw; {
	case j.n.Type == plan.SemiJoin:
		j.lanes, j.cols = nil, nil // the probe batch itself
	case len(j.lanes) != w:
		j.lanes, j.cols = make([]vec.Lane, w), make([]vec.View, w)
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
		for k, row := range b.rows(ctx) {
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
		return nil // match the probe side's batches directly in NextBatch
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
		for k, row := range b.rows(ctx) {
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

// NextBatch runs the probe loop: it emits pending matches a batch at a
// time, matches the current probe batch until a batch of matches is
// pending, and pulls the next probe batch when this one is used up.
func (j *hashJoinOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	for {
		if j.pairAt < len(j.pairK) {
			return j.emit(), nil
		}
		if j.pb != nil && j.pk < j.pb.Len() {
			if err := j.match(); err != nil {
				return nil, err
			}
			continue
		}
		b, err := j.nextProbe(ctx)
		if err != nil {
			if errors.Is(err, errEOF) && j.pairAt < len(j.pairK) {
				continue // EOF staged the final unmatched build rows
			}
			return nil, err // includes EOF
		}
		if b != nil {
			if err := j.startProbe(b); err != nil {
				return nil, err
			}
		}
	}
}

// nextProbe yields the next probe batch: straight from the probe child when
// the build side fit in memory, or from the current probe partition —
// advancing (and reclaiming) partitions as they drain — when spilled. A nil
// batch without an error means a drained partition staged unmatched build
// rows for emission.
func (j *hashJoinOp) nextProbe(ctx *Ctx) (*Batch, error) {
	if !j.spilled {
		if j.probeDone {
			return nil, errEOF
		}
		b, err := j.probe.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			j.probeDone = true
			j.stageUnmatched()
		}
		return b, err
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
		b, err := fillBatch(&j.partBatch, j.partRow)
		if !errors.Is(err, errEOF) {
			return b, err
		}
		// LeftOuterJoin: this partition's probe side has drained, so its
		// unmatched build rows are final — stage them before the
		// partition's table is discarded.
		j.stageUnmatched()
		j.finishPartition(ctx, j.part)
		j.part++
		if j.pairAt < len(j.pairK) {
			return nil, nil
		}
	}
}

// partRow reads the loaded probe partition's next row.
func (j *hashJoinOp) partRow() (types.Row, error) {
	row, err := j.partReader.Next()
	if err == io.EOF {
		return nil, errEOF
	}
	return row, err
}

// stageUnmatched queues every resident build row no probe row matched for
// emission with NULL probe columns (LeftOuterJoin only; a no-op
// otherwise). The queue holds the rows themselves, so it stays valid after
// the hash table is released.
func (j *hashJoinOp) stageUnmatched() {
	j.pb = nil
	if j.n.Type != plan.LeftOuterJoin {
		return
	}
	for h, rows := range j.table {
		flags := j.matched[h]
		for i, b := range rows {
			if i < len(flags) && flags[i] {
				continue
			}
			j.pairK = append(j.pairK, -1)
			j.pairB = append(j.pairB, b)
		}
	}
}

// startProbe makes b the probe batch and hashes its keys: off the lanes
// when it has them, row by row otherwise.
func (j *hashJoinOp) startProbe(b *Batch) error {
	j.pb, j.pk = b, 0
	var ok bool
	if j.ph, j.pnull, ok = j.vhProbe.hashBatch(b); ok {
		return nil
	}
	n := b.Len()
	if cap(j.rowHash) < n {
		j.rowHash, j.rowNull = make([]uint64, n), make([]bool, n)
	}
	j.ph, j.pnull = j.rowHash[:n], j.rowNull[:n]
	for k := 0; k < n; k++ {
		h, null, err := hashRowKeys(&j.penv, j.n.ProbeKeys, j.probeRow(k), false)
		if err != nil {
			return err
		}
		j.ph[k], j.pnull[k] = h, null
	}
	return nil
}

// probeRow returns row k of the probe batch, built into a scratch row when
// the batch's rows are lazy. Only key and residual evaluation read it.
func (j *hashJoinOp) probeRow(k int) types.Row {
	b := j.pb
	if b.Rows != nil {
		return b.Rows[k]
	}
	if cap(j.probeTmp) < len(b.Cols) {
		j.probeTmp = make(types.Row, len(b.Cols))
	}
	row := j.probeTmp[:len(b.Cols)]
	i := selRow(b.Sel, k)
	for c := range b.Cols {
		row[c] = b.Cols[c].Datum(i)
	}
	return row
}

// match resolves probe rows, from j.pk on, into matches until a batch of
// them is pending or the probe batch is used up. A semi join takes each
// probe row's first surviving match.
func (j *hashJoinOp) match() error {
	n := j.pb.Len()
	keepProbe := j.n.Type == plan.RightOuterJoin
	for ; j.pk < n && len(j.pairK)-j.pairAt < execBatchSize; j.pk++ {
		k := j.pk
		if j.pnull[k] {
			if keepProbe {
				j.pairK, j.pairB = append(j.pairK, int32(k)), append(j.pairB, nil)
			}
			continue
		}
		h := j.ph[k]
		found, resFilled := false, false
		for i, brow := range j.table[h] {
			eq, err := j.keysEqual(brow, k)
			if err != nil {
				return err
			}
			if !eq {
				continue
			}
			if j.n.Residual != nil {
				copy(j.resRow, brow)
				if !resFilled {
					copy(j.resRow[j.bw:], j.probeRow(k))
					resFilled = true
				}
				j.resEnv.Row = j.resRow
				ok, err := expr.EvalPred(j.n.Residual, &j.resEnv)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			found = true
			if j.n.Type == plan.SemiJoin {
				j.pairK, j.pairB = append(j.pairK, int32(k)), append(j.pairB, nil)
				break // one witness suffices
			}
			j.pairK, j.pairB = append(j.pairK, int32(k)), append(j.pairB, brow)
			if j.matched != nil {
				j.matched[h][i] = true
			}
		}
		if !found && keepProbe {
			j.pairK, j.pairB = append(j.pairK, int32(k)), append(j.pairB, nil)
		}
	}
	return nil
}

// keysEqual verifies a hash match against actual key values: the build
// datum against the probe lane when the key is a plain column of a batch
// with lanes, against the evaluated probe key otherwise.
func (j *hashJoinOp) keysEqual(brow types.Row, k int) (bool, error) {
	for i := range j.n.BuildKeys {
		var bv types.Datum
		if p := j.keyBuild[i]; p >= 0 {
			bv = brow[p]
		} else {
			j.benv.Row = brow
			var err error
			if bv, err = expr.Eval(j.n.BuildKeys[i], &j.benv); err != nil {
				return false, err
			}
		}
		if bv.IsNull() {
			return false, nil
		}
		if p := j.keyProbe[i]; p >= 0 && j.pb.Cols != nil {
			if !j.pb.Cols[p].EqualDatum(selRow(j.pb.Sel, k), bv) {
				return false, nil
			}
			continue
		}
		var pv types.Datum
		if p := j.keyProbe[i]; p >= 0 {
			pv = j.probeRow(k)[p]
		} else {
			j.penv.Row = j.probeRow(k)
			var err error
			if pv, err = expr.Eval(j.n.ProbeKeys[i], &j.penv); err != nil {
				return false, err
			}
		}
		if pv.IsNull() || !types.Equal(bv, pv) {
			return false, nil
		}
	}
	return true, nil
}

// emit hands out up to a batch of pending matches: a semi join's as the
// narrowed probe batch, others gathered into the output lanes with Rows
// left lazy. Only the live positions are gathered; a dead one is a zero
// view, which reads as NULL.
func (j *hashJoinOp) emit() *Batch {
	end := min(j.pairAt+execBatchSize, len(j.pairK))
	ks, bs := j.pairK[j.pairAt:end], j.pairB[j.pairAt:end]
	j.pairAt = end
	if end == len(j.pairK) {
		// All handed out: the buffers refill from the start, which leaves
		// ks and bs intact until the next match.
		j.pairK, j.pairB, j.pairAt = j.pairK[:0], j.pairB[:0], 0
	}
	if j.n.Type == plan.SemiJoin {
		return j.narrow(ks)
	}
	j.out.reset()
	j.out.n = len(ks)
	for c := 0; c < j.bw; c++ {
		if j.isLive(c) {
			j.lanes[c].Reset()
			j.lanes[c].AppendColumn(bs, c)
		}
	}
	if pb := j.pb; pb != nil && pb.Cols != nil {
		j.win = j.win[:0]
		for _, k := range ks {
			if k >= 0 {
				k = int32(selRow(pb.Sel, int(k)))
			}
			j.win = append(j.win, k)
		}
		for c := 0; c < j.pw; c++ {
			if j.isLive(j.bw + c) {
				j.lanes[j.bw+c].Reset()
				j.lanes[j.bw+c].AppendView(&pb.Cols[c], j.win)
			}
		}
	} else {
		j.rowsK = j.rowsK[:0]
		for _, k := range ks {
			var row types.Row
			if k >= 0 {
				row = pb.Rows[k]
			}
			j.rowsK = append(j.rowsK, row)
		}
		for c := 0; c < j.pw; c++ {
			if j.isLive(j.bw + c) {
				j.lanes[j.bw+c].Reset()
				j.lanes[j.bw+c].AppendColumn(j.rowsK, c)
			}
		}
	}
	for c := range j.lanes {
		if j.isLive(c) {
			j.cols[c] = j.lanes[c].View()
		} else {
			j.cols[c] = vec.View{} // reads as NULL; nothing above reads it
		}
	}
	j.out.Rows, j.out.Cols = nil, j.cols
	return &j.out
}

// isLive reports whether output position c is gathered.
func (j *hashJoinOp) isLive(c int) bool { return j.live == nil || j.live[c] }

// narrow hands out the probe batch narrowed to the slots ks: the probe's
// own lanes under a selection vector, and its row headers when it has
// them. Nothing is copied but positions and headers, and a batch whose
// every row matched is forwarded as it is.
func (j *hashJoinOp) narrow(ks []int32) *Batch {
	pb := j.pb
	if len(ks) == pb.Len() {
		return pb
	}
	j.out.reset()
	j.out.n = len(ks)
	if pb.Rows != nil {
		for _, k := range ks {
			j.out.Rows = append(j.out.Rows, pb.Rows[k])
		}
	} else {
		j.out.Rows = nil
	}
	if pb.Cols != nil {
		j.win = j.win[:0]
		for _, k := range ks {
			j.win = append(j.win, int32(selRow(pb.Sel, int(k))))
		}
		j.out.Cols, j.out.Sel = pb.Cols, j.win
	}
	return &j.out
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
	j.table, j.matched, j.pb = nil, nil, nil
	j.pairK, j.pairB, j.pairAt = j.pairK[:0], j.pairB[:0], 0
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
