package exec

import (
	"errors"
	"fmt"
	"io"
	"slices"

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
// the spilled partitions. Both sides read their keys as lanes (keyLanes);
// the build side is held by position (joinTable). A probe batch is hashed
// once, each candidate on its hash's chain is checked lane against lane,
// and the matches collect into reused buffers: the probe slot and the
// build row of each output row. The output is then gathered column by
// column into reused lanes (vec.Lane), leaving Batch.Rows lazy, so an
// aggregate above the join folds the lanes without a joined row ever
// being built. Only the columns some ancestor reads are gathered (live,
// from deriveJoinMasks); the table still holds full rows. A semi join
// forwards the probe batch itself, narrowed to the matched rows by Sel,
// with the probe window's row headers (a scan's) riding along ungathered.
//
// Outer joins NULL-extend the non-preserved side. RightOuterJoin (probe
// preserved) emits every probe row: a probe row with no surviving match —
// including one with a NULL join key — is emitted with NULLs in the build
// columns. LeftOuterJoin (build preserved) sets a build row's matched bit
// when a residual-passing probe row joins it; once the probe side (or,
// when spilled, one probe partition) drains, the unmatched build rows are
// emitted in build order with NULLs in the probe columns. NULL-keyed rows
// of a preserved side are therefore kept (a build one holds a position
// but is linked into no chain), while NULL-keyed rows of a null-producing
// side are dropped at ingest exactly like the inner-join path.
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

	bkeys, pkeys keyLanes // build and probe keys
	table        joinTable
	tableBytes   int64   // bytes reserved for the resident table
	slots        []int32 // an ingested batch's slots that joined the table

	spilled    bool
	buildParts []*mem.SpillWriter
	probeParts []*mem.SpillWriter
	part       int              // next partition to load
	partReader *mem.SpillReader // probe rows of the loaded partition
	partBatch  Batch            // reused header for the partition's batches

	buildOpen bool
	probeOpen bool
	probeDone bool // the resident probe stream ended (its unmatched build rows are staged)

	// The probe batch being matched: its key hashes (a NULL key is flagged
	// in pnull), and the next row to match.
	pb    *Batch
	ph    []uint64
	pnull []bool
	pk    int

	// Matches awaiting emission, one entry per output row: the probe slot
	// (-1: NULL probe columns) and the build row (nil: NULL build columns,
	// or a semi join, which emits the probe row alone).
	pairK  []int32
	pairB  []types.Row
	pairAt int

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
}

func (j *hashJoinOp) Open(ctx *Ctx) (err error) {
	j.buildLayout = j.n.Build.Layout()
	j.probeLayout = j.n.Probe.Layout()
	j.bw, j.pw = j.buildLayout.Width(), j.probeLayout.Width()
	j.resEnv, j.resRow = expr.Env{}, nil
	if j.n.Residual != nil {
		j.resEnv = expr.Env{Layout: expr.Concat(j.buildLayout, j.probeLayout), Params: ctx.Params.Vals}
		j.resRow = make(types.Row, j.bw+j.pw)
	}
	j.bkeys = *newKeyLanes(j.n.BuildKeys, j.buildLayout, ctx.Params.Vals)
	j.pkeys = *newKeyLanes(j.n.ProbeKeys, j.probeLayout, ctx.Params.Vals)
	j.table = joinTable{keys: make([]vec.Lane, len(j.n.BuildKeys))}
	j.tableBytes = 0
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
		if err := j.ingest(ctx, b, false); err != nil {
			return err
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
		j.table.link()
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
		if err := j.pkeys.load(b); err != nil {
			return err
		}
		ph, pnull := j.pkeys.hash(false)
		for k, row := range b.rows(ctx) {
			if pnull[k] && j.n.Type != plan.RightOuterJoin {
				continue // NULL keys never join
			}
			// A NULL-keyed preserved probe row rides partition 0 (its hash
			// is 0); it matches nothing there and is emitted NULL-extended.
			if err := j.probeParts[int(ph[k]%spillFanout)].Write(row); err != nil {
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

// ingest hashes build batch b and adds its rows to the resident table —
// or, once the join has spilled, writes them to their build partitions. A
// reloaded partition (hard) takes hard reservations and never spills.
func (j *hashJoinOp) ingest(ctx *Ctx, b *Batch, hard bool) error {
	rows := b.rows(ctx)
	if err := j.bkeys.load(b); err != nil {
		return err
	}
	bh, bnull := j.bkeys.hash(false)
	reserve := ctx.reserve
	if hard {
		reserve = ctx.reserveHard
	}
	if hard || !j.spilled {
		j.table.rows, j.table.hash = slices.Grow(j.table.rows, len(rows)), slices.Grow(j.table.hash, len(rows))
	}
	j.slots = j.slots[:0]
	for k, row := range rows {
		if bnull[k] && j.n.Type != plan.LeftOuterJoin {
			continue // NULL keys never join
		}
		// A NULL-keyed row of a preserved build side is kept (its hash is
		// 0): it can never match, but LeftOuterJoin must still emit it.
		if hard || !j.spilled {
			rb := mem.RowBytes(row)
			err := reserve(rb)
			if err == nil {
				j.tableBytes += rb
				j.table.rows = append(j.table.rows, row)
				j.table.hash = append(j.table.hash, bh[k])
				j.slots = append(j.slots, int32(k))
				continue
			}
			if hard {
				return err
			}
			if err := j.spillResidentTable(ctx); err != nil {
				return err
			}
			j.slots = j.slots[:0]
		}
		if err := j.buildParts[int(bh[k]%spillFanout)].Write(row); err != nil {
			return err
		}
	}
	j.table.appendKeys(&j.bkeys, j.slots)
	return nil
}

// spillResidentTable switches to Grace mode: the rows hashed so far move,
// in build order, to their disk partitions and their reservation is
// returned.
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
	for p, row := range j.table.rows {
		if err := j.buildParts[int(j.table.hash[p]%spillFanout)].Write(row); err != nil {
			return err
		}
	}
	ctx.release(j.tableBytes)
	j.tableBytes = 0
	j.table.reset()
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
	j.table.reset()
	for {
		b, err := fillBatch(&j.partBatch, spillRows(r))
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := j.ingest(ctx, b, true); err != nil {
			return err
		}
	}
	j.table.link()
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
	j.table.reset()
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
		b, err := fillBatch(&j.partBatch, spillRows(j.partReader))
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

// spillRows reads r's rows one at a time, for fillBatch.
func spillRows(r *mem.SpillReader) func() (types.Row, error) {
	return func() (types.Row, error) {
		row, err := r.Next()
		if err == io.EOF {
			return nil, errEOF
		}
		return row, err
	}
}

// stageUnmatched queues every resident build row no probe row matched, in
// build order, for emission with NULL probe columns (LeftOuterJoin only; a
// no-op otherwise). The queue holds the rows themselves, so it stays valid
// after the table is reset.
func (j *hashJoinOp) stageUnmatched() {
	j.pb = nil
	if j.n.Type != plan.LeftOuterJoin {
		return
	}
	for p, b := range j.table.rows {
		if !j.table.isMatched(p) {
			j.pairK = append(j.pairK, -1)
			j.pairB = append(j.pairB, b)
		}
	}
}

// startProbe makes b the probe batch and hashes its keys.
func (j *hashJoinOp) startProbe(b *Batch) error {
	j.pb, j.pk = b, 0
	if err := j.pkeys.load(b); err != nil {
		return err
	}
	j.ph, j.pnull = j.pkeys.hash(false)
	return nil
}

// match resolves probe rows, from j.pk on, into matches until a batch of
// them is pending or the probe batch is used up. A semi join takes each
// probe row's first surviving match.
func (j *hashJoinOp) match() error {
	n := j.pb.Len()
	keepProbe := j.n.Type == plan.RightOuterJoin
	t := &j.table
	for ; j.pk < n && len(j.pairK)-j.pairAt < execBatchSize; j.pk++ {
		k := j.pk
		found := false
		if h := j.ph[k]; !j.pnull[k] {
			resFilled := false
			for p := t.seek(t.lookup(h), h, &j.pkeys, k); p >= 0; p = t.seek(t.next[p], h, &j.pkeys, k) {
				brow := t.rows[p]
				if j.n.Residual != nil {
					copy(j.resRow, brow)
					if !resFilled {
						copy(j.resRow[j.bw:], batchRow(j.pb, k, &j.probeTmp))
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
				if j.n.Type == plan.LeftOuterJoin {
					t.setMatched(p)
				}
			}
		}
		if !found && keepProbe {
			j.pairK, j.pairB = append(j.pairK, int32(k)), append(j.pairB, nil)
		}
	}
	return nil
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
	j.out.Cols = j.cols
	return &j.out
}

// isLive reports whether output position c is gathered.
func (j *hashJoinOp) isLive(c int) bool { return j.live == nil || j.live[c] }

// narrow hands out the probe batch narrowed to the slots ks: the probe's
// own lanes under a selection vector, with its window's row headers going
// up beside them. Nothing is copied but positions — and, for a probe
// batch whose rows are built per slot rather than per window position,
// the kept headers — and a batch whose every row matched is forwarded as
// it is.
func (j *hashJoinOp) narrow(ks []int32) *Batch {
	pb := j.pb
	if len(ks) == pb.Len() {
		return pb
	}
	j.out.reset()
	j.win = append(j.win[:0], ks...)
	j.out.narrowFrom(pb, j.win)
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
	j.table, j.pb = joinTable{}, nil
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

// ---------------------------------------------------------------- join table

// joinTable is the hash join's resident build side, held by position: the
// build rows, their key hashes and key lanes, an int32 chain linking the
// positions of each hash bucket, and a matched bit per position. Rows and
// hashes are appended at ingest; link indexes them once the side (or a
// reloaded partition) is complete.
type joinTable struct {
	rows    []types.Row
	hash    []uint64
	keys    []vec.Lane // one per build key
	kv      []vec.View // the key lanes' views, taken by link
	heads   []int32    // per bucket: the first position of its chain; -1: none
	next    []int32    // per position: the next position of its chain; -1: none
	shift   uint       // the bucket of hash h is (h * fibMul) >> shift
	matched []uint64   // bit p: position p joined a residual-passing probe row
	win     []int32    // scratch view rows for appendKeys
}

// fibMul spreads a hash's bits into the top bits that pick its bucket.
const fibMul = 0x9e3779b97f4a7c15

// appendKeys appends the key values of the loaded slots to the key lanes,
// in order.
func (t *joinTable) appendKeys(kl *keyLanes, slots []int32) {
	if len(slots) == 0 {
		return
	}
	for i := range t.keys {
		c, rows := &kl.cols[i], slots
		if c.sel != nil {
			t.win = t.win[:0]
			for _, k := range slots {
				t.win = append(t.win, c.sel[k])
			}
			rows = t.win
		}
		t.keys[i].AppendView(c.view, rows)
	}
}

// link indexes every position whose keys are all non-NULL; a NULL-keyed
// position can match nothing and stays off every chain. Each chain lists
// its positions in build order.
func (t *joinTable) link() {
	n := len(t.rows)
	t.kv = t.kv[:0]
	for i := range t.keys {
		t.kv = append(t.kv, t.keys[i].View())
	}
	size := 1
	for t.shift = 64; size < n; t.shift-- {
		size <<= 1
	}
	t.heads = slices.Grow(t.heads[:0], size)[:size]
	for b := range t.heads {
		t.heads[b] = -1
	}
	t.next = slices.Grow(t.next[:0], n)[:n]
positions:
	for p := n - 1; p >= 0; p-- {
		for i := range t.kv {
			if t.kv[i].Null(p) {
				continue positions
			}
		}
		t.add(int32(p), t.hash[p])
	}
}

// add puts position p at the head of hash h's chain.
func (t *joinTable) add(p int32, h uint64) {
	b := (h * fibMul) >> t.shift
	t.next[p], t.heads[b] = t.heads[b], p
}

// lookup returns the first position of hash h's chain, -1 if none.
func (t *joinTable) lookup(h uint64) int32 { return t.heads[(h*fibMul)>>t.shift] }

// seek walks the chain from position p on and returns the first position
// whose hash is h and whose keys equal probe slot k's, -1 if none.
func (t *joinTable) seek(p int32, h uint64, probe *keyLanes, k int) int32 {
	for ; p >= 0; p = t.next[p] {
		if t.hash[p] == h && t.keysEqual(p, probe, k) {
			return p
		}
	}
	return -1
}

// keysEqual is the join's key check: every build key lane at position p
// against the probe key at slot k, lane against lane (vec.View.Matches).
func (t *joinTable) keysEqual(p int32, probe *keyLanes, k int) bool {
	for i := range t.kv {
		c := &probe.cols[i]
		if !t.kv[i].Matches(int(p), c.view, selRow(c.sel, k)) {
			return false
		}
	}
	return true
}

func (t *joinTable) setMatched(p int32) {
	w := int(p >> 6)
	for len(t.matched) <= w {
		t.matched = append(t.matched, 0)
	}
	t.matched[w] |= 1 << uint(p&63)
}

func (t *joinTable) isMatched(p int) bool {
	w := p >> 6
	return w < len(t.matched) && t.matched[w]&(1<<uint(p&63)) != 0
}

// reset empties the table, keeping its storage.
func (t *joinTable) reset() {
	clear(t.rows)
	t.rows, t.hash, t.matched = t.rows[:0], t.hash[:0], t.matched[:0]
	for i := range t.keys {
		t.keys[i].Reset()
	}
}
