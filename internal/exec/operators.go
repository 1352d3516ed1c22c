package exec

import (
	"errors"
	"fmt"
	"io"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/fault"
	"partopt/internal/oidcache"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// Operator is the executor's one iteration protocol: Open, then NextBatch
// until it returns io.EOF (after the last non-empty batch), then Close. See
// batch.go for the batch ownership contract.
type Operator interface {
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx) (*Batch, error)
	Close(ctx *Ctx) error
}

// errEOF is the canonical end-of-stream sentinel.
var errEOF = io.EOF

// ---------------------------------------------------------------- scan

// withRowIDs extends rows with the encoded RowID pseudo-column, for the
// one read that carries no lanes: an index lookup, which supplies each
// row's identity in ids. The returned row headers reuse hdr's backing
// array across batches; the datum arena behind them is allocated fresh per
// batch (one allocation for the whole batch instead of one per row)
// because emitted rows must stay valid after the next call.
func withRowIDs(rows []types.Row, ids []storage.RowID, hdr []types.Row) []types.Row {
	if len(rows) == 0 {
		return hdr[:0]
	}
	w := len(rows[0])
	arena := make([]types.Datum, len(rows)*(w+1))
	hdr = hdr[:0]
	for i, row := range rows {
		dst := arena[i*(w+1) : (i+1)*(w+1) : (i+1)*(w+1)]
		copy(dst, row)
		dst[w] = EncodeRowID(ids[i])
		hdr = append(hdr, dst)
	}
	return hdr
}

// colWindow fills viewBuf with copies of the captured column snapshots
// windowed at base, for attaching to a batch. Returns nil when cols is nil.
func colWindow(cols []vec.View, base int, viewBuf []vec.View) []vec.View {
	if cols == nil {
		return nil
	}
	viewBuf = viewBuf[:0]
	for _, v := range cols {
		v.Base = base
		viewBuf = append(viewBuf, v)
	}
	return viewBuf
}

// leafScanOp is the executor's one leaf reader. Scan and IndexScan read
// one known leaf, at Open; DynamicScan and DynamicIndexScan read the leaves
// their PartitionSelector chose, one at a time as the previous leaf drains.
// A leaf loads through the node's index when it names one; otherwise as
// column lanes — plus the cached row view for a plain read, or, for a
// RowID-bearing read, no rows at all and a RowID lane synthesized per
// batch.
type leafScanOp struct {
	n          plan.Node // the scan node, named in errors
	table      *catalog.Table
	withRowID  bool
	dynamic    bool // leaves come from partScanID's mailbox
	partScanID int
	leaf       part.OID // the one leaf of a static scan

	index *catalog.IndexDef // nil: heap reads
	rel   int
	pred  expr.Expr
	set   types.IntervalSet // the index's interval set, derived at Open

	leaves  []part.OID // selected leaves not loaded yet
	curLeaf part.OID
	rows    []types.Row     // nil on the lane-only read
	ids     []storage.RowID // per-row identities of an index lookup
	cols    []vec.View      // columnar snapshot of the leaf (nil on an index read)
	size    int             // rows in the current leaf
	pos     int

	batch   Batch
	idBuf   []types.Row // reused row headers for the WithRowID arena
	viewBuf []vec.View  // reused per-batch column views
	ridBuf  []int64     // reused per-batch RowID lane
}

// newLeafScan builds the leaf reader of a Scan, DynamicScan, IndexScan or
// DynamicIndexScan node.
func newLeafScan(n plan.Node) *leafScanOp {
	s := &leafScanOp{n: n}
	switch x := n.(type) {
	case *plan.Scan:
		s.table, s.withRowID, s.leaf = x.Table, x.WithRowID, x.Leaf
	case *plan.DynamicScan:
		s.table, s.withRowID, s.dynamic, s.partScanID = x.Table, x.WithRowID, true, x.PartScanID
	case *plan.IndexScan:
		s.table, s.withRowID, s.leaf = x.Table, x.WithRowID, x.Leaf
		s.index, s.rel, s.pred = &x.Index, x.Rel, x.Pred
	case *plan.DynamicIndexScan:
		s.table, s.withRowID, s.dynamic, s.partScanID = x.Table, x.WithRowID, true, x.PartScanID
		s.index, s.rel, s.pred = &x.Index, x.Rel, x.Pred
	}
	return s
}

func (s *leafScanOp) Open(ctx *Ctx) error {
	if ctx.Seg == CoordinatorSeg {
		return fmt.Errorf("exec: %s of %s cannot run on the coordinator", opName(s.n), s.table.Name)
	}
	s.rows, s.size, s.pos, s.leaves = nil, 0, 0, nil
	if s.index != nil {
		s.set = deriveIndexSet(ctx, s.rel, s.index.ColOrd, s.pred)
	}
	if !s.dynamic {
		if err := s.load(ctx, s.leaf); err != nil {
			return err
		}
		ctx.notePartScanned(s.leaf)
		return nil
	}
	leaves, err := ctx.selectedOIDs(s.partScanID)
	if err != nil {
		return err
	}
	s.leaves = leaves
	// Every selected partition will be read; account for it here so
	// partition-scan counts match the selector's decision even when a
	// parent stops pulling early.
	for _, leaf := range leaves {
		ctx.notePartScanned(leaf)
	}
	if f := ctx.cur; f != nil && s.table.Part != nil {
		f.partsTotal = s.table.Part.NumLeaves()
	}
	return nil
}

// load reads one leaf into rows, ids or cols, per the read path. A
// RowID-bearing read fails rather than let a position or the leaf OID
// overflow its RowID field.
func (s *leafScanOp) load(ctx *Ctx, leaf part.OID) error {
	var err error
	s.curLeaf, s.pos, s.rows, s.ids, s.cols = leaf, 0, nil, nil, nil
	switch {
	case s.index != nil:
		s.rows, s.ids, err = ctx.indexLookup(s.table, s.index.Name, leaf, s.set)
		s.size = len(s.rows)
	case s.withRowID:
		s.cols, s.size, err = ctx.scanLeafLanes(s.table.OID, leaf)
	default:
		s.cols, s.rows, err = ctx.scanLeafCols(s.table.OID, leaf)
		s.size = len(s.rows)
	}
	if err != nil {
		return err
	}
	if s.withRowID {
		span := s.size
		for _, id := range s.ids {
			span = max(span, id.Idx+1)
		}
		if err := checkRowIDRange(ctx.Seg, leaf, span); err != nil {
			return err
		}
	}
	ctx.noteRowsScanned(int64(s.size))
	return nil
}

// NextBatch emits up to execBatchSize rows of the current leaf. A heap
// read emits zero-copy windows onto the leaf's lane snapshot with lazy
// rows: a plain read hands over the leaf's row view as the window's row
// headers, a RowID-bearing read the RowID lane and no headers. An index
// read emits a view of the looked-up rows (rows are immutable, so the
// view satisfies the ownership contract), extended with their RowIDs when
// the node asks for them. Batches never straddle a leaf, so a heap
// batch's RowIDs are one (leaf, base) run. Abort polling and the OpNext
// fault point run once per batch.
func (s *leafScanOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	if err := ctx.hitFault(fault.OpNext); err != nil {
		return nil, err
	}
	for s.pos >= s.size {
		if len(s.leaves) == 0 {
			return nil, errEOF
		}
		leaf := s.leaves[0]
		s.leaves = s.leaves[1:]
		if err := s.load(ctx, leaf); err != nil {
			return nil, err
		}
	}
	start, end := s.pos, min(s.pos+execBatchSize, s.size)
	s.pos = end
	if s.cols != nil {
		s.viewBuf = colWindow(s.cols, start, s.viewBuf)
		var win []types.Row
		if s.withRowID {
			s.viewBuf = append(s.viewBuf, s.ridLane(ctx.Seg, start, end))
		} else {
			win = s.rows[start:end]
		}
		s.batch.setLanes(s.viewBuf, win, end-start)
		return &s.batch, nil
	}
	out := s.rows[start:end]
	if s.withRowID {
		s.idBuf = withRowIDs(out, s.ids[start:end], s.idBuf)
		out = s.idBuf
	}
	s.batch.setRows(out)
	return &s.batch, nil
}

// ridLane returns the RowID lane of heap positions [start, end) of the
// current leaf, in a buffer reused across batches (the lane is transient,
// like the batch that carries it).
func (s *leafScanOp) ridLane(seg, start, end int) vec.View {
	s.ridBuf = s.ridBuf[:0]
	for pos := start; pos < end; pos++ {
		s.ridBuf = append(s.ridBuf, encodeRowID(seg, s.curLeaf, pos))
	}
	return vec.View{Kind: types.KindInt, Ints: s.ridBuf}
}

func (s *leafScanOp) Close(*Ctx) error {
	s.rows, s.ids, s.cols, s.leaves, s.size = nil, nil, nil, nil, 0
	return nil
}

// ---------------------------------------------------------------- partition selector

// selectorOp implements PartitionSelector. Static predicate levels (whose
// operands are constants or parameters) are resolved once at Open; dynamic
// levels (operands referencing child columns) are resolved per child row,
// unioning the per-row selections (paper Fig. 5(d)).
type selectorOp struct {
	n     *plan.PartitionSelector
	child Operator

	childLayout expr.Layout
	keyIDs      []expr.ColID // per-level partitioning key identity
	staticSets  []types.IntervalSet
	dynamic     []bool // per level: needs per-row evaluation
	anyDynamic  bool
	handle      int
	sealed      bool

	env     expr.Env            // reused per row for dynamic derivation
	setsBuf []types.IntervalSet // reused per-row working copy of staticSets
}

func (s *selectorOp) Open(ctx *Ctx) error {
	desc := s.n.Table.Part
	if desc == nil {
		return fmt.Errorf("exec: PartitionSelector on unpartitioned table %s", s.n.Table.Name)
	}
	s.sealed = false
	s.handle = ctx.registerSelector(s.n.PartScanID)
	nl := desc.NumLevels()
	s.keyIDs = make([]expr.ColID, nl)
	for i, ord := range desc.KeyOrds() {
		s.keyIDs[i] = expr.ColID{Rel: s.n.PartScanID, Ord: ord}
	}
	if s.n.Child != nil {
		s.childLayout = s.n.Child.Layout()
	}

	// Classify each level and precompute static interval sets.
	s.staticSets = make([]types.IntervalSet, nl)
	s.dynamic = make([]bool, nl)
	s.anyDynamic = false
	constEval := expr.ConstEval(ctx.Params.Vals)
	for lvl := 0; lvl < nl; lvl++ {
		var pred expr.Expr
		if s.n.Preds != nil {
			pred = s.n.Preds[lvl]
		}
		if pred == nil {
			s.staticSets[lvl] = types.WholeDomain()
			continue
		}
		if s.predIsStatic(pred, lvl) {
			s.staticSets[lvl] = expr.DeriveIntervals(pred, s.keyIDs[lvl], constEval)
			continue
		}
		s.dynamic[lvl] = true
		s.anyDynamic = true
		s.staticSets[lvl] = types.WholeDomain()
	}

	if f := ctx.cur; f != nil {
		f.partsTotal = desc.NumLeaves()
	}
	if !s.anyDynamic {
		// Fully static: select once, seal, then let the child run. The
		// selection is a pure function of the partition descriptor and the
		// derived intervals, so it is served from the runtime's OID cache
		// when one is attached — every segment process of every execution
		// of a cached plan would otherwise repeat the identical traversal.
		// Hub selectors (join-driven, no static constraint) and fully
		// unconstrained selections bypass the cache: their entries would be
		// whole table expansions.
		oids := s.staticSelect(ctx, desc)
		s.recordSelection(ctx, oids)
		ctx.pushOIDs(s.n.PartScanID, s.handle, oids)
		ctx.sealOIDs(s.n.PartScanID, s.handle)
		s.sealed = true
	}
	if s.child != nil {
		s.env = expr.Env{Layout: s.childLayout, Params: ctx.Params.Vals}
		s.setsBuf = make([]types.IntervalSet, nl)
		if err := s.child.Open(ctx); err != nil {
			return err
		}
	} else if s.anyDynamic {
		return fmt.Errorf("exec: PartitionSelector(%d) has dynamic predicates but no child to stream from", s.n.PartScanID)
	}
	return nil
}

// staticSelect resolves the fully static selection, through the runtime's
// OID cache when eligible. On a hit desc.Select is skipped entirely; on a
// miss the computed set is stored under the epoch observed before the
// traversal, so a concurrent DDL bump stamps it stale rather than current.
// The result may be shared with concurrent selectors and is only read
// (recordSelection, pushOIDs); desc.Select returns a fresh slice, so a
// computed set is cached without a copy.
func (s *selectorOp) staticSelect(ctx *Ctx, desc *part.Desc) []part.OID {
	c := s.cacheFor(ctx)
	if c == nil {
		return desc.Select(s.staticSets)
	}
	key := oidcache.Key(s.n.Table.OID, s.staticSets)
	if oids, ok := c.Get(key); ok {
		ctx.noteOIDCache(true)
		return oids
	}
	ctx.noteOIDCache(false)
	epoch := c.Epoch()
	oids := desc.Select(s.staticSets)
	c.Put(key, oids, epoch)
	return oids
}

// cacheFor returns the runtime's OID cache when this selector is eligible
// to use it, nil otherwise.
func (s *selectorOp) cacheFor(ctx *Ctx) *oidcache.Cache {
	if ctx.Rt == nil || ctx.Rt.OIDCache.Capacity() <= 0 {
		return nil
	}
	if s.n.Hub || !oidcache.Constrained(s.staticSets) {
		return nil
	}
	return ctx.Rt.OIDCache
}

// predIsStatic reports whether every column the level's predicate uses is
// the partitioning key itself (operands are constants or parameters).
func (s *selectorOp) predIsStatic(pred expr.Expr, lvl int) bool {
	for id := range expr.ColsUsed(pred) {
		if id != s.keyIDs[lvl] {
			return false
		}
	}
	return true
}

// NextBatch passes the child's batch through untouched; dynamic levels
// derive and push their per-row selections over the whole batch first.
func (s *selectorOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if s.child == nil {
		s.seal(ctx)
		return nil, errEOF
	}
	b, err := s.child.NextBatch(ctx)
	if errors.Is(err, errEOF) {
		s.seal(ctx)
		return nil, errEOF
	}
	if err != nil {
		return nil, err
	}
	if s.anyDynamic {
		for _, row := range b.rows(ctx) {
			s.deriveRow(ctx, row)
		}
	}
	return b, nil
}

// deriveRow unions one child row's dynamic selection into the mailbox. The
// env and the interval-set working copy are instance state, so the per-row
// cost is the derivation itself, not allocation.
func (s *selectorOp) deriveRow(ctx *Ctx, row types.Row) {
	s.env.Row = row
	copy(s.setsBuf, s.staticSets)
	for lvl, dyn := range s.dynamic {
		if !dyn {
			continue
		}
		s.setsBuf[lvl] = expr.DeriveIntervals(s.n.Preds[lvl], s.keyIDs[lvl], expr.EnvEval(&s.env))
	}
	oids := s.n.Table.Part.Select(s.setsBuf)
	s.recordSelection(ctx, oids)
	ctx.pushOIDs(s.n.PartScanID, s.handle, oids)
}

// recordSelection notes the selector's chosen partitions in its OpStats
// frame, so EXPLAIN ANALYZE renders "Partitions selected: N (out of M)" on
// the selector itself (candidates = the table's leaf count, selected = the
// union of every per-row selection).
func (s *selectorOp) recordSelection(ctx *Ctx, oids []part.OID) {
	f := ctx.cur
	if f == nil {
		return
	}
	for _, o := range oids {
		f.notePart(o)
	}
}

func (s *selectorOp) seal(ctx *Ctx) {
	if !s.sealed {
		ctx.sealOIDs(s.n.PartScanID, s.handle)
		s.sealed = true
	}
}

func (s *selectorOp) Close(ctx *Ctx) error {
	s.seal(ctx)
	if s.child != nil {
		return s.child.Close(ctx)
	}
	return nil
}

// ---------------------------------------------------------------- sequence

// sequenceOp runs children 0..n-2 to completion (discarding rows), then
// streams the last child.
type sequenceOp struct {
	kids []Operator
	last Operator
}

func (s *sequenceOp) Open(ctx *Ctx) error {
	for i := 0; i+1 < len(s.kids); i++ {
		k := s.kids[i]
		if err := k.Open(ctx); err != nil {
			return err
		}
		for {
			_, err := k.NextBatch(ctx)
			if errors.Is(err, errEOF) {
				break
			}
			if err != nil {
				// Close the draining child before failing: its buffers are
				// released and its stats frame sees a complete lifecycle.
				k.Close(ctx)
				return err
			}
		}
		if err := k.Close(ctx); err != nil {
			return err
		}
	}
	s.last = s.kids[len(s.kids)-1]
	return s.last.Open(ctx)
}

func (s *sequenceOp) NextBatch(ctx *Ctx) (*Batch, error) { return s.last.NextBatch(ctx) }

func (s *sequenceOp) Close(ctx *Ctx) error {
	if s.last == nil {
		return nil // Open failed before reaching the streaming child
	}
	return s.last.Close(ctx)
}

// ---------------------------------------------------------------- append

// appendOp concatenates children. With an OID-filter parameter it skips
// child leaf scans whose partition is not in the bound set — the legacy
// planner's run-time elimination.
type appendOp struct {
	n    *plan.Append
	kids []Operator
	idx  int
	open bool
}

func (a *appendOp) skip(ctx *Ctx, i int) bool {
	if a.n.ParamID < 0 {
		return false
	}
	sc, ok := a.n.Kids[i].(*plan.Scan)
	if !ok {
		return false
	}
	set := ctx.Params.OIDSets[a.n.ParamID]
	if set == nil {
		return false // unbound parameter: scan everything
	}
	return !set[sc.Leaf]
}

func (a *appendOp) Open(ctx *Ctx) error {
	a.idx, a.open = 0, false
	return nil
}

func (a *appendOp) NextBatch(ctx *Ctx) (*Batch, error) {
	for {
		if !a.open {
			for a.idx < len(a.kids) && a.skip(ctx, a.idx) {
				a.idx++
			}
			if a.idx >= len(a.kids) {
				return nil, errEOF
			}
			if err := a.kids[a.idx].Open(ctx); err != nil {
				return nil, err
			}
			a.open = true
		}
		b, err := a.kids[a.idx].NextBatch(ctx)
		if errors.Is(err, errEOF) {
			if err := a.kids[a.idx].Close(ctx); err != nil {
				return nil, err
			}
			a.idx++
			a.open = false
			continue
		}
		return b, err
	}
}

func (a *appendOp) Close(ctx *Ctx) error {
	if a.open && a.idx < len(a.kids) {
		a.open = false
		return a.kids[a.idx].Close(ctx)
	}
	return nil
}

// ---------------------------------------------------------------- filter

type filterOp struct {
	n      *plan.Filter
	child  Operator
	layout expr.Layout
	env    expr.Env // reused per row
	out    Batch    // reused output header (kept slots or rows by reference)

	vp   vpNode  // compiled vectorized predicate (nil: row path only)
	keep []int32 // reused: the kept slots, then (mapped in place) out.Sel
}

func (f *filterOp) Open(ctx *Ctx) error {
	f.layout = f.n.Child.Layout()
	f.env = expr.Env{Layout: f.layout, Params: ctx.Params.Vals}
	f.vp = compileVP(f.n.Pred, f.layout, ctx.Params.Vals, false)
	return f.child.Open(ctx)
}

// NextBatch evaluates the predicate over whole child batches into a
// reused output batch. Child batches are pulled until the output is
// non-empty or the input ends. Columnar batches run the compiled vector
// predicate, which narrows the batch's slots to the kept ones; mapped
// through the child's Sel they become the output's selection vector over
// the same column window, and the child's window headers go up with it,
// so no datum and no row header is touched until a consumer asks for
// rows. Only a child whose rows are built per slot rather than per window
// position has its kept headers copied. The kernel refuses batches it
// cannot type (errVecFallback) and the row loop runs, collecting the kept
// rows by reference.
func (f *filterOp) NextBatch(ctx *Ctx) (*Batch, error) {
	f.out.reset()
	for f.out.Len() == 0 {
		cb, err := f.child.NextBatch(ctx)
		if err != nil {
			return nil, err // includes EOF
		}
		if err := ctx.pollAbortBatch(); err != nil {
			return nil, err
		}
		if f.vp != nil && cb.Cols != nil {
			keep, verr := f.vp.sel(cb, nil, f.keep[:0])
			f.keep = keep
			if verr == nil {
				if len(keep) == 0 {
					continue
				}
				f.out.narrowFrom(cb, keep)
				continue
			}
			if verr != errVecFallback {
				return nil, verr
			}
		}
		for _, row := range cb.rows(ctx) {
			f.env.Row = row
			ok, err := expr.EvalPred(f.n.Pred, &f.env)
			if err != nil {
				return nil, err
			}
			if ok {
				f.out.addRow(row)
			}
		}
	}
	return &f.out, nil
}

func (f *filterOp) Close(ctx *Ctx) error { return f.child.Close(ctx) }

// ---------------------------------------------------------------- project

type projectOp struct {
	n      *plan.Project
	child  Operator
	layout expr.Layout
	env    expr.Env   // reused per row
	out    Batch      // reused output header
	cols   []vec.View // reused header of the output's permuted column views

	colPos   []int // all-column projection: source position per output col
	maxPos   int   // largest source position (bounds guard per batch)
	identity bool  // projection is the identity permutation of the child row
}

func (p *projectOp) Open(ctx *Ctx) error {
	p.layout = p.n.Child.Layout()
	p.env = expr.Env{Layout: p.layout, Params: ctx.Params.Vals}
	p.colPos, p.identity = nil, false
	p.compileFastPath()
	return p.child.Open(ctx)
}

// compileFastPath detects projections made purely of column references.
// Those need no expression evaluation: the batch path gathers datums by
// position, and a projection that is exactly the identity over the child
// row passes child batches through untouched (the dominant SELECT * shape).
func (p *projectOp) compileFastPath() {
	pos := make([]int, len(p.n.Cols))
	maxPos := 0
	for i, c := range p.n.Cols {
		col, ok := c.E.(*expr.Col)
		if !ok {
			return
		}
		src, ok := p.layout[col.ID]
		if !ok || src < 0 {
			return
		}
		pos[i] = src
		if src > maxPos {
			maxPos = src
		}
	}
	p.colPos, p.maxPos = pos, maxPos
	if len(pos) != p.layout.Width() {
		return
	}
	for i, src := range pos {
		if src != i {
			return
		}
	}
	p.identity = true
}

// NextBatch projects a whole child batch into one freshly-allocated datum
// arena (output rows must stay stable after the next call, so only the row
// headers are reused across batches). Identity projections forward the
// child batch untouched — rows are immutable, so sharing them satisfies the
// ownership contract — and all-column projections gather by position
// without expression dispatch, forwarding permuted column views when the
// child batch is columnar — and only those when its rows would have to be
// built (no rows and no window headers to gather).
func (p *projectOp) NextBatch(ctx *Ctx) (*Batch, error) {
	cb, err := p.child.NextBatch(ctx)
	if err != nil {
		return nil, err // includes EOF
	}
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	if p.identity {
		return cb, nil
	}
	p.out.reset()
	if p.colPos != nil && !cb.hasRows() && p.maxPos < len(cb.Cols) {
		p.out.Cols, p.out.Sel, p.out.n = p.permute(cb.Cols), cb.Sel, cb.Len()
		return &p.out, nil
	}
	rows := cb.rows(ctx)
	w := len(p.n.Cols)
	arena := make([]types.Datum, len(rows)*w)
	if p.colPos != nil && (len(rows) == 0 || p.maxPos < len(rows[0])) {
		for i, row := range rows {
			dst := arena[i*w : (i+1)*w : (i+1)*w]
			for j, src := range p.colPos {
				dst[j] = row[src]
			}
			p.out.addRow(dst)
		}
		if cb.Cols != nil {
			p.out.Cols, p.out.Sel = p.permute(cb.Cols), cb.Sel
		}
		return &p.out, nil
	}
	for i, row := range rows {
		p.env.Row = row
		dst := arena[i*w : (i+1)*w : (i+1)*w]
		for j, c := range p.n.Cols {
			v, err := expr.Eval(c.E, &p.env)
			if err != nil {
				return nil, err
			}
			dst[j] = v
		}
		p.out.addRow(dst)
	}
	return &p.out, nil
}

// permute returns the child's column views in output order, in a reused
// header.
func (p *projectOp) permute(cols []vec.View) []vec.View {
	p.cols = p.cols[:0]
	for _, src := range p.colPos {
		p.cols = append(p.cols, cols[src])
	}
	return p.cols
}

func (p *projectOp) Close(ctx *Ctx) error { return p.child.Close(ctx) }
