package exec

import (
	"maps"
	"slices"
	"sort"
	"time"

	"partopt/internal/obs"
	"partopt/internal/part"
	"partopt/internal/plan"
)

// Per-operator runtime instrumentation.
//
// Every operator instance the executor builds is wrapped in a statsOp
// decorator that records rows out and wall time, and exposes a per-instance
// opFrame that the operator body (via the Ctx note*/reserve helpers)
// charges storage reads, partition selections, spill activity, aggregate
// batches and memory reservations to. The frame is the executor's only
// counter: the query-wide totals (Stats.RowsScanned and friends), the
// engine's metrics registry and EXPLAIN ANALYZE are all read from it.
//
// Frames are goroutine-local — one Ctx per slice instance, one frame per
// (Ctx, plan node) — so the NextBatch hot path takes no locks and no
// atomics. When the slice instance finishes (Ctx.finishOpStats, which
// runAttempt guarantees happens before it returns) its frames are added to
// the registry and merged into the query's shared Stats, exactly once. That
// ordering is the EXPLAIN ANALYZE abort guarantee: even a cancelled query's
// Stats are complete (for the work actually done) by the time the caller
// sees them.

// opFrame is the runtime record of one operator. A slice instance keeps one
// frame per plan node; Stats.ops keeps one merged frame per plan node
// (guarded by Stats.mu), built by add over every instance's frame.
type opFrame struct {
	started   bool
	instances int // started slice instances merged into this record; 0 on an instance frame
	rowsOut   int64
	rowsRead  int64 // rows this operator read from storage
	rowsMoved int64 // rows a Motion's sending side shipped
	rowsBuilt int64 // batches whose lazy rows were built from column lanes (Batch.rows)
	nanos     int64 // wall time inside Open+NextBatch+Close, inclusive of children

	cur  int64 // current attributed reservation, bytes (instance frames only)
	peak int64 // high-water mark of cur; max over instances when merged

	spillBytes int64
	spillParts int64

	parts      map[part.OID]bool // selected/scanned partitions (partition-aware ops)
	partsTotal int               // leaf count of the partitioned table; 0 = n/a

	oidHits   int64 // static selections served from the runtime's OID cache
	oidMisses int64 // static selections computed (and cached) on a cache miss
}

// notePart records one selected/scanned partition OID.
func (f *opFrame) notePart(oid part.OID) {
	if f.parts == nil {
		f.parts = map[part.OID]bool{}
	}
	f.parts[oid] = true
}

// add folds o into f: counters sum, peaks and leaf counts take the max,
// partitions union.
func (f *opFrame) add(o *opFrame) {
	f.started = f.started || o.started
	f.instances += o.instances
	f.rowsOut += o.rowsOut
	f.rowsRead += o.rowsRead
	f.rowsMoved += o.rowsMoved
	f.rowsBuilt += o.rowsBuilt
	f.nanos += o.nanos
	f.peak = max(f.peak, o.peak)
	f.spillBytes += o.spillBytes
	f.spillParts += o.spillParts
	f.oidHits += o.oidHits
	f.oidMisses += o.oidMisses
	f.partsTotal = max(f.partsTotal, o.partsTotal)
	for oid := range o.parts {
		f.notePart(oid)
	}
}

// frameTotals is the sum of a set of frames' counters: a query's totals
// over Stats.ops, or one slice instance's over its frames.
type frameTotals struct {
	rowsRead, rowsMoved, rowsBuilt int64
	spillBytes, spillParts         int64
}

func sumFrames(frames map[plan.Node]*opFrame) frameTotals {
	var t frameTotals
	for _, f := range frames {
		t.rowsRead += f.rowsRead
		t.rowsMoved += f.rowsMoved
		t.rowsBuilt += f.rowsBuilt
		t.spillBytes += f.spillBytes
		t.spillParts += f.spillParts
	}
	return t
}

// statsOp decorates an operator with instrumentation. It is inserted by
// buildOp around every operator, so instrumentation is always on.
type statsOp struct {
	n     plan.Node
	inner Operator
	f     *opFrame
}

func (s *statsOp) frame(ctx *Ctx) *opFrame {
	if s.f == nil {
		s.f = ctx.frameFor(s.n)
	}
	return s.f
}

// Wall-clock sampling is opt-in (Stats.EnableTiming, set by the EXPLAIN
// ANALYZE entry points): two clock reads per pull per decorator measurably
// distort sub-millisecond queries, and plain queries never render the
// figure. When timing is off the nanos stay zero and everything else —
// rows, loops, partitions, spill, memory — is collected as usual.

func (s *statsOp) Open(ctx *Ctx) error {
	f := s.frame(ctx)
	f.started = true
	prev := ctx.pushOp(f)
	var t0 time.Time
	if ctx.timed {
		t0 = time.Now()
	}
	err := s.inner.Open(ctx)
	if ctx.timed {
		f.nanos += time.Since(t0).Nanoseconds()
	}
	ctx.popOp(prev)
	return err
}

// NextBatch instruments one batch pull: the frame push and timing happen
// once per batch, not once per row, and rowsOut advances by the batch
// length, so the accounting overhead is amortized across the batch.
func (s *statsOp) NextBatch(ctx *Ctx) (*Batch, error) {
	f := s.frame(ctx)
	prev := ctx.pushOp(f)
	var t0 time.Time
	if ctx.timed {
		t0 = time.Now()
	}
	b, err := s.inner.NextBatch(ctx)
	if ctx.timed {
		f.nanos += time.Since(t0).Nanoseconds()
	}
	ctx.popOp(prev)
	if err == nil {
		f.rowsOut += int64(b.Len())
	}
	return b, err
}

func (s *statsOp) Close(ctx *Ctx) error {
	f := s.frame(ctx)
	prev := ctx.pushOp(f)
	var t0 time.Time
	if ctx.timed {
		t0 = time.Now()
	}
	err := s.inner.Close(ctx)
	if ctx.timed {
		f.nanos += time.Since(t0).Nanoseconds()
	}
	ctx.popOp(prev)
	return err
}

// frameFor returns (creating on demand) this slice instance's frame for a
// plan node. Frames are Ctx-local, so no synchronization is needed.
func (c *Ctx) frameFor(n plan.Node) *opFrame {
	f, ok := c.frames[n]
	if !ok {
		f = &opFrame{}
		c.frames[n] = f
	}
	return f
}

// pushOp makes f the attribution target for reservations and note* calls
// made while an operator body runs; popOp restores the previous target.
func (c *Ctx) pushOp(f *opFrame) *opFrame {
	prev := c.cur
	c.cur = f
	return prev
}

func (c *Ctx) popOp(prev *opFrame) { c.cur = prev }

// finishOpStats publishes this slice instance's frames: their totals go to
// the engine's metrics registry (every attempt's work, retried or not) and
// the frames merge into the shared Stats. Called exactly once per Ctx, after
// the instance's operators are done; idempotence guards the coordinator's
// defer stacking.
func (c *Ctx) finishOpStats() {
	if c.flushed {
		return
	}
	c.flushed = true
	if m := c.Rt.metrics(); m != nil {
		m.publish(sumFrames(c.frames))
	}
	if c.Stats != nil && len(c.frames) > 0 {
		c.Stats.mergeFrames(c.frames)
	}
}

// mergeFrames folds one slice instance's frames into the per-node records.
// Every frame's counters fold, but only a started frame counts as an
// instance ("loops"): a Motion's sending side charges rows to the Motion's
// frame without running the Motion's receive operator. A frame that never
// started still creates its node's record, so Actuals reports the node as
// instrumented but not run.
func (s *Stats) mergeFrames(frames map[plan.Node]*opFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, f := range frames {
		a := s.op(n)
		a.add(f)
		if f.started {
			a.instances++
		}
	}
}

// op returns (creating on demand) the merged record of a plan node. Callers
// hold s.mu.
func (s *Stats) op(n plan.Node) *opFrame {
	if s.ops == nil {
		s.ops = map[plan.Node]*opFrame{}
	}
	a := s.ops[n]
	if a == nil {
		a = &opFrame{}
		s.ops[n] = a
	}
	return a
}

// absorb folds another Stats into s. runWithRetry uses it to publish one
// attempt's scratch record (see the retry-isolation comment there) into the
// caller's accumulated Stats. The registry already counted the attempt when
// its instances finished, so absorb touches the record only.
func (s *Stats) absorb(o *Stats) {
	if o == nil || s == o {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, oa := range o.ops {
		s.op(n).add(oa)
	}
}

// Actuals implements plan.ActualSource: it resolves a plan node to its
// aggregated runtime record. ok=false means the node was never instrumented
// (the query did not run, or the node belongs to a different plan).
func (s *Stats) Actuals(n plan.Node) (plan.Actuals, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.ops[n]
	if !ok {
		return plan.Actuals{}, false
	}
	return plan.Actuals{
		Started:       a.started,
		Instances:     a.instances,
		RowsOut:       a.rowsOut,
		RowsRead:      a.rowsRead,
		Nanos:         a.nanos,
		PeakBytes:     a.peak,
		SpillBytes:    a.spillBytes,
		SpillParts:    a.spillParts,
		PartsSelected: len(a.parts),
		PartsTotal:    a.partsTotal,
		OIDCacheHits:  a.oidHits,
		OIDCacheMiss:  a.oidMisses,
	}, true
}

// ---------------------------------------------------------------- query totals

// The query-wide counters are folds over the merged frames.

func (s *Stats) totals() frameTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sumFrames(s.ops)
}

// RowsScanned returns the total rows read from storage.
func (s *Stats) RowsScanned() int64 { return s.totals().rowsRead }

// RowsMoved returns the total rows transferred through Motions.
func (s *Stats) RowsMoved() int64 { return s.totals().rowsMoved }

// SpilledBytes returns the total bytes operators wrote to spill files.
func (s *Stats) SpilledBytes() int64 { return s.totals().spillBytes }

// SpillParts returns the total spill partitions (and sort runs) created.
func (s *Stats) SpillParts() int64 { return s.totals().spillParts }

// RowsMaterializedBatches returns how many batches a consumer had to turn
// from column lanes back into rows (Batch.rows): the slow road behind a
// columnar producer such as the hash join.
func (s *Stats) RowsMaterializedBatches() int64 { return s.totals().rowsBuilt }

// scanTable names the table a leaf-scan node reads; ok is false for every
// other node (a PartitionSelector selects partitions but scans none).
func scanTable(n plan.Node) (string, bool) {
	switch x := n.(type) {
	case *plan.Scan:
		return x.Table.Name, true
	case *plan.DynamicScan:
		return x.Table.Name, true
	case *plan.IndexScan:
		return x.Table.Name, true
	case *plan.DynamicIndexScan:
		return x.Table.Name, true
	}
	return "", false
}

// PartsScanned returns the number of distinct leaf partitions of the named
// table that were actually opened: the union of the partitions on the
// table's scan-node frames (over all segments).
func (s *Stats) PartsScanned(table string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := map[part.OID]bool{}
	for n, f := range s.ops {
		if t, ok := scanTable(n); ok && t == table {
			maps.Copy(parts, f.parts)
		}
	}
	return len(parts)
}

// TablesScanned lists the tables that had any partition scanned.
func (s *Stats) TablesScanned() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n, f := range s.ops {
		if t, ok := scanTable(n); ok && len(f.parts) > 0 && !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------- Ctx note helpers

// The note helpers charge the running operator's frame and nothing else.
// c.cur is nil only when a test drives a bare operator without a statsOp.

// noteRowsScanned records rows read from storage.
func (c *Ctx) noteRowsScanned(n int64) {
	if c.cur != nil {
		c.cur.rowsRead += n
	}
}

// notePartScanned records one leaf partition actually opened.
func (c *Ctx) notePartScanned(leaf part.OID) {
	if c.cur != nil {
		c.cur.notePart(leaf)
	}
}

// noteRowsMoved records rows shipped through a Motion; the slice driver
// runs the send under the Motion's frame.
func (c *Ctx) noteRowsMoved(n int64) {
	if c.cur != nil {
		c.cur.rowsMoved += n
	}
}

// noteOIDCache records one static-selection OID-cache outcome on the
// running operator's frame (EXPLAIN ANALYZE's "OID cache" line).
func (c *Ctx) noteOIDCache(hit bool) {
	if c.cur == nil {
		return
	}
	if hit {
		c.cur.oidHits++
	} else {
		c.cur.oidMisses++
	}
}

// noteSpill records one operator's spill activity: encoded bytes written to
// disk and the number of spill partitions (or sort runs) produced.
func (c *Ctx) noteSpill(bytes, parts int64) {
	if c.cur != nil {
		c.cur.spillBytes += bytes
		c.cur.spillParts += parts
	}
}

// noteRowsMaterialized records one batch whose lazy rows were built from
// its column lanes.
func (c *Ctx) noteRowsMaterialized() {
	if c.cur != nil {
		c.cur.rowsBuilt++
	}
}

// attributeReserve/attributeRelease keep the running operator's high-water
// reservation mark. They are called from the Ctx reserve/release wrappers,
// so every operator's peak memory is tracked even ungoverned (nil budget
// grants everything but the attribution still measures the working set).
func (c *Ctx) attributeReserve(n int64) {
	if c.cur == nil {
		return
	}
	c.cur.cur += n
	if c.cur.cur > c.cur.peak {
		c.cur.peak = c.cur.cur
	}
}

func (c *Ctx) attributeRelease(n int64) {
	if c.cur == nil {
		return
	}
	c.cur.cur -= n
	if c.cur.cur < 0 {
		c.cur.cur = 0
	}
}

// ---------------------------------------------------------------- engine metrics

// runtimeMetrics caches the executor's obs instruments so the lifecycle
// hooks and the per-instance publish pay one pointer load instead of a
// registry lookup.
type runtimeMetrics struct {
	started         *obs.Counter
	finished        *obs.Counter
	failed          *obs.Counter
	retried         *obs.Counter
	admissionWaited *obs.Counter
	spillBytes      *obs.Counter
	spillParts      *obs.Counter
	motionRows      *obs.Counter
	rowsScanned     *obs.Counter
	rowsBuilt       *obs.Counter // batches materialized from column lanes (Batch.rows)
	active          *obs.Gauge
	latency         *obs.Histogram
}

// metrics lazily resolves the runtime's instruments; nil when no registry
// is attached.
func (rt *Runtime) metrics() *runtimeMetrics {
	if rt == nil || rt.Obs == nil {
		return nil
	}
	rt.obsOnce.Do(func() {
		r := rt.Obs
		rt.om = &runtimeMetrics{
			started:         r.Counter("partopt_queries_started_total"),
			finished:        r.Counter("partopt_queries_finished_total"),
			failed:          r.Counter("partopt_queries_failed_total"),
			retried:         r.Counter("partopt_queries_retried_total"),
			admissionWaited: r.Counter("partopt_queries_admission_waited_total"),
			spillBytes:      r.Counter("partopt_spill_bytes_total"),
			spillParts:      r.Counter("partopt_spill_parts_total"),
			motionRows:      r.Counter("partopt_motion_rows_total"),
			rowsScanned:     r.Counter("partopt_rows_scanned_total"),
			rowsBuilt:       r.Counter("partopt_exec_rows_materialized_batches_total"),
			active:          r.Gauge("partopt_queries_active"),
			latency:         r.Histogram("partopt_query_latency_seconds", obs.DefaultLatencyBuckets()),
		}
	})
	return rt.om
}

// publish adds one slice instance's totals to the data-flow counters.
func (m *runtimeMetrics) publish(t frameTotals) {
	m.rowsScanned.Add(t.rowsRead)
	m.motionRows.Add(t.rowsMoved)
	m.spillBytes.Add(t.spillBytes)
	m.spillParts.Add(t.spillParts)
	m.rowsBuilt.Add(t.rowsBuilt)
}
