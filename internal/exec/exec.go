// Package exec is the MPP execution engine: a pull-based, batch-at-a-time
// interpreter that runs physical plans on a simulated shared-nothing
// cluster. Plans are cut into slices at Motion boundaries; every (slice ×
// segment) pair runs as its own goroutine — the analogue of GPDB's
// per-slice segment processes — and Motions move rows between them over
// channels.
//
// PartitionSelector and DynamicScan communicate through a per-process OID
// mailbox (the paper's shared-memory channel, §2.2/§3). Because mailboxes
// are scoped to one slice instance, a plan that puts a Motion between a
// selector and its scan fails at run time — the executor enforces the
// paper's §3.1 process-colocation constraint rather than papering over it.
package exec

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"partopt/internal/fault"
	"partopt/internal/mem"
	"partopt/internal/obs"
	"partopt/internal/oidcache"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// Runtime binds the executor to a cluster's storage and carries the
// cluster-wide lifecycle knobs.
type Runtime struct {
	Store *storage.Store

	// Faults, when non-nil, injects failures at the executor's named fault
	// points (see internal/fault). Nil disables injection with no per-row
	// cost beyond the nil check.
	Faults *fault.Injector

	// Retry bounds coordinator-side re-execution of read-only queries that
	// failed with a transient error. The zero value disables retry.
	Retry RetryPolicy

	// FTS, when non-nil, receives segment-death evidence from the read path
	// and decides failovers. A retried attempt re-snapshots the primary map,
	// so the retry dispatches to post-failover primaries. Nil disables
	// evidence reporting (reads still follow the store's primary map).
	FTS FailureReporter

	// Gov, when non-nil, governs memory and admission: every query runs
	// under a per-query budget drawn from it, memory-hungry operators spill
	// when denied working memory, and queries queue when the concurrency
	// bound is reached. Nil runs ungoverned (unlimited memory, no queue).
	Gov *mem.Governor

	// Obs, when non-nil, receives engine-wide metrics (query counts and
	// latency, spill volume, motion traffic). Nil disables the registry;
	// per-query OpStats are recorded regardless.
	Obs *obs.Registry

	// OIDCache, when non-nil, caches the OID sets fully static
	// PartitionSelectors compute at Open, keyed by (table, derived
	// intervals) under the cache's catalog epoch. Hub (join-driven)
	// selectors and unconstrained selections bypass it. Nil recomputes
	// every selection.
	OIDCache *oidcache.Cache

	obsOnce sync.Once
	om      *runtimeMetrics
}

// Segments returns the cluster width.
func (rt *Runtime) Segments() int { return rt.Store.Segments() }

// FailureReporter is the slice of the fault tolerance service the executor
// needs (satisfied by *fts.Service): it receives evidence that reading
// (seg, replica) failed and reports whether the cluster failed over past
// the accused replica — true meaning a retry against the refreshed primary
// map can succeed.
type FailureReporter interface {
	ReportFailure(ctx context.Context, seg, replica int, evidence error) bool
}

// Params carries run-time bindings: prepared-statement parameter values and
// the OID-set parameters used by the legacy planner's dynamic elimination.
type Params struct {
	Vals    []types.Datum
	OIDSets map[int]map[part.OID]bool
}

// Stats is a query's execution record: one merged opFrame per plan node.
// It holds no other counter — the query-wide totals (rows scanned, rows
// moved, partitions scanned, spill, aggregate batches) are folds over the
// frames (see opstats.go), so every view of a query reads one record.
// Partition-scan accounting drives the paper's Table 3 and Figure 16
// reproductions.
type Stats struct {
	mu sync.Mutex

	// ops is the per-operator runtime record, keyed by plan node. Keying by
	// node identity (not a numeric id) keeps the trees of a multi-plan
	// execution — the legacy planner's prep plans plus its main plan share
	// one Stats — disjoint for free. Retry attempts do NOT accumulate:
	// runWithRetry runs each attempt into a scratch Stats and absorbs only
	// the final attempt, so EXPLAIN ANALYZE never mixes a failed attempt's
	// partial counts with the attempt that produced the answer.
	ops map[plan.Node]*opFrame

	// timed enables per-operator wall-clock sampling (the EXPLAIN ANALYZE
	// "time=" figure). Row, partition and spill counters are always
	// collected; clock reads are opt-in because two of them per batch pull
	// per decorator measurably distort short queries — the same reason
	// Postgres offers EXPLAIN (ANALYZE, TIMING OFF). Set before the query
	// starts, read-only while it runs.
	timed bool
}

// NewStats returns an empty execution record.
func NewStats() *Stats { return &Stats{} }

// EnableTiming turns on per-operator wall-clock sampling for queries run
// with this Stats. Must be called before execution begins.
func (s *Stats) EnableTiming() { s.timed = true }

// oidBox is the shared-memory mailbox between PartitionSelectors
// (producers) and their DynamicScan (consumer) within one process. A scan
// may have several selectors — e.g. a join-driven one on the build side
// and a static one directly above the scan — whose selections intersect:
// a partition is read only if every producer selected it.
type oidBox struct {
	sets   []map[part.OID]bool
	sealed []bool
}

// Ctx is the per-(slice × segment) execution context — the state of one
// simulated segment process. Its context.Context is the query lifecycle:
// when it is cancelled (first error, deadline, caller cancel) every slice
// instance aborts instead of running to completion.
type Ctx struct {
	Rt     *Runtime
	Seg    int // executing segment; CoordinatorSeg on the coordinator
	Params *Params
	Stats  *Stats
	boxes  map[int]*oidBox
	goCtx  context.Context
	done   <-chan struct{} // goCtx.Done(), cached for hot selects
	polls  uint            // pollAbort call counter (Ctx is goroutine-local)
	budget *mem.Budget     // query memory account, shared by all slice instances; nil = ungoverned

	// primaries is the attempt's snapshot of the store's primary map: which
	// replica serves each segment. Snapshotting once per attempt keeps every
	// slice instance of the attempt reading one consistent replica set even
	// if a concurrent failover flips the live map mid-query; the retry takes
	// a fresh snapshot and lands on the promoted mirrors. Nil (RunLocal,
	// unmirrored stores) means replica 0 everywhere.
	primaries []int

	// Per-operator instrumentation (see opstats.go). frames and cur are
	// goroutine-local; finishOpStats publishes them to the registry and
	// Stats exactly once.
	// timed caches Stats.timed so the per-pull check is a field read.
	frames  map[plan.Node]*opFrame
	cur     *opFrame
	flushed bool
	timed   bool
}

// CoordinatorSeg is the pseudo-segment id of the coordinator process.
const CoordinatorSeg = -1

func newCtx(rt *Runtime, seg int, params *Params, stats *Stats, goCtx context.Context, budget *mem.Budget, primaries []int) *Ctx {
	if params == nil {
		params = &Params{}
	}
	if goCtx == nil {
		goCtx = context.Background()
	}
	return &Ctx{Rt: rt, Seg: seg, Params: params, Stats: stats, boxes: map[int]*oidBox{},
		goCtx: goCtx, done: goCtx.Done(), budget: budget, primaries: primaries,
		frames: map[plan.Node]*opFrame{}, timed: stats != nil && stats.timed}
}

// replica reports which physical replica this slice instance reads for its
// segment under the attempt's primary-map snapshot.
func (c *Ctx) replica() int {
	if c.primaries == nil || c.Seg < 0 || c.Seg >= len(c.primaries) {
		return 0
	}
	return c.primaries[c.Seg]
}

// Context returns the query's lifecycle context, for operators that block.
func (c *Ctx) Context() context.Context { return c.goCtx }

// Budget exposes the query's memory account (nil when ungoverned) so
// spilling operators can open spill files in the query's private directory.
func (c *Ctx) Budget() *mem.Budget { return c.budget }

// reserve asks the budget for n bytes of working memory. A denial means
// "spill"; ungoverned contexts always grant. Granted bytes are attributed
// to the running operator's frame for peak-memory accounting.
func (c *Ctx) reserve(n int64) error {
	if err := c.budget.Reserve(c.goCtx, c.Seg, n); err != nil {
		return err
	}
	c.attributeReserve(n)
	return nil
}

// reserveHard reserves an operator's irreducible working set; failure is a
// final out-of-memory error, not a spill request.
func (c *Ctx) reserveHard(n int64) error {
	if err := c.budget.ReserveHard(c.goCtx, c.Seg, n); err != nil {
		return err
	}
	c.attributeReserve(n)
	return nil
}

// release returns n reserved bytes.
func (c *Ctx) release(n int64) {
	c.budget.Release(n)
	c.attributeRelease(n)
}

// accountChunk sizes one motion-buffered chunk (mem.RowBytes per row) and
// attributes it to the query (no denial; raises pressure so spillable
// operators yield memory sooner). The sender ships the returned figure with
// the chunk, so account and release always agree. An ungoverned query
// accounts nothing, so it skips the per-datum walk and the figure is 0.
func (c *Ctx) accountChunk(rows []types.Row) int64 {
	if c.budget == nil {
		return 0
	}
	var n int64
	for _, row := range rows {
		n += mem.RowBytes(row)
	}
	c.budget.Account(n)
	return n
}

// releaseChunkBytes undoes accountChunk once the chunk leaves the motion
// buffer.
func (c *Ctx) releaseChunkBytes(n int64) {
	c.budget.Release(n)
}

// pollAbort samples the query context for cancellation. Row loops that read
// spill files call it per row; it only touches the context once every
// abortPollInterval calls, keeping the hot path at an increment and a mask.
const abortPollInterval = 64

func (c *Ctx) pollAbort() error {
	c.polls++
	if c.polls&(abortPollInterval-1) != 0 || c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return errQueryAborted
	default:
		return nil
	}
}

// pollAbortBatch samples the query context once per batch. Unlike pollAbort
// it checks on every call: a batch already amortizes hundreds of rows, so
// the select is cheap and cancellation latency stays bounded by one batch
// rather than abortPollInterval of them.
func (c *Ctx) pollAbortBatch() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return errQueryAborted
	default:
		return nil
	}
}

// hitFault triggers the named executor fault point for this segment when an
// injector is armed on the runtime.
func (c *Ctx) hitFault(p fault.Point) error {
	if c.Rt == nil || c.Rt.Faults == nil {
		return nil
	}
	return c.Rt.Faults.Hit(c.goCtx, p, c.Seg)
}

// box returns (creating on demand) the mailbox for a partScanId.
func (c *Ctx) box(partScanID int) *oidBox {
	b, ok := c.boxes[partScanID]
	if !ok {
		b = &oidBox{}
		c.boxes[partScanID] = b
	}
	return b
}

// registerSelector adds a producer to the mailbox and returns its handle.
// Every selector registers at Open, before its DynamicScan can open (the
// executor's operator ordering guarantees it within one process).
func (c *Ctx) registerSelector(partScanID int) int {
	b := c.box(partScanID)
	b.sets = append(b.sets, map[part.OID]bool{})
	b.sealed = append(b.sealed, false)
	return len(b.sets) - 1
}

// pushOIDs implements the builtin partition_propagation (paper Table 1):
// the selector pushes OIDs to the DynamicScan with the given id.
func (c *Ctx) pushOIDs(partScanID, handle int, oids []part.OID) {
	b := c.box(partScanID)
	if b.sealed[handle] {
		panic(fmt.Sprintf("exec: partition_propagation after completion for partScanId %d", partScanID))
	}
	for _, o := range oids {
		b.sets[handle][o] = true
	}
}

// sealOIDs marks one producer complete; the DynamicScan may start once
// every producer sealed.
func (c *Ctx) sealOIDs(partScanID, handle int) { c.box(partScanID).sealed[handle] = true }

// selectedOIDs returns the intersection of all producers' selections in a
// stable order, or an error when no selector completed in this process.
func (c *Ctx) selectedOIDs(partScanID int) ([]part.OID, error) {
	b, ok := c.boxes[partScanID]
	if !ok || len(b.sets) == 0 {
		return nil, fmt.Errorf("exec: DynamicScan(%d) has no completed PartitionSelector in its process — a Motion separates the pair (paper §3.1 constraint violated)", partScanID)
	}
	for _, sealed := range b.sealed {
		if !sealed {
			return nil, fmt.Errorf("exec: DynamicScan(%d) opened before its PartitionSelector completed", partScanID)
		}
	}
	var out []part.OID
	for o := range b.sets[0] {
		inAll := true
		for _, set := range b.sets[1:] {
			if !set[o] {
				inAll = false
				break
			}
		}
		if inAll {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// RowID field layout of EncodeRowID: the heap index in the low 24 bits,
// the leaf OID in the next 24, the segment above them. The fields are not
// checked on encode: a value past its field's range spills into the
// neighbouring field, and an UPDATE or DELETE would address another leaf's
// row. checkRowIDRange guards every RowID-bearing read instead.
const (
	rowIDIdxBits  = 24
	rowIDLeafBits = 24
	rowIDSegBits  = 15 // the segment field stops below the sign bit

	rowIDMaxIdx  = 1<<rowIDIdxBits - 1
	rowIDMaxLeaf = 1<<rowIDLeafBits - 1
	rowIDMaxSeg  = 1<<rowIDSegBits - 1
)

// encodeRowID is EncodeRowID's unboxed form, the value of a RowID lane.
func encodeRowID(seg int, leaf part.OID, idx int) int64 {
	return int64(seg)<<(rowIDIdxBits+rowIDLeafBits) | int64(leaf)<<rowIDIdxBits | int64(idx)
}

// EncodeRowID packs a storage RowID into an int64 datum (the ctid
// pseudo-column value). Segments, leaves and heap indexes each get a
// bounded field (see rowIDIdxBits); callers stay inside the bounds by
// checking each read with checkRowIDRange.
func EncodeRowID(id storage.RowID) types.Datum {
	return types.NewInt(encodeRowID(id.Seg, id.Leaf, id.Idx))
}

// DecodeRowID unpacks an EncodeRowID datum.
func DecodeRowID(d types.Datum) storage.RowID {
	v := d.Int()
	return storage.RowID{
		Seg:  int(v >> (rowIDIdxBits + rowIDLeafBits)),
		Leaf: part.OID((v >> rowIDIdxBits) & rowIDMaxLeaf),
		Idx:  int(v & rowIDMaxIdx),
	}
}

// checkRowIDRange reports an error when a RowID-bearing read of heap
// positions [0, n) of (seg, leaf) would not fit EncodeRowID's fields.
func checkRowIDRange(seg int, leaf part.OID, n int) error {
	switch {
	case seg < 0 || seg > rowIDMaxSeg:
		return fmt.Errorf("exec: segment %d exceeds the RowID segment field (max %d)", seg, rowIDMaxSeg)
	case leaf < 0 || leaf > rowIDMaxLeaf:
		return fmt.Errorf("exec: leaf OID %d exceeds the RowID leaf field (max %d)", leaf, rowIDMaxLeaf)
	case n > rowIDMaxIdx+1:
		return fmt.Errorf("exec: leaf %d on seg %d holds %d rows, which exceeds the RowID heap-index field (max %d rows)", leaf, seg, n, rowIDMaxIdx+1)
	}
	return nil
}
