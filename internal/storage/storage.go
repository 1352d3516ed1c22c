// Package storage implements the in-memory MPP storage substrate: every
// table's rows live in per-(segment × leaf-partition) heaps. Inserts route
// tuples to a leaf with the partitioning function fT and to a segment with
// the distribution policy; replicated tables hold a full copy per segment.
//
// The layout mirrors what the paper relies on: "given a logical partition
// OID the storage layer can locate and retrieve the tuples belonging to
// that partition" (§2.1), independently on every segment.
//
// # Columnar heaps
//
// Each (segment × leaf × replica) heap is a vec.ColumnSet: one typed
// vector per table column plus a null bitmap, instead of a []types.Row of
// boxed datums. The row-oriented API survives unchanged on top — ScanLeaf
// returns the set's cached row view (an arena materialized once per heap
// version and replaced, never mutated, on write, so handed-out rows stay
// stable forever), and DML addresses rows by the same RowID positions,
// applied lane-wise (SetRow, swap-delete). The executor's vectorized
// kernels read the column vectors directly via ScanLeafColsAt, or via
// ScanLeafLanesAt without the row view at all.
//
// # Mirrored replicas
//
// With EnableMirrors every logical segment holds two physical replicas of
// its data (GPDB's primary/mirror pair). DML applies to both replicas
// inside the same per-table critical section, in the same order, so the
// column sets — including swap-delete reordering and therefore RowID
// indexes — stay byte-identical across replicas and a failover is
// invisible to readers. A replica can be killed (KillReplica) and later
// revived (ReviveReplica, which resyncs by cloning the surviving replica's
// column sets when writes happened in between); reads from a dead replica
// fail with *DeadSegmentError, and the fault tolerance service
// (internal/fts) promotes the mirror via Promote.
package storage

import (
	"cmp"
	"context"
	"fmt"
	"sync"

	"partopt/internal/catalog"
	"partopt/internal/fault"
	"partopt/internal/part"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// RowID identifies a stored row physically: segment, leaf partition, index
// within the heap. It is the analogue of PostgreSQL's ctid and is used by
// DML to address rows produced by a scan.
type RowID struct {
	Seg  int
	Leaf part.OID
	Idx  int
}

// NumReplicas is the physical replica count per logical segment once
// mirroring is enabled: a primary and one synchronously-applied mirror.
const NumReplicas = 2

// DeadSegmentError reports a read or write addressed to a replica that has
// been killed. It carries no Transient method on purpose: whether a retry
// can succeed is a failover decision, made by the executor's FTS evidence
// path (exec.SegmentFailureError), not by the storage layer.
type DeadSegmentError struct {
	Seg     int
	Replica int
}

func (e *DeadSegmentError) Error() string {
	return fmt.Sprintf("storage: segment %d replica %d is down", e.Seg, e.Replica)
}

// heapMap is one replica's heap array: per segment, the leaf column sets.
type heapMap []map[part.OID]*vec.ColumnSet

// tableData holds one table's rows and secondary indexes.
type tableData struct {
	tab   *catalog.Table
	kinds []types.Kind // declared lane kinds, one per column
	mu    sync.RWMutex
	// heaps[segment][leafOID] — for unpartitioned tables the single heap
	// is keyed by the table's root OID. heaps is replica 0; mirror, non-nil
	// once mirroring is enabled, is replica 1 with identical layout.
	heaps   heapMap
	mirror  heapMap
	indexes []*tableIndex
}

// heapsOf returns one replica's heap array (nil for an unallocated mirror).
func (td *tableData) heapsOf(replica int) heapMap {
	if replica == 0 {
		return td.heaps
	}
	return td.mirror
}

// leafSet returns the column set of one (segment, leaf), creating it on
// first write. Callers hold td.mu exclusively.
func (td *tableData) leafSet(h heapMap, seg int, leaf part.OID) *vec.ColumnSet {
	cs := h[seg][leaf]
	if cs == nil {
		cs = vec.NewColumnSet(td.kinds)
		h[seg][leaf] = cs
	}
	return cs
}

// Store is the storage layer of one simulated cluster.
type Store struct {
	segments int
	mu       sync.RWMutex
	tables   map[part.OID]*tableData
	faults   *fault.Injector

	// Replica bookkeeping, guarded by mu. primary[seg] is the replica
	// serving reads (flipped by Promote on failover); alive and stale track
	// per-replica liveness and whether a dead replica missed writes.
	mirrored bool
	primary  []int
	alive    [][NumReplicas]bool
	stale    [][NumReplicas]bool
}

// SetFaults arms (or, with nil, disarms) storage-layer fault injection —
// the fault.StorageScan point in ScanLeaf. Arm it before running queries;
// it is not synchronized against in-flight scans.
func (s *Store) SetFaults(in *fault.Injector) { s.faults = in }

// NewStore creates storage for a cluster with the given segment count.
func NewStore(segments int) *Store {
	if segments < 1 {
		panic("storage: need at least one segment")
	}
	s := &Store{
		segments: segments,
		tables:   map[part.OID]*tableData{},
		primary:  make([]int, segments),
		alive:    make([][NumReplicas]bool, segments),
		stale:    make([][NumReplicas]bool, segments),
	}
	for seg := range s.alive {
		s.alive[seg][0] = true
	}
	return s
}

// Segments returns the cluster's segment count.
func (s *Store) Segments() int { return s.segments }

// EnableMirrors gives every logical segment a second replica, cloning any
// existing data into it. Idempotent; safe only while no queries run.
func (s *Store) EnableMirrors() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mirrored {
		return
	}
	s.mirrored = true
	for seg := range s.alive {
		s.alive[seg][1] = true
	}
	for _, td := range s.tables {
		td.mu.Lock()
		td.mirror = cloneHeaps(td.heaps)
		td.mu.Unlock()
	}
}

// cloneHeaps deep-copies a heap array: maps and column sets copied (string
// payload bytes stay shared — strings are immutable).
func cloneHeaps(src heapMap) heapMap {
	out := make(heapMap, len(src))
	for seg, m := range src {
		cp := make(map[part.OID]*vec.ColumnSet, len(m))
		for leaf, cs := range m {
			cp[leaf] = cs.Clone()
		}
		out[seg] = cp
	}
	return out
}

// Mirrored reports whether segments carry mirror replicas.
func (s *Store) Mirrored() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mirrored
}

// Primary returns the replica currently serving segment seg.
func (s *Store) Primary(seg int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.primary[seg]
}

// PrimaryMap snapshots the per-segment primary replica assignment. The
// executor takes one snapshot per query attempt, so a failover mid-attempt
// surfaces as an error plus a retry against the new map rather than a
// torn read.
func (s *Store) PrimaryMap() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]int(nil), s.primary...)
}

// ReplicaAlive reports one replica's liveness.
func (s *Store) ReplicaAlive(seg, replica int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return seg >= 0 && seg < s.segments && replica >= 0 && replica < NumReplicas && s.alive[seg][replica]
}

// KillReplica simulates the death of one physical replica: subsequent
// reads and writes addressed to it fail with *DeadSegmentError until
// ReviveReplica. Killing the acting primary makes the segment unserveable
// until the FTS promotes the mirror.
func (s *Store) KillReplica(seg, replica int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkReplicaLocked(seg, replica); err != nil {
		return err
	}
	s.alive[seg][replica] = false
	return nil
}

// ReviveReplica brings a dead replica back. If writes were applied while
// it was down (the replica is stale), its column sets are resynchronized
// by cloning from the surviving replica before it is marked alive — GPDB's
// full recovery, compressed into a clone.
func (s *Store) ReviveReplica(seg, replica int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkReplicaLocked(seg, replica); err != nil {
		return err
	}
	if s.alive[seg][replica] {
		return nil
	}
	if s.stale[seg][replica] {
		src := 1 - replica
		for _, td := range s.tables {
			td.mu.Lock()
			from, to := td.heapsOf(src), td.heapsOf(replica)
			if from != nil && to != nil {
				cp := make(map[part.OID]*vec.ColumnSet, len(from[seg]))
				for leaf, cs := range from[seg] {
					cp[leaf] = cs.Clone()
				}
				to[seg] = cp
			}
			td.mu.Unlock()
		}
		s.stale[seg][replica] = false
	}
	s.alive[seg][replica] = true
	return nil
}

// Promote flips the segment's primary to the other replica — the failover
// step the FTS executes once it declares the acting primary down. It fails
// when the would-be primary is itself dead (double fault: the segment is
// lost until a replica is revived).
func (s *Store) Promote(seg int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkReplicaLocked(seg, 0); err != nil {
		return err
	}
	next := 1 - s.primary[seg]
	if !s.alive[seg][next] {
		return fmt.Errorf("storage: cannot promote segment %d: replica %d is down too", seg, next)
	}
	s.primary[seg] = next
	return nil
}

// ProbeReplica is the FTS health probe: it fires the fault.SegProbe point
// when probing the segment's acting primary (so probe timeouts can be
// injected without killing data), then reports the replica's liveness.
func (s *Store) ProbeReplica(ctx context.Context, seg, replica int) error {
	s.mu.RLock()
	isPrimary := seg >= 0 && seg < s.segments && s.primary[seg] == replica
	s.mu.RUnlock()
	if isPrimary {
		if err := s.faults.Hit(ctx, fault.SegProbe, seg); err != nil {
			return err
		}
	}
	if !s.ReplicaAlive(seg, replica) {
		return &DeadSegmentError{Seg: seg, Replica: replica}
	}
	return nil
}

func (s *Store) checkReplicaLocked(seg, replica int) error {
	if !s.mirrored {
		return fmt.Errorf("storage: mirroring is not enabled")
	}
	if seg < 0 || seg >= s.segments {
		return fmt.Errorf("storage: segment %d out of range", seg)
	}
	if replica < 0 || replica >= NumReplicas {
		return fmt.Errorf("storage: replica %d out of range", replica)
	}
	return nil
}

// writeView decides which replicas one segment's write applies to: every
// live replica. The write fails if the acting primary is dead (DML needs a
// live primary — the same rule GPDB enforces); a dead mirror is marked
// stale so ReviveReplica knows to resync it.
func (s *Store) writeView(seg int) ([NumReplicas]bool, error) {
	var apply [NumReplicas]bool
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.mirrored {
		apply[0] = true
		return apply, nil
	}
	p := s.primary[seg]
	if !s.alive[seg][p] {
		return apply, &DeadSegmentError{Seg: seg, Replica: p}
	}
	apply[p] = true
	other := 1 - p
	if s.alive[seg][other] {
		apply[other] = true
	} else {
		s.stale[seg][other] = true
	}
	return apply, nil
}

// CreateTable allocates heaps for a catalog table.
func (s *Store) CreateTable(t *catalog.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[t.OID]; exists {
		panic(fmt.Sprintf("storage: table %q already created", t.Name))
	}
	kinds := make([]types.Kind, len(t.Cols))
	for i, c := range t.Cols {
		kinds[i] = c.Kind
	}
	td := &tableData{tab: t, kinds: kinds, heaps: make(heapMap, s.segments)}
	for i := range td.heaps {
		td.heaps[i] = map[part.OID]*vec.ColumnSet{}
	}
	if s.mirrored {
		td.mirror = make(heapMap, s.segments)
		for i := range td.mirror {
			td.mirror[i] = map[part.OID]*vec.ColumnSet{}
		}
	}
	s.tables[t.OID] = td
}

func (s *Store) data(root part.OID) (*tableData, error) {
	s.mu.RLock()
	td, ok := s.tables[root]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: no table with OID %d", root)
	}
	return td, nil
}

// partKeys extracts the per-level partitioning key datums from a row.
func partKeys(t *catalog.Table, row types.Row) []types.Datum {
	ords := t.Part.KeyOrds()
	keys := make([]types.Datum, len(ords))
	for i, o := range ords {
		keys[i] = row[o]
	}
	return keys
}

// targetSegment computes the home segment of a row under hash distribution.
func (s *Store) targetSegment(t *catalog.Table, row types.Row) int {
	h := types.HashRow(row, t.Dist.KeyOrds)
	return int(h % uint64(s.segments))
}

// routeLeaf computes the leaf a row belongs to (fT), validating arity.
func routeLeaf(t *catalog.Table, row types.Row) (part.OID, error) {
	if len(row) != len(t.Cols) {
		return part.InvalidOID, fmt.Errorf("storage: table %q: row has %d columns, want %d", t.Name, len(row), len(t.Cols))
	}
	if !t.IsPartitioned() {
		return t.OID, nil
	}
	leaf := t.Part.Route(partKeys(t, row))
	if leaf == part.InvalidOID {
		return part.InvalidOID, fmt.Errorf("storage: table %q: row %s maps to no partition", t.Name, row)
	}
	return leaf, nil
}

// Insert routes one row to its leaf partition and segment(s): it is a
// one-row InsertBatch. It returns an error for a row that maps to no
// partition (fT = ⊥) or has the wrong arity.
func (s *Store) Insert(t *catalog.Table, row types.Row) error {
	return s.InsertBatch(t, []types.Row{row})
}

// InsertBatch inserts many rows in one critical section: every row is
// validated and routed up front, then the batch is grouped per
// (segment, leaf) destination and appended column-wise with one bulk
// append per leaf set and replica. Routing or arity errors reject the
// whole batch before anything is applied, and so does a dead acting
// primary on any touched segment. Write views are resolved per touched
// segment, so a dead mirror is marked stale and both live replicas receive
// identical appends in identical order.
func (s *Store) InsertBatch(t *catalog.Table, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	td, err := s.data(t.OID)
	if err != nil {
		return err
	}
	type dest struct {
		seg  int
		leaf part.OID
	}
	groups := map[dest][]types.Row{}
	var order []dest // deterministic application order
	add := func(seg int, leaf part.OID, row types.Row) {
		d := dest{seg: seg, leaf: leaf}
		g, ok := groups[d]
		if !ok {
			order = append(order, d)
		}
		groups[d] = append(g, row)
	}
	replicated := t.Dist.Kind == catalog.DistReplicated
	for _, row := range rows {
		leaf, err := routeLeaf(t, row)
		if err != nil {
			return err
		}
		if replicated {
			for seg := 0; seg < s.segments; seg++ {
				add(seg, leaf, row)
			}
		} else {
			add(s.targetSegment(t, row), leaf, row)
		}
	}
	// Resolve write views for every touched segment before taking td.mu
	// (lock order: Store.mu inside writeView precedes tableData.mu).
	views := make(map[int][NumReplicas]bool)
	for _, d := range order {
		if _, ok := views[d.seg]; ok {
			continue
		}
		v, err := s.writeView(d.seg)
		if err != nil {
			return err
		}
		views[d.seg] = v
	}
	td.mu.Lock()
	defer td.mu.Unlock()
	td.invalidateIndexesLocked()
	for _, d := range order {
		batch := groups[d]
		for rep, on := range views[d.seg] {
			if on {
				td.leafSet(td.heapsOf(rep), d.seg, d.leaf).AppendRows(batch)
			}
		}
	}
	return nil
}

// ScanLeaf returns the rows of one (segment, leaf) from the segment's
// acting primary replica. The returned rows come from the column set's
// cached row view: they stay valid indefinitely (writes replace the view,
// they never mutate it), but callers must not modify them.
func (s *Store) ScanLeaf(root part.OID, seg int, leaf part.OID) ([]types.Row, error) {
	rep := 0
	if seg >= 0 && seg < s.segments {
		rep = s.Primary(seg)
	}
	return s.ScanLeafAt(root, seg, rep, leaf)
}

// ScanLeafAt is the replica-addressed read: the executor dispatches to the
// replica its per-attempt segment map names. Reading a dead replica fails
// with *DeadSegmentError, which the executor reports to the FTS as
// failure evidence.
func (s *Store) ScanLeafAt(root part.OID, seg, replica int, leaf part.OID) ([]types.Row, error) {
	_, rows, _, err := s.scanLeafSet(root, seg, replica, leaf, false, true)
	return rows, err
}

// ScanLeafColsAt is ScanLeafAt's columnar twin: it returns lane view
// snapshots of the leaf's columns (nil for an empty leaf) alongside the
// cached row view, so the executor can emit zero-copy column windows while
// keeping the batch's row view populated for row-oriented operators. Both
// are captured under the table's read lock and stay valid afterward: a
// later writer copies the lanes rather than touching a handed-out
// snapshot. Read-only for callers.
func (s *Store) ScanLeafColsAt(root part.OID, seg, replica int, leaf part.OID) ([]vec.View, []types.Row, error) {
	views, rows, _, err := s.scanLeafSet(root, seg, replica, leaf, true, true)
	return views, rows, err
}

// ScanLeafLanesAt is the lane-only read: the leaf's column snapshot and
// its row count, without the row view — a write invalidates that view, and
// a reader that never needs most of the rows (the target scan of an
// UPDATE or DELETE) should not rebuild it. The snapshot has
// ScanLeafColsAt's lifetime and is read-only for callers.
func (s *Store) ScanLeafLanesAt(root part.OID, seg, replica int, leaf part.OID) ([]vec.View, int, error) {
	views, _, n, err := s.scanLeafSet(root, seg, replica, leaf, true, false)
	return views, n, err
}

// scanLeafSet validates the read address and captures, under the table's
// read lock, the leaf's row count plus its column snapshot (withCols) and
// its row view (withRows; nil when the leaf holds no rows), so neither
// can race a concurrent writer and both outlive the lock by the
// cache-generation contract. Without withRows the row view is neither
// built nor read.
func (s *Store) scanLeafSet(root part.OID, seg, replica int, leaf part.OID, withCols, withRows bool) ([]vec.View, []types.Row, int, error) {
	td, err := s.data(root)
	if err != nil {
		return nil, nil, 0, err
	}
	if seg < 0 || seg >= s.segments {
		return nil, nil, 0, fmt.Errorf("storage: segment %d out of range", seg)
	}
	if replica < 0 || replica >= NumReplicas {
		return nil, nil, 0, fmt.Errorf("storage: replica %d out of range", replica)
	}
	if err := s.faults.Hit(nil, fault.StorageScan, seg); err != nil {
		return nil, nil, 0, fmt.Errorf("storage: table %q leaf %d on seg %d: %w", td.tab.Name, leaf, seg, err)
	}
	if !s.ReplicaAlive(seg, replica) {
		return nil, nil, 0, &DeadSegmentError{Seg: seg, Replica: replica}
	}
	td.mu.RLock()
	defer td.mu.RUnlock()
	h := td.heapsOf(replica)
	if h == nil {
		return nil, nil, 0, fmt.Errorf("storage: table %q has no replica %d (mirroring disabled)", td.tab.Name, replica)
	}
	cs := h[seg][leaf]
	if cs == nil {
		return nil, nil, 0, nil
	}
	var views []vec.View
	var rows []types.Row
	if withCols {
		views = cs.ViewSnapshot()
	}
	if withRows {
		rows = cs.RowView()
	}
	return views, rows, cs.Len(), nil
}

// LeafColumns returns one (segment, leaf, replica) column set for
// invariant checks (mirror byte-identity tests). Read-only.
func (s *Store) LeafColumns(root part.OID, seg, replica int, leaf part.OID) (*vec.ColumnSet, error) {
	td, err := s.data(root)
	if err != nil {
		return nil, err
	}
	td.mu.RLock()
	defer td.mu.RUnlock()
	h := td.heapsOf(replica)
	if h == nil {
		return nil, fmt.Errorf("storage: table %q has no replica %d", td.tab.Name, replica)
	}
	return h[seg][leaf], nil
}

// LeafOIDs returns the leaves to scan for a table: its partition expansion,
// or just the root OID for unpartitioned tables.
func LeafOIDs(t *catalog.Table) []part.OID {
	if t.IsPartitioned() {
		return t.Part.Expansion()
	}
	return []part.OID{t.OID}
}

// RowCount returns the total number of logical rows in the table, read
// from each segment's acting primary replica. For replicated tables, one
// copy is counted.
func (s *Store) RowCount(t *catalog.Table) (int64, error) {
	td, err := s.data(t.OID)
	if err != nil {
		return 0, err
	}
	primaries := s.PrimaryMap()
	td.mu.RLock()
	defer td.mu.RUnlock()
	var n int64
	for seg := range td.heaps {
		for _, cs := range td.heapsOf(primaries[seg])[seg] {
			n += int64(cs.Len())
		}
		if t.Dist.Kind == catalog.DistReplicated {
			break // every segment holds the same copy
		}
	}
	return n, nil
}

// LeafRowCount returns per-leaf logical row counts from the acting
// primary replicas.
func (s *Store) LeafRowCount(t *catalog.Table) (map[part.OID]int64, error) {
	td, err := s.data(t.OID)
	if err != nil {
		return nil, err
	}
	primaries := s.PrimaryMap()
	td.mu.RLock()
	defer td.mu.RUnlock()
	out := map[part.OID]int64{}
	for seg := range td.heaps {
		for leaf, cs := range td.heapsOf(primaries[seg])[seg] {
			out[leaf] += int64(cs.Len())
		}
		if t.Dist.Kind == catalog.DistReplicated {
			break
		}
	}
	return out, nil
}

// UpdateRow overwrites the row at the given RowID with newRow. When the new
// partitioning key routes to a different leaf, the row is moved (deleted
// and re-inserted), matching GPDB's split-update behaviour. The boolean
// result reports whether the row moved heaps.
func (s *Store) UpdateRow(t *catalog.Table, id RowID, newRow types.Row) (bool, error) {
	td, err := s.data(t.OID)
	if err != nil {
		return false, err
	}
	if len(newRow) != len(t.Cols) {
		return false, fmt.Errorf("storage: table %q: updated row has %d columns, want %d", t.Name, len(newRow), len(t.Cols))
	}
	newLeaf := id.Leaf
	if t.IsPartitioned() {
		newLeaf = t.Part.Route(partKeys(t, newRow))
		if newLeaf == part.InvalidOID {
			return false, fmt.Errorf("storage: table %q: updated row %s maps to no partition", t.Name, newRow)
		}
	}
	view, err := s.writeView(id.Seg)
	if err != nil {
		return false, err
	}
	td.mu.Lock()
	defer td.mu.Unlock()
	td.invalidateIndexesLocked()
	// Apply to every live replica in the same critical section and order:
	// the swap-delete of a cross-partition move reorders identically, so
	// replica heaps (and RowID indexes) stay aligned.
	moved := false
	for rep, on := range view {
		if !on {
			continue
		}
		heaps := td.heapsOf(rep)
		cs := heaps[id.Seg][id.Leaf]
		if cs == nil || id.Idx < 0 || id.Idx >= cs.Len() {
			return false, fmt.Errorf("storage: table %q: stale RowID %+v", t.Name, id)
		}
		if newLeaf == id.Leaf {
			cs.SetRow(id.Idx, newRow)
			continue
		}
		// Move across partitions: delete from the old heap (swap with last
		// to keep the heap dense) and append to the new one on the same
		// segment.
		cs.SwapDelete(id.Idx)
		td.leafSet(heaps, id.Seg, newLeaf).AppendRow(newRow)
		moved = true
	}
	return moved, nil
}

// DeleteRow removes the row at the given RowID with a swap-delete: the
// heap's last row moves into the hole. A caller applying many deletes or
// updates by RowID orders them with CompareApplyOrder.
func (s *Store) DeleteRow(t *catalog.Table, id RowID) error {
	td, err := s.data(t.OID)
	if err != nil {
		return err
	}
	view, err := s.writeView(id.Seg)
	if err != nil {
		return err
	}
	td.mu.Lock()
	defer td.mu.Unlock()
	td.invalidateIndexesLocked()
	for rep, on := range view {
		if !on {
			continue
		}
		cs := td.heapsOf(rep)[id.Seg][id.Leaf]
		if cs == nil || id.Idx < 0 || id.Idx >= cs.Len() {
			return fmt.Errorf("storage: table %q: stale RowID %+v", t.Name, id)
		}
		cs.SwapDelete(id.Idx)
	}
	return nil
}

// CompareApplyOrder orders RowIDs for a bulk DML that collected them before
// writing: heap by heap, and within a heap by descending index. A
// swap-delete (DeleteRow, or UpdateRow moving a row to another leaf) only
// moves the heap's last row, so the RowIDs of that heap still to be
// applied, all of lower index, keep addressing their rows. It returns a
// negative number when a applies before b, as slices.SortFunc expects.
func CompareApplyOrder(a, b RowID) int {
	return cmp.Or(cmp.Compare(a.Seg, b.Seg), cmp.Compare(a.Leaf, b.Leaf), cmp.Compare(b.Idx, a.Idx))
}

// Truncate removes all rows of a table.
func (s *Store) Truncate(t *catalog.Table) error {
	td, err := s.data(t.OID)
	if err != nil {
		return err
	}
	views := make([][NumReplicas]bool, s.segments)
	for seg := range views {
		v, err := s.writeView(seg)
		if err != nil {
			return err
		}
		views[seg] = v
	}
	td.mu.Lock()
	defer td.mu.Unlock()
	td.invalidateIndexesLocked()
	for seg := range td.heaps {
		for rep, on := range views[seg] {
			if on {
				td.heapsOf(rep)[seg] = map[part.OID]*vec.ColumnSet{}
			}
		}
	}
	return nil
}
