package storage

import (
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/types"
)

// Columnar-layout invariants: batch inserts land exactly where row-at-a-time
// inserts would (same leaves, same heap order, both replicas), failed batches
// apply nothing, and mirror failover/resync reproduces the survivor's column
// vectors bit for bit — not just the same row multiset.

func batchRows(n int64) []types.Row {
	rows := make([]types.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i % 30)})
	}
	return rows
}

func TestInsertBatchDualApply(t *testing.T) {
	_, st, tab := newFixture(t, 4)
	st.EnableMirrors()
	if err := st.InsertBatch(tab, batchRows(100)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if n, err := st.RowCount(tab); err != nil || n != 100 {
		t.Fatalf("RowCount = %d (%v), want 100", n, err)
	}
	assertReplicasIdentical(t, st, tab)

	// A second batch appends after the first on both replicas.
	if err := st.InsertBatch(tab, batchRows(50)); err != nil {
		t.Fatalf("second InsertBatch: %v", err)
	}
	if n, _ := st.RowCount(tab); n != 150 {
		t.Fatalf("RowCount after second batch = %d, want 150", n)
	}
	assertReplicasIdentical(t, st, tab)
}

// TestInsertBatchMatchesRowAtATime loads the same rows through InsertBatch
// and through Insert and requires identical heap contents in identical
// order — RowIDs assigned under either path must agree.
func TestInsertBatchMatchesRowAtATime(t *testing.T) {
	_, stBatch, tabBatch := newFixture(t, 4)
	_, stRow, tabRow := newFixture(t, 4)
	rows := batchRows(100)
	if err := stBatch.InsertBatch(tabBatch, rows); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for i, r := range rows {
		if err := stRow.Insert(tabRow, r); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	for seg := 0; seg < 4; seg++ {
		b := replicaDump(t, stBatch, tabBatch, seg, 0)
		r := replicaDump(t, stRow, tabRow, seg, 0)
		if b != r {
			t.Fatalf("seg %d: batch and row-at-a-time heaps differ:\nbatch:\n%s\nrow:\n%s", seg, b, r)
		}
	}
}

// TestInsertBatchAllOrNothing: a batch with one unroutable row must apply
// none of its rows.
func TestInsertBatchAllOrNothing(t *testing.T) {
	_, st, tab := newFixture(t, 4)
	st.EnableMirrors()
	rows := batchRows(10)
	rows = append(rows, types.Row{types.NewInt(1), types.NewInt(99)}) // outside all partitions
	if err := st.InsertBatch(tab, rows); err == nil {
		t.Fatalf("batch with unroutable row accepted")
	}
	if n, _ := st.RowCount(tab); n != 0 {
		t.Fatalf("partial apply: RowCount = %d after failed batch, want 0", n)
	}
	// NULL partition key and wrong arity also poison the whole batch.
	for _, bad := range []types.Row{
		{types.NewInt(1), types.Null},
		{types.NewInt(1)},
	} {
		if err := st.InsertBatch(tab, append(batchRows(5), bad)); err == nil {
			t.Fatalf("batch with bad row %v accepted", bad)
		}
	}
	if n, _ := st.RowCount(tab); n != 0 {
		t.Fatalf("RowCount = %d after failed batches, want 0", n)
	}
}

// assertColumnVectorsIdentical requires both replicas of every (seg × leaf)
// heap to hold bit-identical column vectors — same kinds, same lane
// contents, same null bitmaps — via vec.DataEqual, which is stricter than
// comparing row views.
func assertColumnVectorsIdentical(t *testing.T, st *Store, tab *catalog.Table) {
	t.Helper()
	for seg := 0; seg < st.Segments(); seg++ {
		for _, leaf := range LeafOIDs(tab) {
			p, err := st.LeafColumns(tab.OID, seg, 0, leaf)
			if err != nil {
				t.Fatalf("LeafColumns(seg %d, rep 0, leaf %d): %v", seg, leaf, err)
			}
			m, err := st.LeafColumns(tab.OID, seg, 1, leaf)
			if err != nil {
				t.Fatalf("LeafColumns(seg %d, rep 1, leaf %d): %v", seg, leaf, err)
			}
			switch {
			case p == nil && m == nil:
			case p == nil || m == nil:
				t.Fatalf("seg %d leaf %d: one replica empty, the other not", seg, leaf)
			case !p.DataEqual(m):
				t.Fatalf("seg %d leaf %d: column vectors diverged", seg, leaf)
			}
		}
	}
}

// TestMirrorResyncColumnIdentity drives a replica through kill → failover
// DML → revive and requires the resynced column vectors to be identical to
// the survivor's, leaf by leaf.
func TestMirrorResyncColumnIdentity(t *testing.T) {
	_, st, tab := newFixture(t, 4)
	st.EnableMirrors()
	if err := st.InsertBatch(tab, batchRows(60)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	assertColumnVectorsIdentical(t, st, tab)

	if err := st.KillReplica(1, 0); err != nil {
		t.Fatalf("KillReplica: %v", err)
	}
	if err := st.Promote(1); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	// DML during the outage: inserts, an update, and a delete against the
	// surviving mirror.
	if err := st.InsertBatch(tab, batchRows(30)); err != nil {
		t.Fatalf("InsertBatch during outage: %v", err)
	}
	leaf := tab.Part.Route([]types.Datum{types.NewInt(5)})
	for seg := 0; seg < st.Segments(); seg++ {
		rows, err := st.ScanLeafAt(tab.OID, seg, st.Primary(seg), leaf)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if len(rows) == 0 {
			continue
		}
		if _, err := st.UpdateRow(tab, RowID{Seg: seg, Leaf: leaf, Idx: 0},
			types.Row{types.NewInt(777), rows[0][1]}); err != nil {
			t.Fatalf("update during outage: %v", err)
		}
		if err := st.DeleteRow(tab, RowID{Seg: seg, Leaf: leaf, Idx: len(rows) - 1}); err != nil {
			t.Fatalf("delete during outage: %v", err)
		}
		break
	}

	if err := st.ReviveReplica(1, 0); err != nil {
		t.Fatalf("ReviveReplica: %v", err)
	}
	assertColumnVectorsIdentical(t, st, tab)
	assertReplicasIdentical(t, st, tab)
}

// TestScanLeafLanesSkipsRowView pins the lane-only read: the same lanes and
// row count as ScanLeafColsAt, and the heap's row view neither built nor
// read — only a read that asks for rows builds it.
func TestScanLeafLanesSkipsRowView(t *testing.T) {
	_, st, tab := newFixture(t, 2)
	if err := st.InsertBatch(tab, batchRows(60)); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for seg := 0; seg < 2; seg++ {
		for _, leaf := range LeafOIDs(tab) {
			cs, err := st.LeafColumns(tab.OID, seg, 0, leaf)
			if err != nil {
				t.Fatalf("LeafColumns: %v", err)
			}
			lanes, n, err := st.ScanLeafLanesAt(tab.OID, seg, 0, leaf)
			if err != nil {
				t.Fatalf("ScanLeafLanesAt: %v", err)
			}
			if n != cs.Len() || len(lanes) != cs.Width() {
				t.Fatalf("seg %d leaf %d: %d rows, %d lanes; want %d, %d", seg, leaf, n, len(lanes), cs.Len(), cs.Width())
			}
			if cs.HasRowView() {
				t.Fatalf("seg %d leaf %d: the lane-only read built the row view", seg, leaf)
			}
			cols, rows, err := st.ScanLeafColsAt(tab.OID, seg, 0, leaf)
			if err != nil {
				t.Fatalf("ScanLeafColsAt: %v", err)
			}
			if len(rows) != n || !cs.HasRowView() {
				t.Fatalf("seg %d leaf %d: ScanLeafColsAt gave %d rows (row view built: %v), want %d", seg, leaf, len(rows), cs.HasRowView(), n)
			}
			for i, row := range rows {
				for j := range row {
					if types.Compare(lanes[j].Datum(i), row[j]) != 0 || types.Compare(cols[j].Datum(i), row[j]) != 0 {
						t.Fatalf("seg %d leaf %d row %d col %d: lane %v, row %v", seg, leaf, i, j, lanes[j].Datum(i), row[j])
					}
				}
			}
		}
	}
	if _, n, err := st.ScanLeafLanesAt(tab.OID, 0, 0, 9999); err != nil || n != 0 {
		t.Fatalf("absent leaf: %d rows (%v), want 0", n, err)
	}
}
