package partopt

import (
	"strings"
	"testing"
)

func TestDeleteSimple(t *testing.T) {
	eng := paperEngine(t, 2)
	for i, opt := range []OptimizerKind{Orca, LegacyPlanner} {
		eng.SetOptimizer(opt)
		// Delete a different month per optimizer so both really delete.
		month := []string{"'2012-01-01' AND '2012-01-31'", "'2012-02-01' AND '2012-02-29'"}[i]
		n, err := eng.Exec("DELETE FROM orders WHERE date BETWEEN " + month)
		if err != nil {
			t.Fatalf("%v: Exec: %v", opt, err)
		}
		if n != 10 {
			t.Errorf("%v: deleted = %d, want 10", opt, n)
		}
	}
	rows, err := eng.Query("SELECT count(*) FROM orders")
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rows.Data[0][0].Int() != 240-20 {
		t.Errorf("remaining = %v, want 220", rows.Data[0][0])
	}
	// Static elimination applies to DELETE too.
	eng.SetOptimizer(Orca)
	out, err := eng.Explain("DELETE FROM orders WHERE date BETWEEN '2012-03-01' AND '2012-03-31'")
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "Delete orders") || !strings.Contains(out, "PartitionSelector") {
		t.Errorf("delete plan missing operators:\n%s", out)
	}
}

func TestDeleteUsingJoin(t *testing.T) {
	eng := paperEngine(t, 2)
	eng.SetOptimizer(Orca)
	// Delete all 2013-Q4 fact rows via the dimension table.
	n, err := eng.Exec(`DELETE FROM orders_fk USING date_dim d
		WHERE orders_fk.date_id = d.date_id AND d.year = 2013 AND d.month BETWEEN 10 AND 12`)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if n != 30 {
		t.Errorf("deleted = %d, want 30", n)
	}
	rows, err := eng.Query("SELECT count(*) FROM orders_fk")
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rows.Data[0][0].Int() != 240-30 {
		t.Errorf("remaining = %v, want 210", rows.Data[0][0])
	}
	// Dynamic elimination: only the last three month-partitions are read.
	rows, err = eng.Query("SELECT count(*) FROM orders_fk WHERE date_id >= 21")
	if err != nil {
		t.Fatalf("verify tail: %v", err)
	}
	if rows.Data[0][0].Int() != 0 {
		t.Errorf("tail rows = %v, want 0", rows.Data[0][0])
	}
}

func TestDeleteUsingJoinLegacy(t *testing.T) {
	eng := paperEngine(t, 2)
	eng.SetOptimizer(LegacyPlanner)
	n, err := eng.Exec(`DELETE FROM orders_fk USING date_dim d
		WHERE orders_fk.date_id = d.date_id AND d.year = 2012 AND d.month = 1`)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if n != 10 {
		t.Errorf("deleted = %d, want 10", n)
	}
}

func TestDeleteWholeTableAndReinsert(t *testing.T) {
	eng := paperEngine(t, 2)
	n, err := eng.Exec("DELETE FROM orders_fk")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if n != 240 {
		t.Errorf("deleted = %d, want 240", n)
	}
	if err := eng.Insert("orders_fk", Int(999), Float(1), Int(5)); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	rows, err := eng.Query("SELECT count(*) FROM orders_fk")
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rows.Data[0][0].Int() != 1 {
		t.Errorf("count = %v, want 1", rows.Data[0][0])
	}
}

func TestDeletePlanSizeShapes(t *testing.T) {
	// DELETE ... USING over partitioned tables shows the same plan-size
	// contrast as the Fig. 18(c) update.
	eng := paperEngine(t, 2)
	const q = `DELETE FROM orders_fk USING date_dim d WHERE orders_fk.date_id = d.date_id`
	eng.SetOptimizer(Orca)
	orcaSize, err := eng.PlanSize(q)
	if err != nil {
		t.Fatalf("orca PlanSize: %v", err)
	}
	eng.SetOptimizer(LegacyPlanner)
	legacySize, err := eng.PlanSize(q)
	if err != nil {
		t.Fatalf("legacy PlanSize: %v", err)
	}
	if legacySize < 10*orcaSize {
		t.Errorf("legacy delete plan should dwarf orca's: %dB vs %dB", legacySize, orcaSize)
	}
}

func TestInsertStatement(t *testing.T) {
	eng := paperEngine(t, 2)
	n, err := eng.Exec(`INSERT INTO orders VALUES
		(9001, 1.5, '2013-03-03', 14),
		(9002, 2.5, '2013-03-04', 14)`)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if n != 2 {
		t.Errorf("inserted = %d, want 2", n)
	}
	rows, err := eng.Query("SELECT count(*) FROM orders WHERE order_id >= 9001")
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rows.Data[0][0].Int() != 2 {
		t.Errorf("count = %v", rows.Data[0][0])
	}
	// The new rows routed into the March-2013 partition: scanning that
	// date range finds them with one partition read.
	rows, err = eng.Query("SELECT count(*) FROM orders WHERE date BETWEEN '2013-03-01' AND '2013-03-31'")
	if err != nil {
		t.Fatalf("verify partition: %v", err)
	}
	if rows.Data[0][0].Int() != 12 {
		t.Errorf("march count = %v, want 12", rows.Data[0][0])
	}
	if rows.PartsScanned["orders"] != 1 {
		t.Errorf("parts = %d, want 1", rows.PartsScanned["orders"])
	}

	// Column-list form with params and NULL defaulting.
	n, err = eng.Exec("INSERT INTO orders (order_id, date, amount) VALUES ($1, '2012-07-07', $2)", Int(9003), Float(7))
	if err != nil {
		t.Fatalf("Exec cols: %v", err)
	}
	if n != 1 {
		t.Errorf("inserted = %d", n)
	}
	rows, err = eng.Query("SELECT date_id FROM orders WHERE order_id = 9003")
	if err != nil {
		t.Fatalf("verify cols: %v", err)
	}
	if !rows.Data[0][0].IsNull() {
		t.Errorf("unnamed column should be NULL, got %v", rows.Data[0][0])
	}

	// Errors.
	bad := []string{
		"INSERT INTO ghost VALUES (1)",
		"INSERT INTO orders VALUES (1)",                            // arity
		"INSERT INTO orders (ghost) VALUES (1)",                    // unknown column
		"INSERT INTO orders (order_id, order_id) VALUES (1, 2)",    // duplicate column
		"INSERT INTO orders VALUES (1, 2, '2099-01-01', 3)",        // outside all partitions
		"INSERT INTO orders VALUES (order_id, 1, '2012-01-01', 1)", // non-constant
	}
	for _, q := range bad {
		if _, err := eng.Exec(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

// TestInsertStatementAllOrNothing pins the insert path's atomicity: a
// multi-row INSERT whose last row maps to no partition inserts nothing and
// leaves the plan-cache epoch alone, the same statement with every row
// routable inserts all of them and bumps the epoch once, and a failed
// Engine.Insert bumps nothing either.
func TestInsertStatementAllOrNothing(t *testing.T) {
	eng := paperEngine(t, 2)
	epoch := func() uint64 { return eng.PlanCacheStats().Epoch }
	count := func() int64 {
		t.Helper()
		rows, err := eng.Query("SELECT count(*) FROM orders WHERE order_id >= 9001")
		if err != nil {
			t.Fatalf("count: %v", err)
		}
		return rows.Data[0][0].Int()
	}

	before := epoch()
	_, err := eng.Exec(`INSERT INTO orders VALUES
		(9001, 1.5, '2013-03-03', 14),
		(9002, 2.5, '2031-03-04', 14)`)
	if err == nil || !strings.Contains(err.Error(), "maps to no partition") {
		t.Fatalf("INSERT with an unroutable row: err %v, want the routing error", err)
	}
	if n := count(); n != 0 {
		t.Errorf("failed INSERT left %d rows behind, want 0", n)
	}
	if after := epoch(); after != before {
		t.Errorf("failed INSERT moved the epoch %d -> %d", before, after)
	}

	before = epoch()
	n, err := eng.Exec(`INSERT INTO orders VALUES
		(9001, 1.5, '2013-03-03', 14),
		(9002, 2.5, '2013-03-04', 14)`)
	if err != nil || n != 2 {
		t.Fatalf("INSERT of routable rows: %d rows, %v; want 2", n, err)
	}
	if after := epoch(); after != before+1 {
		t.Errorf("2-row INSERT moved the epoch %d -> %d, want exactly one bump", before, after)
	}
	if n := count(); n != 2 {
		t.Errorf("count after INSERT = %d, want 2", n)
	}

	before = epoch()
	if err := eng.Insert("orders", Int(9003), Float(1), Date(2031, 3, 4), Int(14)); err == nil {
		t.Fatalf("Engine.Insert of an unroutable row succeeded")
	}
	if after := epoch(); after != before {
		t.Errorf("failed Engine.Insert moved the epoch %d -> %d", before, after)
	}
}
