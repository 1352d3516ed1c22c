package partopt

import (
	"strings"
	"testing"
)

// outerFixture is paperEngine plus two dimension rows no fact row matches
// (date_id 50 and 51 route to no orders_fk partition key) and one fact
// month whose dimension row is deleted — so both orientations of an outer
// join have rows to NULL-extend.
func outerFixture(t *testing.T, segs int) *Engine {
	t.Helper()
	eng := paperEngine(t, segs)
	// orders_colo is orders_fk co-distributed on the join key: the layout
	// where an outer join prunes the fact side from the preserved side
	// itself (no Motion between selector and scan, and no replication of a
	// preserved side). orders_fk needs the key-set route instead.
	eng.MustCreateTable("orders_colo",
		Columns("order_id", TypeInt, "amount", TypeFloat, "date_id", TypeInt),
		DistributedBy("date_id"),
		PartitionByRangeInt("date_id", 0, 24, 24),
	)
	id := int64(10000)
	for monthID := int64(0); monthID < 24; monthID++ {
		for day := 1; day <= 10; day++ {
			id++
			if err := eng.Insert("orders_colo", Int(id), Float(float64(day)), Int(monthID)); err != nil {
				t.Fatalf("insert orders_colo: %v", err)
			}
		}
	}
	if err := eng.Insert("date_dim", Int(50), Int(2099), Int(1), Int(1)); err != nil {
		t.Fatalf("insert dim: %v", err)
	}
	if err := eng.Insert("date_dim", Int(51), Int(2099), Int(2), Int(2)); err != nil {
		t.Fatalf("insert dim: %v", err)
	}
	if _, err := eng.Exec("DELETE FROM date_dim WHERE date_id = 5"); err != nil {
		t.Fatalf("delete dim: %v", err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return eng
}

// A LEFT JOIN preserves its left side: every dimension row appears even
// without a matching fact row, and both optimizers agree on the counts.
func TestLeftJoinPreservesDimension(t *testing.T) {
	eng := outerFixture(t, 3)
	// 23 matched dim rows × 10 orders + 2 unmatched dim rows = 232.
	const q = `SELECT count(*) FROM date_dim d LEFT JOIN orders_fk o ON d.date_id = o.date_id`
	for _, opt := range []OptimizerKind{Orca, LegacyPlanner} {
		eng.SetOptimizer(opt)
		rows, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		if got := rows.Data[0][0].Int(); got != 232 {
			t.Errorf("%v: count = %d, want 232", opt, got)
		}
	}
	// The inner form drops the two unmatched dimension rows.
	for _, opt := range []OptimizerKind{Orca, LegacyPlanner} {
		eng.SetOptimizer(opt)
		rows, err := eng.Query(`SELECT count(*) FROM date_dim d, orders_fk o WHERE d.date_id = o.date_id`)
		if err != nil {
			t.Fatalf("%v inner: %v", opt, err)
		}
		if got := rows.Data[0][0].Int(); got != 230 {
			t.Errorf("%v: inner count = %d, want 230", opt, got)
		}
	}
}

// RIGHT JOIN is LEFT JOIN flipped: the fact side is preserved, so the ten
// orders of the deleted dimension month survive NULL-extended.
func TestRightJoinPreservesFact(t *testing.T) {
	eng := outerFixture(t, 3)
	const q = `SELECT count(*) FROM date_dim d RIGHT JOIN orders_fk o ON d.date_id = o.date_id`
	for _, opt := range []OptimizerKind{Orca, LegacyPlanner} {
		eng.SetOptimizer(opt)
		rows, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		// All 240 fact rows appear; the month-5 ones with NULL dim columns.
		if got := rows.Data[0][0].Int(); got != 240 {
			t.Errorf("%v: count = %d, want 240", opt, got)
		}
	}
}

// Partition elimination against the NULL-producing side of an outer join
// is sound: in dim LEFT JOIN fact, fact rows only appear when matched, so
// Orca prunes fact partitions from the streamed dimension rows. The fact
// table must be co-distributed on the join key — the broadcast-build route
// inner joins use is forbidden here (the dim side is preserved).
func TestOuterJoinDPEOnNullProducingSide(t *testing.T) {
	eng := outerFixture(t, 3)
	eng.SetOptimizer(Orca)
	const q = `SELECT count(*) FROM date_dim d LEFT JOIN orders_colo o ON d.date_id = o.date_id
		WHERE d.year = 2013 AND d.month BETWEEN 10 AND 12`
	rows, err := eng.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got := rows.Data[0][0].Int(); got != 30 {
		t.Errorf("count = %d, want 30", got)
	}
	if got := rows.PartsScanned["orders_colo"]; got != 3 {
		t.Errorf("parts scanned = %d, want 3 of 24 (DPE on the eliminable side)", got)
	}
	// With partition selection off the same query scans every partition
	// and still counts the same rows: the 3 of 24 is elimination's work.
	eng.SetPartitionSelection(false)
	rows, err = eng.Query(q)
	if err != nil {
		t.Fatalf("selection-off Query: %v", err)
	}
	if got := rows.Data[0][0].Int(); got != 30 {
		t.Errorf("selection-off count = %d, want 30", got)
	}
	if got := rows.PartsScanned["orders_colo"]; got != 24 {
		t.Errorf("selection-off parts scanned = %d, want 24 of 24", got)
	}
	eng.SetPartitionSelection(true)
	// The order_id-distributed copy of the fact table must be redistributed
	// to meet the dimension, which would separate a join-side selector from
	// its scan, and replicating the preserved dim side would duplicate its
	// unmatched rows. The key-set route prunes it anyway: a selector below
	// the fact side's Redistribute, fed by a replicated copy of the
	// dimension's keys.
	rows, err = eng.Query(`SELECT count(*) FROM date_dim d LEFT JOIN orders_fk o ON d.date_id = o.date_id
		WHERE d.year = 2013 AND d.month BETWEEN 10 AND 12`)
	if err != nil {
		t.Fatalf("orders_fk Query: %v", err)
	}
	if got := rows.Data[0][0].Int(); got != 30 {
		t.Errorf("orders_fk count = %d, want 30", got)
	}
	if got := rows.PartsScanned["orders_fk"]; got != 3 {
		t.Errorf("orders_fk parts scanned = %d, want 3 of 24 (key-set route)", got)
	}
}

// The key-set route in its other spellings. Each case must count what the
// legacy planner counts; partsWant is Orca's orders_fk partition count.
func TestOuterJoinKeySetRoutes(t *testing.T) {
	eng := outerFixture(t, 3)
	// date_dim hash-distributed on its key: its replicated copy needs a
	// Broadcast, the one it already delivers HashedOn does not.
	eng.MustCreateTable("date_dim_h",
		Columns("date_id", TypeInt, "year", TypeInt, "month", TypeInt, "day_of_week", TypeInt),
		DistributedBy("date_id"),
	)
	dims, err := eng.Query("SELECT date_id, year, month, day_of_week FROM date_dim")
	if err != nil {
		t.Fatalf("read date_dim: %v", err)
	}
	for _, r := range dims.Data {
		if err := eng.Insert("date_dim_h", r...); err != nil {
			t.Fatalf("insert date_dim_h: %v", err)
		}
	}
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	cases := []struct {
		name, q   string
		partsWant int
		explain   []string // lines Orca's EXPLAIN must contain, in this order
	}{
		{"right join spelling",
			`SELECT count(*) FROM orders_fk o RIGHT JOIN date_dim d ON o.date_id = d.date_id
				WHERE d.year = 2013 AND d.month BETWEEN 10 AND 12`, 3,
			[]string{"HashLeftOuterJoin", "Sequence", "PartitionSelector(1, orders_fk", "DynamicScan(1, orders_fk)"}},
		{"hashed preserved side",
			`SELECT count(*) FROM date_dim_h d LEFT JOIN orders_fk o ON d.date_id = o.date_id
				WHERE d.year = 2013 AND d.month BETWEEN 10 AND 12`, 3,
			[]string{"Sequence", "PartitionSelector(2, orders_fk", "Broadcast Motion", "DynamicScan(2, orders_fk)"}},
		// A partitioned preserved side would have its DynamicScan and
		// mailbox duplicated by the copy: the route is not offered.
		{"partitioned preserved side",
			`SELECT count(*) FROM orders_colo c LEFT JOIN orders_fk f ON c.date_id = f.date_id`, 24, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng.SetOptimizer(LegacyPlanner)
			ref, err := eng.Query(c.q)
			if err != nil {
				t.Fatalf("legacy Query: %v", err)
			}
			eng.SetOptimizer(Orca)
			rows, err := eng.Query(c.q)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if got, want := rows.Data[0][0].Int(), ref.Data[0][0].Int(); got != want {
				t.Errorf("count = %d, legacy counts %d", got, want)
			}
			out, err := eng.Explain(c.q)
			if err != nil {
				t.Fatalf("Explain: %v", err)
			}
			if got := rows.PartsScanned["orders_fk"]; got != c.partsWant {
				t.Errorf("parts scanned = %d, want %d of 24:\n%s", got, c.partsWant, out)
			}
			rest := out
			for _, line := range c.explain {
				i := strings.Index(rest, line)
				if i < 0 {
					t.Fatalf("explain lacks %q after the lines before it:\n%s", line, out)
				}
				rest = rest[i+len(line):]
			}
		})
	}
}

// An inner or semi join above a fact-preserving LEFT JOIN may prune the
// fact from its own dimension: it drops the unmatched fact rows anyway.
// Such a selector lies outside the outer join's preserved child, and the
// plan must still validate and count what the legacy planner counts.
func TestOuterJoinPreservedSidePrunedFromAbove(t *testing.T) {
	eng := outerFixture(t, 3)
	for _, q := range []string{
		`SELECT count(*) FROM orders_fk f LEFT JOIN date_dim x ON f.date_id = x.date_id
			JOIN date_dim d ON f.date_id = d.date_id WHERE d.month = 11`,
		`SELECT count(*) FROM orders_fk f LEFT JOIN date_dim x ON f.date_id = x.date_id
			WHERE f.date_id IN (SELECT date_id FROM date_dim WHERE month = 11)`,
	} {
		eng.SetOptimizer(LegacyPlanner)
		ref, err := eng.Query(q)
		if err != nil {
			t.Fatalf("legacy Query: %v\n%s", err, q)
		}
		eng.SetOptimizer(Orca)
		rows, err := eng.Query(q)
		if err != nil {
			t.Fatalf("Query: %v\n%s", err, q)
		}
		if got, want := rows.Data[0][0].Int(), ref.Data[0][0].Int(); got != want {
			t.Errorf("count = %d, legacy counts %d\n%s", got, want, q)
		}
		if got := rows.PartsScanned["orders_fk"]; got >= 24 {
			out, _ := eng.Explain(q)
			t.Errorf("orders_fk parts scanned = %d, want fewer than 24:\n%s", got, out)
		}
	}
}

// The preserved side of an outer join must never be pruned by the other
// side: in dim RIGHT JOIN fact every fact partition owes its rows to the
// output whether or not the dimension matches them.
func TestOuterJoinNoDPEOnPreservedSide(t *testing.T) {
	eng := outerFixture(t, 3)
	eng.SetOptimizer(Orca)
	// Narrow the dimension hard; the fact side still scans fully.
	const q = `SELECT count(*) FROM date_dim d RIGHT JOIN orders_fk o ON d.date_id = o.date_id
		AND d.year = 2013 AND d.month = 11`
	rows, err := eng.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got := rows.Data[0][0].Int(); got != 240 {
		t.Errorf("count = %d, want all 240 fact rows", got)
	}
	if got := rows.PartsScanned["orders_fk"]; got != 24 {
		t.Errorf("parts scanned = %d, want all 24 (preserved side must not be pruned)", got)
	}
	// Same orientation spelled as fact LEFT JOIN dim.
	rows, err = eng.Query(`SELECT count(*) FROM orders_fk o LEFT JOIN date_dim d ON o.date_id = d.date_id`)
	if err != nil {
		t.Fatalf("flipped Query: %v", err)
	}
	if got := rows.Data[0][0].Int(); got != 240 {
		t.Errorf("flipped count = %d, want 240", got)
	}
	if got := rows.PartsScanned["orders_fk"]; got != 24 {
		t.Errorf("flipped parts scanned = %d, want 24", got)
	}
}

// The plan for an eliminable outer join carries the outer hash join and a
// join-driven PartitionSelector; the preserved-side plan carries neither a
// selector over the fact table nor (under elimination) fewer than all
// partitions at run time.
func TestOuterJoinExplainShape(t *testing.T) {
	eng := outerFixture(t, 2)
	eng.SetOptimizer(Orca)
	out, err := eng.Explain(`SELECT count(*) FROM date_dim d LEFT JOIN orders_colo o ON d.date_id = o.date_id
		WHERE d.year = 2013 AND d.month BETWEEN 10 AND 12`)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "HashLeftOuterJoin") && !strings.Contains(out, "HashRightOuterJoin") {
		t.Errorf("explain lacks an outer hash join:\n%s", out)
	}
	if !strings.Contains(out, "PartitionSelector(") || !strings.Contains(out, "orders_colo, o.date_id = d.date_id") && !strings.Contains(out, "orders_colo, d.date_id = o.date_id") {
		t.Errorf("explain lacks the join-driven PartitionSelector over orders_colo:\n%s", out)
	}
}

// Golden tree for the eliminable outer join: the join-driven selector
// streams the filtered dimension build rows into the fact DynamicScan,
// selecting 3 of 24 partitions — and, being join-driven ("hub"), it shows
// no OID-cache line: streamed selections are never cached.
func TestExplainAnalyzeGoldenOuterJoinDPE(t *testing.T) {
	eng := outerFixture(t, 2)
	eng.SetOptimizer(Orca)
	const q = `SELECT count(*) FROM date_dim d LEFT JOIN orders_colo o ON d.date_id = o.date_id
		WHERE d.year = 2013 AND d.month BETWEEN 10 AND 12`
	// Warm the plan cache so parameter binding, not planning, is exercised.
	if _, err := eng.Query(q); err != nil {
		t.Fatalf("warm-up Query: %v", err)
	}
	out, err := eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	const want = `optimization: 5 groups, T ms
Project (count_1)  (actual rows=1 loops=1 time=T)
  -> Final HashAggregate (count(*))  (rows=1 cost=532)  (actual rows=1 loops=1 time=T)
       Peak memory: N per instance
    -> Gather Motion  (actual rows=2 loops=1 time=T)
      -> Partial HashAggregate (count(*))  (rows=2 cost=524)  (actual rows=2 loops=2 time=T)
           Peak memory: N per instance
        -> HashLeftOuterJoin (d.date_id = o.date_id)  (rows=240 cost=284)  (actual rows=30 loops=2 time=T)
             Peak memory: N per instance
          -> PartitionSelector(2, orders_colo, d.date_id = o.date_id)  (rows=1 cost=31)  (actual rows=3 loops=2 time=T)
               Partitions selected: 3 (out of 24)
            -> Redistribute Motion (t1.c0)  (rows=1 cost=30)  (actual rows=3 loops=2 time=T)
              -> Filter (d.year = $1 AND d.month >= $2 AND d.month <= $3)  (rows=1 cost=28)  (actual rows=3 loops=1 time=T)
                -> Scan date_dim  (rows=25 cost=25)  (actual rows=25 loops=1 time=T)
                     Rows read from storage: 25
          -> DynamicScan(2, orders_colo)  (rows=240 cost=240)  (actual rows=30 loops=2 time=T)
               Partitions selected: 3 (out of 24)
               Rows read from storage: 30
`
	if got := normalizeAnalyze(out); got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// Golden tree for the key-set route: the fact table is distributed on
// order_id, so its rows are redistributed to meet the preserved dimension.
// The selector sits below that Motion, fed by the dimension's replicated
// copy, and prunes the scan to 3 of 24 partitions before any row moves.
func TestExplainAnalyzeGoldenOuterJoinKeySet(t *testing.T) {
	eng := outerFixture(t, 2)
	eng.SetOptimizer(Orca)
	const q = `SELECT count(*) FROM date_dim d LEFT JOIN orders_fk o ON d.date_id = o.date_id
		WHERE d.year = 2013 AND d.month BETWEEN 10 AND 12`
	if _, err := eng.Query(q); err != nil {
		t.Fatalf("warm-up Query: %v", err)
	}
	out, err := eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	const want = `optimization: 5 groups, T ms
Project (count_1)  (actual rows=1 loops=1 time=T)
  -> Final HashAggregate (count(*))  (rows=1 cost=631)  (actual rows=1 loops=1 time=T)
       Peak memory: N per instance
    -> Gather Motion  (actual rows=2 loops=1 time=T)
      -> Partial HashAggregate (count(*))  (rows=2 cost=623)  (actual rows=2 loops=2 time=T)
           Peak memory: N per instance
        -> HashLeftOuterJoin (d.date_id = o.date_id)  (rows=240 cost=383)  (actual rows=30 loops=2 time=T)
             Peak memory: N per instance
          -> Redistribute Motion (t1.c0)  (rows=1 cost=30)  (actual rows=3 loops=2 time=T)
            -> Filter (d.year = $1 AND d.month >= $2 AND d.month <= $3)  (rows=1 cost=28)  (actual rows=3 loops=1 time=T)
              -> Scan date_dim  (rows=25 cost=25)  (actual rows=25 loops=1 time=T)
                   Rows read from storage: 25
          -> Redistribute Motion (o.date_id)  (rows=240 cost=137)  (actual rows=30 loops=2 time=T)
            -> Sequence  (rows=240 cost=65)  (actual rows=30 loops=2 time=T)
              -> PartitionSelector(2, orders_fk, d.date_id = o.date_id)  (rows=1 cost=29)  (actual rows=6 loops=2 time=T)
                   Partitions selected: 3 (out of 24)
                -> Filter (d.year = $1 AND d.month >= $2 AND d.month <= $3)  (rows=1 cost=28)  (actual rows=6 loops=2 time=T)
                  -> Scan date_dim  (rows=25 cost=25)  (actual rows=50 loops=2 time=T)
                       Rows read from storage: 50
              -> DynamicScan(2, orders_fk)  (rows=240 cost=240)  (actual rows=30 loops=2 time=T)
                   Partitions selected: 3 (out of 24)
                   Rows read from storage: 30
`
	if got := normalizeAnalyze(out); got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
