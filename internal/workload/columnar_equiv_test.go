package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"partopt"
	"partopt/internal/exec"
)

// Columnar-vs-row equivalence: columnar execution is an execution detail,
// exactly like batch size. The same query run with the vectorized kernels
// on and off must produce identical row multisets, identical
// partition-selection and scan counters, and the same spill decision. The
// sweep reuses the fuzzer's query shapes — including the outer joins whose
// NULL-key handling is the subtlest part of the hashing contract — plus
// prepared, parameterized statements that exercise the plan cache.

// runBothModes executes one query with columnar execution on and off and
// requires identical results and identical observable counters.
func runBothModes(t *testing.T, eng *partopt.Engine, name, sql string) {
	t.Helper()
	exec.SetColumnarExec(true)
	col, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("%s (columnar): %v\n%s", name, err, sql)
	}
	exec.SetColumnarExec(false)
	row, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("%s (row): %v\n%s", name, err, sql)
	}
	assertSameData(t, name, col, row, false)
	if row.RowsScanned != col.RowsScanned {
		t.Fatalf("%s: RowsScanned columnar=%d row=%d", name, col.RowsScanned, row.RowsScanned)
	}
	if len(row.PartsScanned) != len(col.PartsScanned) {
		t.Fatalf("%s: PartsScanned tables columnar=%d row=%d", name, len(col.PartsScanned), len(row.PartsScanned))
	}
	for tab, n := range col.PartsScanned {
		if row.PartsScanned[tab] != n {
			t.Fatalf("%s: PartsScanned[%s] columnar=%d row=%d", name, tab, n, row.PartsScanned[tab])
		}
	}
	if (row.SpilledBytes > 0) != (col.SpilledBytes > 0) || row.SpillParts != col.SpillParts {
		t.Fatalf("%s: spill decision differs: columnar bytes=%d parts=%d, row bytes=%d parts=%d",
			name, col.SpilledBytes, col.SpillParts, row.SpilledBytes, row.SpillParts)
	}
}

func TestColumnarRowFuzzEquivalence(t *testing.T) {
	defer exec.SetColumnarExec(exec.SetColumnarExec(true))
	eng, err := partopt.New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := DefaultStarConfig()
	cfg.SalesPerDay = 5
	cfg.Months = 12
	if err := BuildStar(eng, cfg); err != nil {
		t.Fatalf("BuildStar: %v", err)
	}
	days := cfg.Days()

	rnd := rand.New(rand.NewSource(20140622))
	genQuery := func() string {
		fact := FactTables[rnd.Intn(len(FactTables))]
		switch rnd.Intn(6) {
		case 0: // full scan, sliced by a LIMIT-free projection
			return fmt.Sprintf("SELECT date_id, quantity, amount FROM %s", fact)
		case 1: // filter
			lo := rnd.Intn(days)
			q := fmt.Sprintf("SELECT date_id, amount FROM %s WHERE date_id BETWEEN %d AND %d",
				fact, lo, lo+rnd.Intn(days-lo))
			k := rnd.Intn(10)
			switch rnd.Intn(8) {
			case 0, 1:
				q += fmt.Sprintf(" AND quantity > %d", k)
			case 2:
				q += fmt.Sprintf(" AND (quantity > %d OR amount < %d)", k, 40*k)
			case 3:
				q += fmt.Sprintf(" AND NOT (quantity < %d AND amount >= %d)", k, 40*k)
			case 4:
				q += fmt.Sprintf(" AND quantity NOT IN (%d, %d)", k, k+2)
			case 5:
				q += fmt.Sprintf(" AND quantity IN (%d, NULL, %d)", k, k+3)
			case 6:
				q += fmt.Sprintf(" AND (quantity NOT IN (%d, NULL) OR amount < %d)", k, 40*k)
			case 7:
				q += []string{" AND amount IS NOT NULL", " AND NOT (quantity IS NULL)", " OR cust_id IS NULL"}[rnd.Intn(3)]
			}
			return q
		case 2: // inner join + agg
			return fmt.Sprintf("SELECT %s FROM date_dim d, %s f WHERE d.date_id = f.date_id AND d.moy = %d",
				randAgg2(rnd), fact, 1+rnd.Intn(12))
		case 3: // grouped agg
			return fmt.Sprintf("SELECT quantity, %s FROM %s WHERE date_id < %d GROUP BY quantity",
				randAggs(rnd, ""), fact, 1+rnd.Intn(days))
		case 4: // outer join, dimension preserved
			return fmt.Sprintf("SELECT %s FROM date_dim d LEFT JOIN %s f ON d.date_id = f.date_id WHERE d.dow = %d",
				randAgg2(rnd), fact, rnd.Intn(7))
		default: // outer join, fact preserved, extra ON predicate
			return fmt.Sprintf("SELECT %s FROM %s f LEFT JOIN date_dim d ON d.date_id = f.date_id AND d.moy = %d",
				randAgg2(rnd), fact, 1+rnd.Intn(12))
		}
	}

	for i := 0; i < 60; i++ {
		runBothModes(t, eng, fmt.Sprintf("fuzz-%d", i), genQuery())
	}
}

// Prepared statements share a cached plan across executions; the cached
// shape must answer identically in both modes and for every binding.
func TestColumnarPreparedEquivalence(t *testing.T) {
	defer exec.SetColumnarExec(exec.SetColumnarExec(true))
	eng, err := partopt.New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := DefaultStarConfig()
	cfg.SalesPerDay = 5
	if err := BuildStar(eng, cfg); err != nil {
		t.Fatalf("BuildStar: %v", err)
	}

	stmt, err := eng.Prepare("SELECT date_id, count(*), sum(amount) FROM store_sales WHERE date_id BETWEEN $1 AND $2 GROUP BY date_id")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for _, bind := range [][2]int64{{0, 30}, {10, 80}, {40, 41}, {0, 0}} {
		exec.SetColumnarExec(true)
		col, err := stmt.Query(partopt.Int(bind[0]), partopt.Int(bind[1]))
		if err != nil {
			t.Fatalf("prepared (columnar) %v: %v", bind, err)
		}
		exec.SetColumnarExec(false)
		row, err := stmt.Query(partopt.Int(bind[0]), partopt.Int(bind[1]))
		if err != nil {
			t.Fatalf("prepared (row) %v: %v", bind, err)
		}
		assertSameData(t, fmt.Sprintf("prepared-%v", bind), col, row, false)
		if row.RowsScanned != col.RowsScanned {
			t.Fatalf("prepared %v: RowsScanned columnar=%d row=%d", bind, col.RowsScanned, row.RowsScanned)
		}
	}
}

// The spill decision must not see the execution mode: a budget that forces
// the row kernels to spill forces the vectorized kernels to spill too, and
// both answer correctly.
func TestColumnarSpillEquivalence(t *testing.T) {
	defer exec.SetColumnarExec(exec.SetColumnarExec(true))
	budget := spillBudget(t)
	eng, err := partopt.New(4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := DefaultStarConfig()
	cfg.SalesPerDay = 10
	if err := BuildStar(eng, cfg); err != nil {
		t.Fatalf("BuildStar: %v", err)
	}
	const sql = `SELECT date_id, count(*) AS n, sum(amount) AS total FROM store_sales GROUP BY date_id`

	exec.SetColumnarExec(true)
	golden, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}

	eng.SetSpillDir(t.TempDir())
	eng.SetWorkMem(budget)
	var spilled [2]*partopt.Rows
	for i, on := range []bool{true, false} {
		exec.SetColumnarExec(on)
		rows, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("budgeted (columnar=%v): %v", on, err)
		}
		if rows.SpilledBytes == 0 || rows.SpillParts == 0 {
			t.Fatalf("work_mem=%d did not spill (columnar=%v): bytes=%d parts=%d",
				budget, on, rows.SpilledBytes, rows.SpillParts)
		}
		assertSameData(t, fmt.Sprintf("spill-columnar=%v", on), golden, rows, false)
		spilled[i] = rows
	}
	if spilled[0].SpillParts != spilled[1].SpillParts {
		t.Fatalf("spill parts differ: columnar=%d row=%d", spilled[0].SpillParts, spilled[1].SpillParts)
	}
}
