package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"partopt"
)

// A seeded query fuzzer: random single-fact, dimension-join and
// IN-subquery queries over the star schema, executed under three
// configurations — Orca, Orca with partition selection disabled, and the
// legacy Planner. All three must return identical results; partition
// selection may only change what is scanned, never what is answered.
//
// The dimension-preserved outer joins are the key-set selector's queries:
// the fact is distributed on cust_id, so Orca prunes it below the Motion
// that brings it to the dimension. The test fails if none of them scanned
// fewer than all of the fact's leaves, so it cannot stop covering that
// route unnoticed.
func TestFuzzOptimizersAgree(t *testing.T) {
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

	rnd := rand.New(rand.NewSource(20140622)) // SIGMOD'14 started June 22
	facts := FactTables

	randDatePred := func(col string) string {
		switch rnd.Intn(4) {
		case 0:
			return fmt.Sprintf("%s = %d", col, rnd.Intn(days))
		case 1:
			lo := rnd.Intn(days)
			return fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, lo+rnd.Intn(days-lo))
		case 2:
			return fmt.Sprintf("%s < %d", col, 1+rnd.Intn(days))
		default:
			return fmt.Sprintf("%s >= %d", col, rnd.Intn(days))
		}
	}
	randDimPred := func() string {
		switch rnd.Intn(4) {
		case 0:
			return fmt.Sprintf("d.moy = %d", 1+rnd.Intn(12))
		case 1:
			return fmt.Sprintf("d.month BETWEEN %d AND %d", 1+rnd.Intn(cfg.Months), 1+rnd.Intn(cfg.Months))
		case 2:
			return fmt.Sprintf("d.dow = %d", rnd.Intn(7))
		default:
			return fmt.Sprintf("d.dom < %d", 1+rnd.Intn(cfg.DaysPerMonth))
		}
	}
	randAgg := func() string { return randAggs(rnd, "") }

	// genQuery leaves the drawn fact table in fact, and dimKept says whether
	// the query is a dimension-preserved outer join.
	var fact string
	var dimKept bool
	genQuery := func() string {
		fact, dimKept = facts[rnd.Intn(len(facts))], false
		switch rnd.Intn(6) {
		case 4: // outer join, dimension preserved: dim predicates in WHERE
			dimKept = true
			kw := []string{"LEFT", "RIGHT"}[rnd.Intn(2)]
			from := fmt.Sprintf("date_dim d %s JOIN %s f", kw, fact)
			if kw == "RIGHT" {
				from = fmt.Sprintf("%s f %s JOIN date_dim d", fact, kw)
			}
			q := fmt.Sprintf("SELECT %s FROM %s ON d.date_id = f.date_id WHERE %s",
				randAgg2(rnd), from, randDimPred())
			if rnd.Intn(3) == 0 {
				q += " AND " + randDimPred()
			}
			return q
		case 5: // outer join, fact preserved: dim predicates stay in ON
			kw := []string{"LEFT", "RIGHT"}[rnd.Intn(2)]
			from := fmt.Sprintf("%s f %s JOIN date_dim d", fact, kw)
			if kw == "RIGHT" {
				from = fmt.Sprintf("date_dim d %s JOIN %s f", kw, fact)
			}
			on := "d.date_id = f.date_id"
			if rnd.Intn(2) == 0 {
				on += " AND " + randDimPred()
			}
			q := fmt.Sprintf("SELECT %s FROM %s ON %s", randAgg2(rnd), from, on)
			if rnd.Intn(2) == 0 {
				// Fact-side WHERE predicates never drop NULL-extended rows.
				q += fmt.Sprintf(" WHERE f.quantity > %d", rnd.Intn(10))
			}
			return q
		}
		switch rnd.Intn(4) {
		case 0: // static
			q := fmt.Sprintf("SELECT %s FROM %s WHERE %s", randAgg(), fact, randDatePred("date_id"))
			if rnd.Intn(2) == 0 {
				q += fmt.Sprintf(" AND quantity > %d", rnd.Intn(10))
			}
			return q
		case 1: // dimension join
			order := []string{
				fmt.Sprintf("date_dim d, %s f", fact),
				fmt.Sprintf("%s f, date_dim d", fact),
			}[rnd.Intn(2)]
			q := fmt.Sprintf("SELECT %s FROM %s WHERE d.date_id = f.date_id AND %s",
				randAgg2(rnd), order, randDimPred())
			if rnd.Intn(3) == 0 {
				q += " AND " + randDimPred()
			}
			return q
		case 2: // IN subquery
			return fmt.Sprintf("SELECT %s FROM %s WHERE date_id IN (SELECT date_id FROM date_dim d WHERE %s)",
				randAgg(), fact, randDimPred())
		default: // grouped
			return fmt.Sprintf("SELECT quantity, %s FROM %s WHERE %s GROUP BY quantity",
				randAgg(), fact, randDatePred("date_id"))
		}
	}

	run := func(q string, setup func()) (*partopt.Rows, error) {
		setup()
		rows, err := eng.Query(q)
		if err != nil {
			return nil, err
		}
		rows.SortData()
		return rows, nil
	}

	keySetPruned := 0 // dimension-preserved outer joins that scanned < all fact leaves
	for i := 0; i < 120; i++ {
		q := genQuery()
		orca, err := run(q, func() { eng.SetOptimizer(partopt.Orca); eng.SetPartitionSelection(true) })
		if err != nil {
			t.Fatalf("query %d orca: %v\n%s", i, err, q)
		}
		ref := orca.Data
		if dimKept {
			leaves, err := eng.NumPartitions(fact)
			if err != nil {
				t.Fatal(err)
			}
			if orca.PartsScanned[fact] < leaves {
				keySetPruned++
			}
		}
		noSel, err := run(q, func() { eng.SetPartitionSelection(false) })
		if err != nil {
			t.Fatalf("query %d orca-nosel: %v\n%s", i, err, q)
		}
		eng.SetPartitionSelection(true)
		legacy, err := run(q, func() { eng.SetOptimizer(partopt.LegacyPlanner) })
		if err != nil {
			t.Fatalf("query %d legacy: %v\n%s", i, err, q)
		}
		eng.SetOptimizer(partopt.Orca)

		for name, got := range map[string][][]partopt.Value{"selection-off": noSel.Data, "legacy": legacy.Data} {
			if !resultsEqual(ref, got) {
				t.Fatalf("query %d: %s disagrees with orca\nquery: %s\norca:   %v\nother:  %v",
					i, name, q, sample(ref), sample(got))
			}
		}
	}
	if keySetPruned == 0 {
		t.Errorf("no dimension-preserved outer join pruned its fact table: the key-set selector went unexercised")
	}
}

// randAggs draws a select list of one to three aggregates over the fact
// columns (an int and a float one), covering all five kinds plus COUNT(*)
// and COUNT(col). prefix qualifies the columns ("" or "f.").
func randAggs(rnd *rand.Rand, prefix string) string {
	pool := []string{"count(*)", "count(%squantity)", "sum(%samount)", "sum(%squantity)",
		"avg(%samount)", "avg(%squantity)", "min(%samount)", "min(%squantity)", "max(%samount)", "max(%squantity)"}
	list := ""
	for i, n := 0, 1+rnd.Intn(3); i < n; i++ {
		if i > 0 {
			list += ", "
		}
		list += strings.Replace(pool[rnd.Intn(len(pool))], "%s", prefix, 1)
	}
	return list
}

// randAgg2 draws aggregates valid in a two-table context (qualified).
func randAgg2(rnd *rand.Rand) string { return randAggs(rnd, "f.") }

func resultsEqual(a, b [][]partopt.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if !valuesMatch(a[i][c], b[i][c]) {
				return false
			}
		}
	}
	return true
}

func sample(rows [][]partopt.Value) string {
	out := make([]string, 0, 3)
	for i, r := range rows {
		if i >= 3 {
			out = append(out, "...")
			break
		}
		out = append(out, fmt.Sprint(r))
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// DML fuzzer: two identical clusters execute the same random stream of
// UPDATEs and DELETEs, one planned by Orca and one by the legacy Planner.
// After every statement both must report the same affected-row count, and
// at the end the surviving table contents must be identical.
func TestFuzzDMLOptimizersAgree(t *testing.T) {
	build := func() *partopt.Engine {
		eng, err := partopt.New(2)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := BuildRS(eng, 12, 25); err != nil {
			t.Fatalf("BuildRS: %v", err)
		}
		return eng
	}
	orcaEng, legacyEng := build(), build()
	orcaEng.SetOptimizer(partopt.Orca)
	legacyEng.SetOptimizer(partopt.LegacyPlanner)

	rnd := rand.New(rand.NewSource(2014))
	genDML := func() string {
		lo := rnd.Intn(1200)
		hi := lo + rnd.Intn(300)
		switch rnd.Intn(3) {
		case 0:
			return fmt.Sprintf("UPDATE r SET a = a + 1 WHERE b BETWEEN %d AND %d", lo, hi)
		case 1:
			return fmt.Sprintf("UPDATE r SET b = b + 7 WHERE b BETWEEN %d AND %d AND a < %d", lo, hi, rnd.Intn(1000))
		default:
			return fmt.Sprintf("DELETE FROM r WHERE b BETWEEN %d AND %d AND a >= %d", lo, hi, rnd.Intn(1000))
		}
	}

	for i := 0; i < 40; i++ {
		stmt := genDML()
		nOrca, err := orcaEng.Exec(stmt)
		if err != nil {
			t.Fatalf("stmt %d orca: %v\n%s", i, err, stmt)
		}
		nLegacy, err := legacyEng.Exec(stmt)
		if err != nil {
			t.Fatalf("stmt %d legacy: %v\n%s", i, err, stmt)
		}
		if nOrca != nLegacy {
			t.Fatalf("stmt %d: affected rows differ: orca=%d legacy=%d\n%s", i, nOrca, nLegacy, stmt)
		}
	}

	const all = "SELECT a, b FROM r"
	ra, err := orcaEng.Query(all)
	if err != nil {
		t.Fatalf("final orca scan: %v", err)
	}
	rb, err := legacyEng.Query(all)
	if err != nil {
		t.Fatalf("final legacy scan: %v", err)
	}
	ra.SortData()
	rb.SortData()
	if !resultsEqual(ra.Data, rb.Data) {
		t.Fatalf("final table states differ: orca=%d rows, legacy=%d rows", len(ra.Data), len(rb.Data))
	}
}
