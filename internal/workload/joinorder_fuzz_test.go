package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"partopt"
)

// Join-order fuzzer: random chain, star and clique join graphs over tables
// with random physical layouts (partitioned or not, hashed or replicated).
// The enumerating optimizer must agree with the legacy planner's row
// multisets on every graph: reordering may change the plan, never the
// answer.
func TestFuzzJoinOrderAgainstLegacy(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	const domain = 30 // all int values live in [0, domain)

	for iter := 0; iter < 20; iter++ {
		n := 3 + rnd.Intn(4) // 3..6 tables
		shape := []string{"chain", "star", "clique"}[rnd.Intn(3)]

		eng, err := partopt.New(2)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		cols := []string{"a", "b", "c"}
		for i := 0; i < n; i++ {
			opts := []partopt.TableOption{}
			if rnd.Intn(2) == 0 {
				opts = append(opts, partopt.Replicated())
			} else {
				opts = append(opts, partopt.DistributedBy(cols[rnd.Intn(3)]))
			}
			if rnd.Intn(2) == 0 {
				// Random partitioning key; values cover the domain exactly.
				opts = append(opts, partopt.PartitionByRangeInt(cols[rnd.Intn(3)], 0, domain, 5))
			}
			name := fmt.Sprintf("t%d", i)
			if err := eng.CreateTable(name,
				partopt.Columns("a", partopt.TypeInt, "b", partopt.TypeInt, "c", partopt.TypeInt),
				opts...,
			); err != nil {
				t.Fatalf("iter %d CreateTable %s: %v", iter, name, err)
			}
			var rows [][]partopt.Value
			for r := 0; r < domain; r++ {
				rows = append(rows, []partopt.Value{
					partopt.Int(rnd.Int63n(domain)),
					partopt.Int(rnd.Int63n(domain)),
					partopt.Int(rnd.Int63n(domain)),
				})
			}
			if err := eng.InsertRows(name, rows); err != nil {
				t.Fatalf("iter %d InsertRows %s: %v", iter, name, err)
			}
		}
		if err := eng.Analyze(); err != nil {
			t.Fatalf("iter %d Analyze: %v", iter, err)
		}

		// Connecting predicates per shape. Every table is linked, so a
		// well-behaved enumerator never needs a cross join.
		var preds []string
		pick := func() string { return cols[rnd.Intn(3)] }
		switch shape {
		case "chain":
			for i := 0; i+1 < n; i++ {
				preds = append(preds, fmt.Sprintf("x%d.%s = x%d.%s", i, pick(), i+1, pick()))
			}
		case "star":
			for i := 1; i < n; i++ {
				preds = append(preds, fmt.Sprintf("x0.%s = x%d.%s", pick(), i, pick()))
			}
		default: // clique on column a
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					preds = append(preds, fmt.Sprintf("x%d.a = x%d.a", i, j))
				}
			}
		}
		if rnd.Intn(2) == 0 {
			preds = append(preds, fmt.Sprintf("x0.%s < %d", pick(), 1+rnd.Intn(domain)))
		}
		var from []string
		for i := 0; i < n; i++ {
			from = append(from, fmt.Sprintf("t%d x%d", i, i))
		}
		q := fmt.Sprintf("SELECT count(*), sum(x0.a) FROM %s WHERE %s",
			strings.Join(from, ", "), strings.Join(preds, " AND "))

		orca := sortedRowsUnder(t, eng, partopt.Orca, q)
		legacy := sortedRowsUnder(t, eng, partopt.LegacyPlanner, q)
		if !resultsEqual(orca, legacy) {
			t.Fatalf("iter %d (%s): orca disagrees with legacy\nquery: %s\norca: %v\nlegacy: %v",
				iter, shape, q, sample(orca), sample(legacy))
		}
	}
}
