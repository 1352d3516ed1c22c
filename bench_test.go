// Ablation benchmarks for the two features beyond the paper's evaluation
// that EXPERIMENTS.md and DESIGN.md quote numbers for: the partition-wise
// join and the per-partition index scan. Run them with
//
//	go test -bench=Ablation -run '^$' .
//
// The paper's own tables and figures are printed by cmd/experiments.
package partopt_test

import (
	"testing"

	"partopt"
)

// BenchmarkAblation_PartitionWiseJoin compares the partition-wise join
// (the §5 related-work extension) against the monolithic hash join on
// co-partitioned, co-distributed tables. The computed-key variant disables
// the partition-wise rule while computing the same result.
func BenchmarkAblation_PartitionWiseJoin(b *testing.B) {
	eng, err := partopt.New(4)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for _, name := range []string{"pa", "pb"} {
		eng.MustCreateTable(name,
			partopt.Columns("k", partopt.TypeInt, "v", partopt.TypeInt),
			partopt.DistributedBy("k"),
			partopt.PartitionByRangeInt("k", 0, 100000, 50),
		)
		rows := make([][]partopt.Value, 0, 20000)
		for i := int64(0); i < 100000; i += 5 {
			rows = append(rows, []partopt.Value{partopt.Int(i), partopt.Int(i % 97)})
		}
		if err := eng.InsertRows(name, rows); err != nil {
			b.Fatalf("load %s: %v", name, err)
		}
	}
	if err := eng.Analyze(); err != nil {
		b.Fatalf("Analyze: %v", err)
	}
	cases := []struct {
		name string
		sql  string
	}{
		{"partition-wise", "SELECT count(*) FROM pa, pb WHERE pa.k = pb.k"},
		{"hash-join", "SELECT count(*) FROM pa, pb WHERE pa.k + 0 = pb.k"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := eng.Query(c.sql)
				if err != nil {
					b.Fatalf("Query: %v", err)
				}
				if rows.Data[0][0].Int() != 20000 {
					b.Fatalf("count = %v", rows.Data[0][0])
				}
			}
		})
	}
}

// BenchmarkAblation_IndexScan compares a DynamicIndexScan (partition
// elimination + per-leaf index lookup — the paper's future-work indexing)
// against the plain DynamicScan+Filter on the same selective query.
func BenchmarkAblation_IndexScan(b *testing.B) {
	build := func(withIndex bool) *partopt.Engine {
		eng, err := partopt.New(4)
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		eng.MustCreateTable("sales",
			partopt.Columns("date_id", partopt.TypeInt, "amount", partopt.TypeInt),
			partopt.DistributedBy("amount"),
			partopt.PartitionByRangeInt("date_id", 0, 240, 24),
		)
		rows := make([][]partopt.Value, 0, 240*200)
		for d := int64(0); d < 240; d++ {
			for i := int64(0); i < 200; i++ {
				rows = append(rows, []partopt.Value{partopt.Int(d), partopt.Int((d*31 + i*53) % 10000)})
			}
		}
		if err := eng.InsertRows("sales", rows); err != nil {
			b.Fatalf("load: %v", err)
		}
		if err := eng.Analyze(); err != nil {
			b.Fatalf("Analyze: %v", err)
		}
		if withIndex {
			if err := eng.CreateIndex("sales_amount", "sales", "amount"); err != nil {
				b.Fatalf("CreateIndex: %v", err)
			}
		}
		return eng
	}
	const q = "SELECT count(*) FROM sales WHERE date_id BETWEEN 100 AND 119 AND amount >= 9900"
	for _, c := range []struct {
		name      string
		withIndex bool
	}{{"scan", false}, {"index", true}} {
		eng := build(c.withIndex)
		if _, err := eng.Query(q); err != nil { // warm (index build)
			b.Fatalf("warm: %v", err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q); err != nil {
					b.Fatalf("Query: %v", err)
				}
			}
		})
	}
}
