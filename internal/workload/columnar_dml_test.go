package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"partopt"
	"partopt/internal/exec"
)

// Optimizer equivalence for DML. The target scan of an UPDATE or DELETE
// reads lanes, carries the RowID as one more lane, qualifies rows with the
// vector filter and builds rows only for the matches. Two mirrored engines
// run the same seeded statement stream, one always under Orca (whose
// target is a DynamicScan) and one always under the legacy planner (an
// Append of per-leaf Scans), and must agree on every affected-row count
// and on the whole table after every statement.

// dmlEquivEngine builds one side of the differential: a partitioned target
// table t with NULLs, a float column whose lanes are degraded to mixed by
// integer values (so the vector kernel refuses predicates on it and the
// filter's row fallback runs), and a small replicated dimension d for
// UPDATE ... FROM / DELETE ... USING joins. Mirrors are on.
func dmlEquivEngine(t *testing.T) *partopt.Engine {
	t.Helper()
	eng, err := partopt.New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.EnableFaultTolerance(partopt.FTConfig{ProbeInterval: 0})
	t.Cleanup(eng.StopFTS)
	if err := eng.CreateTable("t",
		partopt.Columns("a", partopt.TypeInt, "b", partopt.TypeInt, "c", partopt.TypeInt, "f", partopt.TypeFloat, "s", partopt.TypeString),
		partopt.DistributedBy("a"),
		partopt.PartitionByRangeInt("b", 0, 1200, 12),
	); err != nil {
		t.Fatalf("create t: %v", err)
	}
	if err := eng.CreateTable("d",
		partopt.Columns("k", partopt.TypeInt, "m", partopt.TypeInt),
		partopt.Replicated(),
	); err != nil {
		t.Fatalf("create d: %v", err)
	}
	rnd := rand.New(rand.NewSource(34))
	var rows [][]partopt.Value
	for i := 0; i < 720; i++ {
		c := partopt.Int(rnd.Int63n(50))
		if rnd.Intn(6) == 0 {
			c = partopt.Value{}
		}
		// One value in eight is an integer in the float column: the lane
		// holding it degrades to mixed.
		f := partopt.Float(float64(rnd.Intn(1000)) / 10)
		if rnd.Intn(8) == 0 {
			f = partopt.Int(rnd.Int63n(100))
		}
		s := partopt.String(fmt.Sprintf("s%02d", rnd.Intn(20)))
		if rnd.Intn(9) == 0 {
			s = partopt.Value{}
		}
		rows = append(rows, []partopt.Value{partopt.Int(int64(i)), partopt.Int(rnd.Int63n(1200)), c, f, s})
	}
	if err := eng.InsertRows("t", rows); err != nil {
		t.Fatalf("insert t: %v", err)
	}
	var dims [][]partopt.Value
	for k := int64(0); k < 40; k++ {
		dims = append(dims, []partopt.Value{partopt.Int(k * 17), partopt.Int(k % 4)})
	}
	if err := eng.InsertRows("d", dims); err != nil {
		t.Fatalf("insert d: %v", err)
	}
	return eng
}

// dmlEquivStream is the seeded statement stream. It holds every shape the
// lane-based target scan must get right: vectorizable range and equality
// predicates, predicates the vector kernel refuses (arithmetic, never
// compiled; the mixed float lane, refused per batch), partition-key
// UPDATEs that move rows across leaves, SET expressions reading the old
// row, NULLs on both sides, joins, a statement that matches nothing and
// one that matches a whole leaf.
func dmlEquivStream(rnd *rand.Rand, n int) []string {
	fixed := []string{
		"DELETE FROM t WHERE a = -1",                                  // matches nothing
		"UPDATE t SET c = 7 WHERE b >= 300 AND b < 400",               // one whole leaf
		"UPDATE t SET c = NULL WHERE b >= 1100",                       // the last leaf, to NULL
		"DELETE FROM t WHERE b BETWEEN 500 AND 599",                   // a whole leaf, deleted
		"UPDATE t SET b = 1199 - b, c = c + a WHERE a < 60",           // partition-key move
		"DELETE FROM t USING d WHERE t.a = d.k AND d.m = 1",           // join-driven delete
		"UPDATE t SET f = f + 1 WHERE f > 50",                         // mixed-lane predicate
		"UPDATE t SET s = 'moved', b = 1199 - b WHERE c IS NULL",      // NULL predicate, move
		"UPDATE t SET c = d.m FROM d WHERE t.a = d.k AND t.b > 600",   // join-driven update
		"DELETE FROM t WHERE a + b = 1199 OR s IS NULL AND a % 5 = 0", // never compiled
	}
	out := append([]string(nil), fixed...)
	for len(out) < n {
		lo := rnd.Intn(1200)
		hi := lo + rnd.Intn(250)
		k := rnd.Intn(720)
		switch rnd.Intn(9) {
		case 0:
			out = append(out, fmt.Sprintf("UPDATE t SET c = c + 1 WHERE b BETWEEN %d AND %d", lo, hi))
		case 1:
			out = append(out, fmt.Sprintf("DELETE FROM t WHERE a = %d", k))
		case 2:
			out = append(out, fmt.Sprintf("UPDATE t SET c = %d WHERE a = %d AND b >= %d", rnd.Intn(50), k, lo))
		case 3:
			out = append(out, fmt.Sprintf("UPDATE t SET b = 1199 - b WHERE a BETWEEN %d AND %d", k, k+20))
		case 4:
			out = append(out, fmt.Sprintf("UPDATE t SET c = c * 2 - a, s = 'u%d' WHERE c > %d AND b < %d", k%10, rnd.Intn(50), hi))
		case 5:
			out = append(out, fmt.Sprintf("DELETE FROM t WHERE f < %d.5 AND b >= %d", rnd.Intn(30), lo))
		case 6:
			out = append(out, fmt.Sprintf("UPDATE t SET f = f * 2 WHERE a %% 7 = %d AND b < %d", rnd.Intn(7), hi))
		case 7:
			out = append(out, fmt.Sprintf("DELETE FROM t WHERE c IS NULL AND b BETWEEN %d AND %d", lo, hi))
		default:
			out = append(out, fmt.Sprintf("UPDATE t SET c = NULL WHERE s = 's%02d' AND c < %d", rnd.Intn(20), rnd.Intn(50)))
		}
	}
	return out
}

func TestColumnarDMLEquivalence(t *testing.T) {
	for _, bs := range []int{1, 7, exec.DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			defer exec.SetBatchSize(exec.SetBatchSize(bs))
			engs := [2]*partopt.Engine{dmlEquivEngine(t), dmlEquivEngine(t)}
			opts := [2]partopt.OptimizerKind{partopt.Orca, partopt.LegacyPlanner}
			targets := [2]string{"DynamicScan", "Append"}
			for side, eng := range engs {
				eng.SetOptimizer(opts[side])
				plan, err := eng.Explain("DELETE FROM t WHERE b < 600")
				if err != nil || !strings.Contains(plan, targets[side]) {
					t.Fatalf("%v: want a %s target (%v):\n%s", opts[side], targets[side], err, plan)
				}
			}
			rnd := rand.New(rand.NewSource(int64(2014 + bs)))
			for i, stmt := range dmlEquivStream(rnd, 40) {
				var affected [2]int64
				var tables [2]*partopt.Rows
				for side, eng := range engs {
					n, err := eng.Exec(stmt)
					if err != nil {
						t.Fatalf("stmt %d (%v): %v\n%s", i, opts[side], err, stmt)
					}
					affected[side] = n
					if tables[side], err = eng.Query("SELECT a, b, c, f, s FROM t"); err != nil {
						t.Fatalf("stmt %d (%v): table scan: %v", i, opts[side], err)
					}
				}
				if affected[0] != affected[1] {
					t.Fatalf("stmt %d: affected rows orca=%d planner=%d\n%s", i, affected[0], affected[1], stmt)
				}
				assertSameData(t, fmt.Sprintf("stmt %d table (%s)", i, stmt), tables[1], tables[0], false)
			}
		})
	}
}
