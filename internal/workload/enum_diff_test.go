package workload

import (
	"fmt"
	"testing"

	"partopt"
)

// sortedRowsUnder runs q under the given optimizer; rows come back sorted.
func sortedRowsUnder(t *testing.T, eng *partopt.Engine, kind partopt.OptimizerKind, q string) [][]partopt.Value {
	t.Helper()
	eng.SetOptimizer(kind)
	rows, err := eng.Query(q)
	if err != nil {
		t.Fatalf("%v Query: %v\n%s", kind, err, q)
	}
	rows.SortData()
	return rows.Data
}

// TestGeneratedJoinsAgreeWithLegacy is the join-enumerator differential
// harness: on the generated 5/10/15/20-table star and snowflake schemas the
// enumerating optimizer must return the row multiset of the legacy planner,
// which joins in the order written and shares none of the enumerator's code.
// The sizes straddle the DP cutoff (DefaultMaxDPLeaves = 10), so both the
// exhaustive and the greedy enumerator are exercised.
func TestGeneratedJoinsAgreeWithLegacy(t *testing.T) {
	for _, tables := range []int{5, 10, 15, 20} {
		for _, shape := range []JoinShape{JoinStar, JoinSnowflake} {
			for _, seed := range []int64{11, 23} {
				cfg := JoinSchemaConfig{Tables: tables, Shape: shape, Seed: seed}
				t.Run(fmt.Sprintf("%s%d_s%d", shape, tables, seed), func(t *testing.T) {
					eng, err := partopt.New(2)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					js, err := BuildJoinSchema(eng, cfg)
					if err != nil {
						t.Fatalf("BuildJoinSchema: %v", err)
					}
					orca := sortedRowsUnder(t, eng, partopt.Orca, js.SQL)
					legacy := sortedRowsUnder(t, eng, partopt.LegacyPlanner, js.SQL)
					if len(orca) == 0 || !resultsEqual(orca, legacy) {
						t.Fatalf("orca disagrees with legacy (or both are empty)\nquery: %s\norca: %v\nlegacy: %v",
							js.SQL, sample(orca), sample(legacy))
					}
				})
			}
		}
	}
}
