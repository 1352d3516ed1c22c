package bench

import (
	"strings"
	"testing"

	"partopt"
	"partopt/internal/workload"
)

// smallStar keeps harness tests fast.
func smallStar() workload.StarConfig {
	cfg := workload.DefaultStarConfig()
	cfg.SalesPerDay = 6
	return cfg
}

func TestRunTable2Shape(t *testing.T) {
	rows, err := RunTable2(Table2Config{Rows: 3000, Segments: 2, Iters: 2})
	if err != nil {
		t.Fatalf("RunTable2: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 scenarios", len(rows))
	}
	if rows[0].Parts != 1 || rows[1].Parts != 42 || rows[2].Parts != 84 {
		t.Errorf("partition counts = %d/%d/%d", rows[0].Parts, rows[1].Parts, rows[2].Parts)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "partitioned monthly") {
		t.Errorf("format missing fields:\n%s", out)
	}
}

func TestRunWorkloadAndClassification(t *testing.T) {
	stats, err := RunWorkload(smallStar(), 2)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if len(stats) != len(workload.StarQueries()) {
		t.Fatalf("stats = %d, want %d", len(stats), len(workload.StarQueries()))
	}
	counts := map[Category]int{}
	for _, s := range stats {
		if s.OrcaParts > s.TotalParts || s.LegacyParts > s.TotalParts {
			t.Errorf("%s: scanned more parts than exist: %+v", s.Name, s)
		}
		counts[Classify(s)]++
	}
	// The paper's headline shape: Orca is never worse on this workload's
	// elimination, equality dominates, and a solid block of queries only
	// Orca can prune (the IN-subquery and fact-first groups).
	if counts[OrcaOnly] < 5 {
		t.Errorf("OrcaOnly = %d, want ≥ 5 (subquery/fact-first groups)", counts[OrcaOnly])
	}
	if counts[Equal] < 10 {
		t.Errorf("Equal = %d, want ≥ 10 (static + simple join groups)", counts[Equal])
	}
	out := FormatTable3(stats)
	for _, c := range Categories {
		if !strings.Contains(out, string(c)) {
			t.Errorf("Table 3 output missing category %q", c)
		}
	}
}

func TestClassifyBuckets(t *testing.T) {
	cases := []struct {
		s    QueryStat
		want Category
	}{
		{QueryStat{TotalParts: 24, OrcaParts: 3, LegacyParts: 24}, OrcaOnly},
		{QueryStat{TotalParts: 24, OrcaParts: 3, LegacyParts: 6}, OrcaMore},
		{QueryStat{TotalParts: 24, OrcaParts: 3, LegacyParts: 3}, Equal},
		{QueryStat{TotalParts: 24, OrcaParts: 6, LegacyParts: 3}, OrcaFewer},
		{QueryStat{TotalParts: 24, OrcaParts: 24, LegacyParts: 3}, PlannerOnly},
		{QueryStat{TotalParts: 24, OrcaParts: 24, LegacyParts: 24}, Equal},
	}
	for _, c := range cases {
		if got := Classify(c.s); got != c.want {
			t.Errorf("Classify(%+v) = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestFigure16Aggregation(t *testing.T) {
	stats := []QueryStat{
		{Fact: "store_sales", OrcaParts: 3, LegacyParts: 24},
		{Fact: "store_sales", OrcaParts: 2, LegacyParts: 2},
		{Fact: "web_returns", OrcaParts: 1, LegacyParts: 24},
	}
	rows := Figure16(stats)
	if len(rows) != len(workload.FactTables) {
		t.Fatalf("rows = %d", len(rows))
	}
	byTable := map[string]Figure16Row{}
	for _, r := range rows {
		byTable[r.Table] = r
	}
	if byTable["store_sales"].OrcaParts != 5 || byTable["store_sales"].PlannerParts != 26 {
		t.Errorf("store_sales agg = %+v", byTable["store_sales"])
	}
	out := FormatFigure16(rows)
	if !strings.Contains(out, "web_returns") {
		t.Errorf("format missing table:\n%s", out)
	}
}

func TestRunFigure17(t *testing.T) {
	rows, err := RunFigure17(smallStar(), 2, 2)
	if err != nil {
		t.Fatalf("RunFigure17: %v", err)
	}
	if len(rows) != len(workload.StarQueries()) {
		t.Fatalf("rows = %d", len(rows))
	}
	improved := 0
	for _, r := range rows {
		if r.ImprovementPct > 10 {
			improved++
		}
	}
	// The paper: "across the board partition selection speeds up execution
	// time" — require a majority to improve even at unit-test scale.
	if improved < len(rows)/2 {
		t.Errorf("only %d/%d queries improved >10%%", improved, len(rows))
	}
	out := FormatFigure17(rows)
	if !strings.Contains(out, "short-running") || !strings.Contains(out, "long-running") {
		t.Errorf("format missing blocks:\n%s", out)
	}
}

func TestRunFigure18a(t *testing.T) {
	rows, err := RunFigure18a(2)
	if err != nil {
		t.Fatalf("RunFigure18a: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Orca flat, Planner growing with % of partitions scanned.
	if rows[0].OrcaBytes != rows[4].OrcaBytes {
		t.Errorf("orca plan size varies: %d vs %d", rows[0].OrcaBytes, rows[4].OrcaBytes)
	}
	if rows[4].PlannerBytes < 5*rows[0].PlannerBytes {
		t.Errorf("planner plan should grow ~linearly: 1%%=%dB 100%%=%dB", rows[0].PlannerBytes, rows[4].PlannerBytes)
	}
	if !strings.Contains(FormatFigure18("t", "x", rows), "ratio") {
		t.Errorf("format wrong")
	}
}

func TestRunFigure18b(t *testing.T) {
	rows, err := RunFigure18b(2)
	if err != nil {
		t.Fatalf("RunFigure18b: %v", err)
	}
	first, last := rows[0], rows[len(rows)-1]
	// Planner linear in partition count (both tables' Appends expand).
	if float64(last.PlannerBytes) < 4*float64(first.PlannerBytes) {
		t.Errorf("planner growth too small: %d → %d bytes", first.PlannerBytes, last.PlannerBytes)
	}
	// Orca nearly flat (paper allows small metadata growth; ours is flat).
	if last.OrcaBytes > 2*first.OrcaBytes {
		t.Errorf("orca plan grew with partitions: %d → %d bytes", first.OrcaBytes, last.OrcaBytes)
	}
}

func TestRunFigure18c(t *testing.T) {
	rows, err := RunFigure18c(2)
	if err != nil {
		t.Fatalf("RunFigure18c: %v", err)
	}
	first, last := rows[0], rows[len(rows)-1]
	// Quadratic: 6x partitions → ~36x plan size.
	if float64(last.PlannerBytes) < 20*float64(first.PlannerBytes) {
		t.Errorf("planner DML growth should be ~quadratic: %d → %d bytes", first.PlannerBytes, last.PlannerBytes)
	}
	if last.OrcaBytes > 2*first.OrcaBytes {
		t.Errorf("orca DML plan grew: %d → %d bytes", first.OrcaBytes, last.OrcaBytes)
	}
}

func TestTimeQueryErrors(t *testing.T) {
	eng, _ := partopt.New(1)
	if _, err := timeQuery(eng, "SELECT * FROM ghost", 1); err == nil {
		t.Errorf("timeQuery swallowed error")
	}
}
