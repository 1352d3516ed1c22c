// Package bench regenerates every table and figure of the paper's
// evaluation (§4). Each Run* function performs one experiment and returns
// structured rows plus a formatted table whose columns mirror the paper's.
// cmd/experiments prints them all; the end-to-end benchmark (./benchmark)
// measures the engine beyond the paper.
//
// Absolute numbers differ from the paper (the substrate is an in-process
// simulation, not a 4-node cluster); the reproduction target is the shape:
// who wins, by roughly what factor, and how metrics scale with partition
// count.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"partopt"
	"partopt/internal/workload"
)

// timeQuery runs a query `iters` times after a warm-up execution and a GC
// cycle (bulk loading leaves garbage that would otherwise be collected
// inside the first timed run), returning the fastest run.
func timeQuery(eng *partopt.Engine, sql string, iters int) (time.Duration, error) {
	if _, err := eng.Query(sql); err != nil {
		return 0, err
	}
	runtime.GC()
	best := time.Duration(1<<62 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := eng.Query(sql); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one partitioning scenario of Table 2.
type Table2Row struct {
	Parts       int
	Description string
	Elapsed     time.Duration
	OverheadPct float64 // vs the unpartitioned scan
}

// Table2Config scales the Table 2 experiment.
type Table2Config struct {
	Rows     int
	Segments int
	Iters    int
}

// RunTable2 measures full-scan overhead of partitioning at the paper's four
// granularities: SELECT * FROM lineitem with 7 years of data. All five
// engines are built first and then measured round-robin, so GC pressure
// and CPU noise hit every scheme equally instead of biasing whichever was
// timed first.
func RunTable2(cfg Table2Config) ([]Table2Row, error) {
	schemes := []workload.LineitemScheme{
		workload.LineitemUnpartitioned,
		workload.LineitemBiMonthly,
		workload.LineitemMonthly,
		workload.LineitemBiWeekly,
		workload.LineitemWeekly,
	}
	const q = "SELECT * FROM lineitem"
	engines := make([]*partopt.Engine, len(schemes))
	for i, scheme := range schemes {
		eng, err := partopt.New(cfg.Segments)
		if err != nil {
			return nil, err
		}
		if err := workload.BuildLineitem(eng, scheme, cfg.Rows); err != nil {
			return nil, err
		}
		if _, err := eng.Query(q); err != nil { // warm-up
			return nil, err
		}
		engines[i] = eng
	}
	runtime.GC()

	best := make([]time.Duration, len(schemes))
	for i := range best {
		best[i] = time.Duration(1<<62 - 1)
	}
	for iter := 0; iter < cfg.Iters; iter++ {
		for i, eng := range engines {
			runtime.GC() // keep collector pauses out of the timed window
			start := time.Now()
			if _, err := eng.Query(q); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < best[i] {
				best[i] = d
			}
		}
	}

	var rows []Table2Row
	base := best[0]
	for i, scheme := range schemes {
		row := Table2Row{Parts: scheme.Parts(), Description: scheme.String(), Elapsed: best[i]}
		if i > 0 && base > 0 {
			row.OverheadPct = 100 * (float64(best[i])/float64(base) - 1)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the experiment in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Partitioning lineitem — full-scan overhead vs unpartitioned\n")
	fmt.Fprintf(&b, "%8s  %-32s  %12s  %9s\n", "#parts", "Description", "elapsed", "overhead")
	for _, r := range rows {
		over := "baseline"
		if r.Parts > 1 {
			over = fmt.Sprintf("%+.0f%%", r.OverheadPct)
		}
		fmt.Fprintf(&b, "%8d  %-32s  %12v  %9s\n", r.Parts, r.Description, r.Elapsed.Round(time.Microsecond), over)
	}
	return b.String()
}

// ------------------------------------------------- Table 3 and Figure 16

// QueryStat records partition-elimination behaviour of one workload query
// under both optimizers.
type QueryStat struct {
	Name        string
	Fact        string
	TotalParts  int
	OrcaParts   int
	LegacyParts int
	OrcaNs      time.Duration
	LegacyNs    time.Duration
}

// Category is a Table 3 classification bucket.
type Category string

// The five Table 3 buckets.
const (
	OrcaOnly    Category = "Orca eliminates parts, Planner does not"
	OrcaMore    Category = "Orca eliminates more parts than Planner"
	Equal       Category = "Orca and Planner eliminate parts equally"
	OrcaFewer   Category = "Orca eliminates fewer parts than Planner"
	PlannerOnly Category = "Orca does not eliminate parts, Planner does"
)

// Categories lists the buckets in the paper's order.
var Categories = []Category{OrcaOnly, OrcaMore, Equal, OrcaFewer, PlannerOnly}

// Classify assigns one query's stats to its Table 3 bucket.
func Classify(s QueryStat) Category {
	switch {
	case s.OrcaParts == s.LegacyParts:
		return Equal
	case s.OrcaParts < s.LegacyParts && s.LegacyParts >= s.TotalParts:
		return OrcaOnly
	case s.OrcaParts < s.LegacyParts:
		return OrcaMore
	case s.OrcaParts >= s.TotalParts && s.LegacyParts < s.TotalParts:
		return PlannerOnly
	default:
		return OrcaFewer
	}
}

// RunWorkload executes the star-schema workload under both optimizers and
// collects per-query stats — the raw material of Table 3 and Figure 16.
func RunWorkload(cfg workload.StarConfig, segments int) ([]QueryStat, error) {
	eng, err := partopt.New(segments)
	if err != nil {
		return nil, err
	}
	if err := workload.BuildStar(eng, cfg); err != nil {
		return nil, err
	}
	var out []QueryStat
	for _, q := range workload.StarQueries() {
		total, err := eng.NumPartitions(q.Fact)
		if err != nil {
			return nil, err
		}
		stat := QueryStat{Name: q.Name, Fact: q.Fact, TotalParts: total}

		eng.SetOptimizer(partopt.Orca)
		start := time.Now()
		rows, err := eng.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s (orca): %w", q.Name, err)
		}
		stat.OrcaNs = time.Since(start)
		stat.OrcaParts = rows.PartsScanned[q.Fact]

		eng.SetOptimizer(partopt.LegacyPlanner)
		start = time.Now()
		rows, err = eng.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s (legacy): %w", q.Name, err)
		}
		stat.LegacyNs = time.Since(start)
		stat.LegacyParts = rows.PartsScanned[q.Fact]
		out = append(out, stat)
	}
	return out, nil
}

// FormatTable3 renders the workload classification.
func FormatTable3(stats []QueryStat) string {
	counts := map[Category]int{}
	for _, s := range stats {
		counts[Classify(s)]++
	}
	var b strings.Builder
	b.WriteString("Table 3: Workload classification\n")
	fmt.Fprintf(&b, "%-46s  %10s\n", "Category", "Percentage")
	for _, c := range Categories {
		pct := 100 * float64(counts[c]) / float64(len(stats))
		fmt.Fprintf(&b, "%-46s  %9.0f%%\n", c, pct)
	}
	return b.String()
}

// Figure16Row aggregates scanned partitions per fact table.
type Figure16Row struct {
	Table        string
	PlannerParts int
	OrcaParts    int
}

// Figure16 aggregates the workload stats per fact table (the paper sums
// scanned partitions across the whole workload).
func Figure16(stats []QueryStat) []Figure16Row {
	agg := map[string]*Figure16Row{}
	for _, fact := range workload.FactTables {
		agg[fact] = &Figure16Row{Table: fact}
	}
	for _, s := range stats {
		r := agg[s.Fact]
		if r == nil {
			r = &Figure16Row{Table: s.Fact}
			agg[s.Fact] = r
		}
		r.PlannerParts += s.LegacyParts
		r.OrcaParts += s.OrcaParts
	}
	var out []Figure16Row
	for _, fact := range workload.FactTables {
		out = append(out, *agg[fact])
	}
	return out
}

// FormatFigure16 renders the per-table comparison.
func FormatFigure16(rows []Figure16Row) string {
	var b strings.Builder
	b.WriteString("Figure 16: Partition elimination — # of scanned parts per table (whole workload)\n")
	fmt.Fprintf(&b, "%-16s  %8s  %8s  %12s\n", "table", "Planner", "Orca", "eliminated")
	for _, r := range rows {
		elim := 0.0
		if r.PlannerParts > 0 {
			elim = 100 * (1 - float64(r.OrcaParts)/float64(r.PlannerParts))
		}
		fmt.Fprintf(&b, "%-16s  %8d  %8d  %11.0f%%\n", r.Table, r.PlannerParts, r.OrcaParts, elim)
	}
	return b.String()
}
