package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"partopt/internal/bench"
)

// benchRecord is one metric of one experiment, in the stable schema the
// perf-trajectory tooling consumes: {experiment, metric, value, unit}.
// BENCH_<experiment>.json files hold a flat array of these records, so a
// later PR can diff any metric against any earlier commit's file.
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
}

// writeBenchJSON writes one experiment's records to BENCH_<name>.json in
// dir. Records are written sorted exactly as produced (the producers emit a
// stable order), and the file ends with a newline so diffs stay clean.
func writeBenchJSON(dir, name string, recs []benchRecord) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", name))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d metrics)\n", path, len(recs))
	return nil
}

// table2Records flattens the Table 2 rows: elapsed and throughput per
// partitioning scheme, plus the overhead percentage the paper reports. The
// @Nparts suffix keys each scheme, so "elapsed_ns@1parts" is the
// unpartitioned full-scan baseline the acceptance criteria track.
func table2Records(rows []bench.Table2Row, scanRows int) []benchRecord {
	var out []benchRecord
	for _, r := range rows {
		key := fmt.Sprintf("@%dparts", r.Parts)
		out = append(out,
			benchRecord{"table2", "elapsed_ns" + key, float64(r.Elapsed.Nanoseconds()), "ns"},
			benchRecord{"table2", "rows_per_sec" + key, rowsPerSec(scanRows, r.Elapsed), "rows/s"},
		)
		if r.Parts > 1 {
			out = append(out, benchRecord{"table2", "overhead_pct" + key, r.OverheadPct, "%"})
		}
	}
	return out
}

func rowsPerSec(rows int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(rows) / d.Seconds()
}

// table3Records flattens the workload classification percentages.
func table3Records(stats []bench.QueryStat) []benchRecord {
	counts := map[bench.Category]int{}
	for _, s := range stats {
		counts[bench.Classify(s)]++
	}
	total := float64(len(stats))
	metric := map[bench.Category]string{
		bench.OrcaOnly:    "orca_only_pct",
		bench.OrcaMore:    "orca_more_pct",
		bench.Equal:       "equal_pct",
		bench.OrcaFewer:   "orca_fewer_pct",
		bench.PlannerOnly: "planner_only_pct",
	}
	var out []benchRecord
	for _, c := range bench.Categories {
		out = append(out, benchRecord{"table3", metric[c], 100 * float64(counts[c]) / total, "%"})
	}
	return out
}

// fig16Records flattens scanned-partition totals per fact table.
func fig16Records(rows []bench.Figure16Row) []benchRecord {
	var out []benchRecord
	for _, r := range rows {
		out = append(out,
			benchRecord{"fig16", "planner_parts@" + r.Table, float64(r.PlannerParts), "parts"},
			benchRecord{"fig16", "orca_parts@" + r.Table, float64(r.OrcaParts), "parts"},
		)
	}
	return out
}

// fig17Records flattens the per-query selection-on/off improvement.
func fig17Records(rows []bench.Figure17Row) []benchRecord {
	var out []benchRecord
	for _, r := range rows {
		out = append(out,
			benchRecord{"fig17", "improvement_pct@" + r.Name, r.ImprovementPct, "%"},
			benchRecord{"fig17", "elapsed_on_ns@" + r.Name, float64(r.On.Nanoseconds()), "ns"},
		)
	}
	return out
}

// fig18Records flattens one plan-size curve (a, b or c).
func fig18Records(name string, rows []bench.SizeRow) []benchRecord {
	var out []benchRecord
	for _, r := range rows {
		key := fmt.Sprintf("@%d", r.X)
		out = append(out,
			benchRecord{name, "planner_bytes" + key, float64(r.PlannerBytes), "bytes"},
			benchRecord{name, "orca_bytes" + key, float64(r.OrcaBytes), "bytes"},
		)
	}
	return out
}
