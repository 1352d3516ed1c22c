// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them in the paper's layout:
//
//	Table 2      — full-scan overhead of partitioning lineitem
//	Table 3      — workload classification of partition elimination
//	Figure 16    — scanned partitions per fact table, Planner vs Orca
//	Figure 17    — runtime improvement with partition selection enabled
//	Figure 18a-c — plan-size scaling: static, dynamic, and DML plans
//
// With -json, each experiment additionally writes its headline metrics to
// BENCH_<name>.json in -json-dir (default: current directory) using the
// stable {experiment, metric, value, unit} record schema, so the repo can
// track its performance trajectory commit over commit.
//
// Usage:
//
//	experiments [-segments N] [-rows N] [-sales N] [-iters N] [-only table2|table3|fig16|fig17|fig18] [-json] [-json-dir DIR]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"partopt/internal/bench"
	"partopt/internal/workload"
)

// experiments names every value -only accepts; the flag help and the
// unknown-name error are rendered from it.
var experiments = []string{"table2", "table3", "fig16", "fig17", "fig18"}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is main with its inputs as parameters: it returns the exit code, 2 for
// a command line it rejects before any experiment starts.
func run(args []string, stderr io.Writer) int {
	names := strings.Join(experiments, "|")
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	segments := fs.Int("segments", 4, "number of cluster segments")
	rows := fs.Int("rows", 60000, "lineitem rows for Table 2")
	sales := fs.Int("sales", 40, "star-schema sales rows per day")
	iters := fs.Int("iters", 5, "timing iterations (fastest run wins)")
	only := fs.String("only", "", "run a single experiment ("+names+")")
	jsonOut := fs.Bool("json", false, "write BENCH_<name>.json files with the headline metrics")
	jsonDir := fs.String("json-dir", ".", "directory for -json output files")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *only != "" && !slices.Contains(experiments, *only) {
		fmt.Fprintf(stderr, "unknown experiment %q (want %s)\n", *only, names)
		return 2
	}

	want := func(name string) bool { return *only == "" || *only == name }
	starCfg := workload.DefaultStarConfig()
	starCfg.SalesPerDay = *sales

	emit := func(name string, recs []benchRecord) {
		if *jsonOut {
			fatalIf(writeBenchJSON(*jsonDir, name, recs))
		}
	}

	if want("table2") {
		fmt.Println("== Table 2 ==============================================================")
		t2, err := bench.RunTable2(bench.Table2Config{Rows: *rows, Segments: *segments, Iters: *iters})
		fatalIf(err)
		fmt.Println(bench.FormatTable2(t2))
		emit("table2", table2Records(t2, *rows))
	}

	var stats []bench.QueryStat
	if want("table3") || want("fig16") {
		var err error
		stats, err = bench.RunWorkload(starCfg, *segments)
		fatalIf(err)
	}
	if want("table3") {
		fmt.Println("== Table 3 ==============================================================")
		fmt.Println(bench.FormatTable3(stats))
		fmt.Println("Per-query detail:")
		fmt.Printf("%-24s %-16s %6s %6s %6s\n", "query", "fact", "total", "orca", "plnr")
		for _, s := range stats {
			fmt.Printf("%-24s %-16s %6d %6d %6d\n", s.Name, s.Fact, s.TotalParts, s.OrcaParts, s.LegacyParts)
		}
		fmt.Println()
		emit("table3", table3Records(stats))
	}
	if want("fig16") {
		fmt.Println("== Figure 16 ============================================================")
		f16 := bench.Figure16(stats)
		fmt.Println(bench.FormatFigure16(f16))
		emit("fig16", fig16Records(f16))
	}

	if want("fig17") {
		fmt.Println("== Figure 17 ============================================================")
		f17, err := bench.RunFigure17(starCfg, *segments, *iters)
		fatalIf(err)
		fmt.Println(bench.FormatFigure17(f17))
		emit("fig17", fig17Records(f17))
	}

	if want("fig18") {
		fmt.Println("== Figure 18 ============================================================")
		a, err := bench.RunFigure18a(*segments)
		fatalIf(err)
		fmt.Println(bench.FormatFigure18(
			"Figure 18(a): static partition elimination — plan size",
			"% of partitions scanned", a))
		emit("fig18a", fig18Records("fig18a", a))
		b, err := bench.RunFigure18b(*segments)
		fatalIf(err)
		fmt.Println(bench.FormatFigure18(
			"Figure 18(b): dynamic partition elimination — plan size",
			"partitions per table", b))
		emit("fig18b", fig18Records("fig18b", b))
		c, err := bench.RunFigure18c(*segments)
		fatalIf(err)
		fmt.Println(bench.FormatFigure18(
			"Figure 18(c): DML update join — plan size",
			"partitions per table", c))
		emit("fig18c", fig18Records("fig18c", c))
	}

	return 0
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
