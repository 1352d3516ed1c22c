// Command mppsim is an interactive shell over the simulated MPP engine: it
// loads a demo dataset (the paper's star schema) and accepts SQL, EXPLAIN,
// and a few meta commands. It is the quickest way to poke at partition
// elimination by hand:
//
//	$ go run ./cmd/mppsim
//	mppsim> \optimizer planner
//	mppsim> EXPLAIN SELECT count(*) FROM store_sales WHERE date_id < 30
//	mppsim> SELECT avg(amount) FROM store_sales WHERE date_id IN
//	        (SELECT date_id FROM date_dim WHERE month BETWEEN 22 AND 24)
//
// Meta commands:
//
//	\optimizer orca|planner   switch optimizer
//	\selection on|off         toggle partition selection
//	\index <table> <column>   create a secondary index
//	\tables                   list tables with partition counts
//	\metrics                  print the engine-wide metrics registry
//	\cache                    print plan- and partition-OID-cache statistics
//	\segments                 segment health and failover count (--fts)
//	\kill <seg>               kill a segment's acting primary (--fts)
//	\revive <seg>             revive and resync a killed segment (--fts)
//	\q                        quit
//
// PREPARE <name> AS <statement> compiles a named prepared statement and
// EXECUTE <name> [arg, ...] runs it, binding arguments to $1, $2, ...
// (integers, floats, YYYY-MM-DD dates, NULL and 'strings', which may hold
// commas and spaces; a doubled quote is a literal one). Repeated EXECUTEs
// are served from the plan cache, whose size --plan-cache controls
// (0 disables caching).
//
// EXPLAIN ANALYZE <select> executes the query and prints its plan annotated
// with per-operator actuals, including the paper's "Partitions selected:
// N (out of M)" line. The --explain-analyze flag appends the same tree to
// every query result; --metrics prints the metrics registry when the shell
// exits.
//
// Exit codes: 130 when a query (or the prompt) is interrupted by SIGINT or
// SIGTERM, 124 when a query exceeds the --timeout deadline. Both paths
// report the same partial-statistics block before exiting. SIGTERM is
// handled exactly like SIGINT — graceful cancel, partial stats, exit code
// 130 — so containerized runs drain cleanly instead of dying mid-query.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"partopt"
	"partopt/internal/mem"
	"partopt/internal/server"
	"partopt/internal/workload"
)

// session tracks the in-flight query so the SIGINT handler can cancel it:
// the first interrupt cancels the running query (partial stats are printed
// and the shell exits non-zero); an interrupt at the prompt exits directly.
type session struct {
	mu       sync.Mutex
	inflight context.CancelFunc
}

func (s *session) setInflight(c context.CancelFunc) {
	s.mu.Lock()
	s.inflight = c
	s.mu.Unlock()
}

func (s *session) interrupt() {
	s.mu.Lock()
	c := s.inflight
	s.mu.Unlock()
	if c == nil {
		fmt.Println("\ninterrupted")
		shellExit(130)
	}
	c()
}

// atExit runs before any deliberate shell exit (normal or via exit code) —
// it prints the metrics registry when --metrics was given.
var atExit = func() {}

func shellExit(code int) {
	atExit()
	os.Exit(code)
}

func main() {
	segments := flag.Int("segments", 4, "number of cluster segments")
	sales := flag.Int("sales", 20, "star-schema sales rows per day")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none), e.g. 5s")
	memBudget := flag.String("mem-budget", "", "total executor memory budget, e.g. 64M (empty = unlimited)")
	workMem := flag.String("work-mem", "", "per-query spill threshold, e.g. 256K (empty = fair share of the budget)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrently executing queries (0 = unbounded)")
	explainAnalyze := flag.Bool("explain-analyze", false, "print the EXPLAIN ANALYZE tree after every query")
	metrics := flag.Bool("metrics", false, "print the engine metrics registry when the shell exits")
	planCache := flag.Int("plan-cache", partopt.DefaultPlanCacheCapacity, "plan cache capacity in entries (0 disables caching)")
	oidCache := flag.Int("oid-cache", partopt.DefaultOIDCacheCapacity, "partition-OID cache capacity in entries (0 disables caching)")
	ftsOn := flag.Bool("fts", false, "enable segment fault tolerance (mirrored segments, health probing, failover); adds \\segments and \\kill/\\revive")
	flag.Parse()

	eng, err := partopt.New(*segments)
	fatalIf(err)
	if *planCache != partopt.DefaultPlanCacheCapacity {
		eng.SetPlanCacheCapacity(*planCache)
	}
	if *oidCache != partopt.DefaultOIDCacheCapacity {
		eng.SetOIDCacheCapacity(*oidCache)
	}
	if *memBudget != "" {
		n, err := mem.ParseSize(*memBudget)
		fatalIf(err)
		eng.SetMemBudget(n)
	}
	if *workMem != "" {
		n, err := mem.ParseSize(*workMem)
		fatalIf(err)
		eng.SetWorkMem(n)
	}
	if *maxConcurrent > 0 {
		eng.SetMaxConcurrent(*maxConcurrent)
	}
	cfg := workload.DefaultStarConfig()
	cfg.SalesPerDay = *sales
	fmt.Printf("loading star schema (%d segments, %d months per fact)...\n", *segments, cfg.Months)
	fatalIf(workload.BuildStar(eng, cfg))
	if *ftsOn {
		// After the bulk load: mirrors clone the loaded heaps once instead
		// of dual-applying every boot insert.
		eng.EnableFaultTolerance(partopt.DefaultFTConfig())
		defer eng.StopFTS()
		fmt.Println("fault tolerance enabled: mirrored segments, probe loop running")
	}
	if *metrics {
		atExit = func() { fmt.Print(eng.Metrics()) }
		defer atExit() // the normal-return paths (\q, EOF) report too
	}

	ses := &session{}
	// SIGTERM gets the same graceful treatment as SIGINT: cancel the
	// in-flight query (partial stats, exit 130) or exit at the prompt —
	// container orchestrators send SIGTERM first, and mid-query state
	// must drain, not die. Registered before "ready." is printed so a
	// supervisor that signals as soon as the shell announces itself never
	// hits the runtime's default kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		for range sigCh {
			ses.interrupt()
		}
	}()
	fmt.Println("ready. \\q quits, \\tables lists tables, \\optimizer orca|planner switches.")

	// queryCtx opens the lifecycle for one statement: the caller must invoke
	// the returned stop before reading the next line.
	queryCtx := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), *timeout)
		}
		ses.setInflight(cancel)
		stop := func() {
			ses.setInflight(nil)
			cancel()
		}
		return ctx, stop
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	prepared := map[string]*partopt.Stmt{}
	for {
		fmt.Printf("mppsim(%s)> ", eng.Optimizer())
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "quit" || line == "exit":
			return
		case line == `\tables`:
			for _, name := range eng.TableNames() {
				n, _ := eng.NumPartitions(name)
				fmt.Printf("  %-20s %3d partition(s)\n", name, n)
			}
		case line == `\metrics`:
			fmt.Print(eng.Metrics())
		case line == `\segments`:
			health, ok := eng.SegmentHealth()
			if !ok {
				fmt.Println("fault tolerance is disabled (start with --fts)")
				continue
			}
			fmt.Printf("%d segment(s), %d failover(s)\n", len(health), eng.SegmentFailovers())
			for _, sh := range health {
				fmt.Printf("  seg %d: primary=replica %d", sh.Seg, sh.Primary)
				for r, rep := range sh.Replicas {
					marker := ""
					if rep.Primary {
						marker = "*"
					}
					fmt.Printf("  [%d%s %s]", r, marker, rep.State)
				}
				fmt.Println()
			}
		case strings.HasPrefix(line, `\kill`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\kill`))
			seg, err := strconv.Atoi(arg)
			if err != nil {
				fmt.Println("usage: \\kill <segment>")
				continue
			}
			if err := eng.KillSegment(seg); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("killed segment %d's acting primary; the FTS will detect and fail over\n", seg)
		case strings.HasPrefix(line, `\revive`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\revive`))
			seg, err := strconv.Atoi(arg)
			if err != nil {
				fmt.Println("usage: \\revive <segment>")
				continue
			}
			if err := eng.ReviveSegment(seg); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("revived segment %d's dead replica(s); resynced from the survivor\n", seg)
		case line == `\cache`:
			st := eng.PlanCacheStats()
			fmt.Printf("plan cache: %d/%d entries, epoch %d\n", st.Entries, st.Capacity, st.Epoch)
			fmt.Printf("  hits %d, misses %d, evictions %d, invalidations %d\n",
				st.Hits, st.Misses, st.Evictions, st.Invalidations)
			fmt.Printf("  optimizer invocations: %d\n", st.Optimizations)
			ost := eng.OIDCacheStats()
			fmt.Printf("OID cache: %d/%d entries, epoch %d\n", ost.Entries, ost.Capacity, ost.Epoch)
			fmt.Printf("  hits %d, misses %d, evictions %d, invalidations %d\n",
				ost.Hits, ost.Misses, ost.Evictions, ost.Invalidations)
		case strings.HasPrefix(line, `\optimizer`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\optimizer`))
			switch arg {
			case "orca":
				eng.SetOptimizer(partopt.Orca)
			case "planner":
				eng.SetOptimizer(partopt.LegacyPlanner)
			default:
				fmt.Println("usage: \\optimizer orca|planner")
			}
		case strings.HasPrefix(line, `\index`):
			parts := strings.Fields(strings.TrimPrefix(line, `\index`))
			if len(parts) != 2 {
				fmt.Println("usage: \\index <table> <column>")
				continue
			}
			name := parts[0] + "_" + parts[1] + "_idx"
			if err := eng.CreateIndex(name, parts[0], parts[1]); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("created index %s on %s(%s)\n", name, parts[0], parts[1])
		case strings.HasPrefix(line, `\selection`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\selection`))
			switch arg {
			case "on":
				eng.SetPartitionSelection(true)
			case "off":
				eng.SetPartitionSelection(false)
			default:
				fmt.Println("usage: \\selection on|off")
			}
		case strings.HasPrefix(strings.ToUpper(line), "EXPLAIN ANALYZE "):
			ctx, stop := queryCtx()
			start := time.Now()
			out, err := eng.ExplainAnalyzeCtx(ctx, line[len("EXPLAIN ANALYZE "):])
			stop()
			if err != nil {
				if out != "" {
					fmt.Print(out) // partial actuals gathered before the abort
				}
				reportQueryError(err, nil, time.Since(start))
				continue
			}
			fmt.Print(out)
		case strings.HasPrefix(strings.ToUpper(line), "EXPLAIN "):
			out, err := eng.Explain(line[len("EXPLAIN "):])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		case strings.HasPrefix(strings.ToUpper(line), "PREPARE "):
			rest := line[len("PREPARE "):]
			asIdx := strings.Index(strings.ToUpper(rest), " AS ")
			if asIdx < 0 {
				fmt.Println("usage: PREPARE <name> AS <statement>")
				continue
			}
			name := strings.TrimSpace(rest[:asIdx])
			st, err := eng.Prepare(strings.TrimSpace(rest[asIdx+len(" AS "):]))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			prepared[name] = st
			fmt.Printf("prepared %s: %s\n", name, st.Fingerprint())
		case strings.HasPrefix(strings.ToUpper(line), "EXECUTE "):
			fields := strings.SplitN(strings.TrimSpace(line[len("EXECUTE "):]), " ", 2)
			st, ok := prepared[fields[0]]
			if !ok {
				fmt.Printf("error: no prepared statement %q (use PREPARE <name> AS ...)\n", fields[0])
				continue
			}
			var args []partopt.Value
			if len(fields) == 2 {
				var err error
				if args, err = server.ParseArgs(fields[1]); err != nil {
					fmt.Println("error:", err)
					continue
				}
			}
			ctx, stop := queryCtx()
			runPrepared(ctx, eng, st, args, *explainAnalyze)
			stop()
		case strings.HasPrefix(strings.ToUpper(line), "UPDATE"),
			strings.HasPrefix(strings.ToUpper(line), "DELETE"),
			strings.HasPrefix(strings.ToUpper(line), "INSERT"):
			verb := strings.ToUpper(strings.Fields(line)[0])
			ctx, stop := queryCtx()
			start := time.Now()
			n, err := eng.ExecCtx(ctx, line)
			stop()
			if err != nil {
				reportQueryError(err, nil, time.Since(start))
				continue
			}
			fmt.Printf("%s %d  (%v)\n", verb, n, time.Since(start).Round(time.Microsecond))
		default:
			ctx, stop := queryCtx()
			runSelect(ctx, eng, line, *explainAnalyze)
			stop()
		}
	}
}

// reportQueryError prints a failed statement's outcome. SIGINT cancellation
// and --timeout expiry report the same partial-statistics block — the work
// the cluster did before the abort — and terminate the shell with distinct
// exit codes (130 for interrupt, 124 for timeout, matching the timeout(1)
// convention). Other errors keep the shell running.
func reportQueryError(err error, partial *partopt.Rows, elapsed time.Duration) {
	exit := 0
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Printf("error: query timed out after %v\n", elapsed.Round(time.Millisecond))
		exit = 124
	case errors.Is(err, context.Canceled):
		fmt.Printf("canceled after %v\n", elapsed.Round(time.Millisecond))
		exit = 130
	default:
		fmt.Println("error:", err)
	}
	if partial != nil {
		fmt.Printf("partial: %d rows scanned, %d rows moved", partial.RowsScanned, partial.RowsMoved)
		for table, parts := range partial.PartsScanned {
			fmt.Printf(", %s: %d parts", table, parts)
		}
		fmt.Println()
	}
	if exit != 0 {
		shellExit(exit)
	}
}

func runSelect(ctx context.Context, eng *partopt.Engine, query string, explainAnalyze bool) {
	start := time.Now()
	rows, err := eng.QueryCtx(ctx, query)
	if err != nil {
		if explainAnalyze && rows != nil {
			fmt.Print(rows.ExplainAnalyze()) // partial actuals before the abort
		}
		reportQueryError(err, rows, time.Since(start))
		return
	}
	printRows(eng, rows, time.Since(start), explainAnalyze)
}

// runPrepared executes a named prepared statement, dispatching SELECTs and
// DML on the statement's own report.
func runPrepared(ctx context.Context, eng *partopt.Engine, st *partopt.Stmt, args []partopt.Value, explainAnalyze bool) {
	start := time.Now()
	if !st.IsQuery() {
		n, err := st.ExecCtx(ctx, args...)
		if err != nil {
			reportQueryError(err, nil, time.Since(start))
			return
		}
		fmt.Printf("EXECUTE %d  (%v)\n", n, time.Since(start).Round(time.Microsecond))
		return
	}
	rows, err := st.QueryCtx(ctx, args...)
	if err != nil {
		if explainAnalyze && rows != nil {
			fmt.Print(rows.ExplainAnalyze())
		}
		reportQueryError(err, rows, time.Since(start))
		return
	}
	printRows(eng, rows, time.Since(start), explainAnalyze)
}

func printRows(eng *partopt.Engine, rows *partopt.Rows, elapsed time.Duration, explainAnalyze bool) {
	fmt.Println(strings.Join(rows.Columns, " | "))
	fmt.Println(strings.Repeat("-", 8*len(rows.Columns)+8))
	const maxShow = 20
	for i, r := range rows.Data {
		if i >= maxShow {
			fmt.Printf("... (%d more rows)\n", len(rows.Data)-maxShow)
			break
		}
		cells := make([]string, len(r))
		for c, v := range r {
			cells[c] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d rows, %v, plan %dB", len(rows.Data), elapsed.Round(time.Microsecond), rows.PlanSize)
	for table, parts := range rows.PartsScanned {
		total, _ := eng.NumPartitions(table)
		fmt.Printf(", %s: %d/%d parts", table, parts, total)
	}
	if rows.SpilledBytes > 0 {
		fmt.Printf(", spilled %s in %d part(s)", fmtSize(rows.SpilledBytes), rows.SpillParts)
	}
	fmt.Println(")")
	if explainAnalyze {
		fmt.Print(rows.ExplainAnalyze())
	}
}

func fmtSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mppsim:", err)
		os.Exit(1)
	}
}
