package partopt

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"
)

// normalizeAnalyze strips the non-deterministic figures (wall time, memory
// and spill volume) from EXPLAIN ANALYZE text so trees can be compared as
// goldens.
var (
	timeRe  = regexp.MustCompile(`time=[0-9.]+(µs|ms|s)`)
	peakRe  = regexp.MustCompile(`Peak memory: \S+ per instance`)
	spillRe = regexp.MustCompile(`Spilled: \S+ in \d+ part\(s\)`)
	optRe   = regexp.MustCompile(`(optimization: \d+ groups,) [0-9.]+ ms`)
)

func normalizeAnalyze(s string) string {
	s = timeRe.ReplaceAllString(s, "time=T")
	s = peakRe.ReplaceAllString(s, "Peak memory: N per instance")
	s = spillRe.ReplaceAllString(s, "Spilled: S in P part(s)")
	s = optRe.ReplaceAllString(s, "$1 T ms")
	return s
}

// walkOpStats visits every node of a Rows.OpStats() tree.
func walkOpStats(o *OpStats, f func(*OpStats)) {
	if o == nil {
		return
	}
	f(o)
	for _, c := range o.Children {
		walkOpStats(c, f)
	}
}

// Static elimination (paper Figure 2): the whole annotated tree is
// deterministic once times and memory are normalized, including the
// "Partitions selected: 3 (out of 24)" lines on the selector and the scan.
func TestExplainAnalyzeGoldenStatic(t *testing.T) {
	eng := paperEngine(t, 4)
	eng.SetOptimizer(Orca)
	const q = "SELECT avg(amount) FROM orders WHERE date BETWEEN '2013-10-01' AND '2013-12-31'"
	// Warm the partition-OID cache first: on a cold cache the hit/miss
	// split across the four concurrently-opening segment instances is
	// scheduling-dependent, on a warm one it is exactly 4/0.
	if _, err := eng.Query(q); err != nil {
		t.Fatalf("warm-up Query: %v", err)
	}
	out, err := eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	const want = `optimization: 3 groups, T ms
Project (avg_1)  (actual rows=1 loops=1 time=T)
  -> Final HashAggregate (avg(orders.amount))  (rows=1 cost=55)  (actual rows=1 loops=1 time=T)
       Peak memory: N per instance
    -> Gather Motion  (actual rows=4 loops=1 time=T)
      -> Partial HashAggregate (avg(orders.amount))  (rows=3 cost=37)  (actual rows=4 loops=4 time=T)
           Peak memory: N per instance
        -> Filter (orders.date >= 2013-10-01 AND orders.date <= 2013-12-31)  (rows=3 cost=34)  (actual rows=30 loops=4 time=T)
          -> PartitionSelector(1, orders, orders.date >= 2013-10-01 AND orders.date <= 2013-12-31)  (rows=30 cost=31)  (actual rows=30 loops=4 time=T)
               Partitions selected: 3 (out of 24)
               OID cache: 4 hit(s), 0 miss(es)
            -> DynamicScan(1, orders)  (rows=240 cost=240)  (actual rows=30 loops=4 time=T)
                 Partitions selected: 3 (out of 24)
                 Rows read from storage: 30
`
	if got := normalizeAnalyze(out); got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// Dynamic (join-driven) elimination, the ISSUE's acceptance criterion: the
// DynamicScan's "Partitions selected: N (out of M)" must agree with the
// runtime partition counter Rows.PartsScanned.
func TestExplainAnalyzeDynamicMatchesPartsScanned(t *testing.T) {
	eng := paperEngine(t, 4)
	eng.SetOptimizer(Orca)
	const q = `SELECT avg(amount) FROM orders_fk WHERE date_id IN
		(SELECT date_id FROM date_dim WHERE year = 2013 AND month BETWEEN 10 AND 12)`
	rows, err := eng.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	scanned := rows.PartsScanned["orders_fk"]
	if scanned != 3 {
		t.Fatalf("PartsScanned[orders_fk] = %d, want 3", scanned)
	}

	// The rendered tree carries the exact line for the dynamic scan.
	wantLine := "Partitions selected: 3 (out of 24)"
	if !strings.Contains(rows.ExplainAnalyze(), wantLine) {
		t.Errorf("tree lacks %q:\n%s", wantLine, rows.ExplainAnalyze())
	}

	// And the programmatic tree agrees: the DynamicScan node's selection
	// count equals the Rows counter, out of all 24 leaves.
	var dyn *OpStats
	walkOpStats(rows.OpStats(), func(o *OpStats) {
		if strings.HasPrefix(o.Label, "DynamicScan") {
			dyn = o
		}
	})
	if dyn == nil {
		t.Fatalf("no DynamicScan node in OpStats tree")
	}
	if dyn.PartsSelected != scanned || dyn.PartsTotal != 24 {
		t.Errorf("DynamicScan selected %d/%d, want %d/24", dyn.PartsSelected, dyn.PartsTotal, scanned)
	}

	// The legacy planner cannot eliminate through the semi join: it expands
	// the fact table into a 24-child Append, and the counter agrees.
	eng.SetOptimizer(LegacyPlanner)
	rows, err = eng.Query(q)
	if err != nil {
		t.Fatalf("legacy Query: %v", err)
	}
	if got := rows.PartsScanned["orders_fk"]; got != 24 {
		t.Fatalf("legacy PartsScanned = %d, want 24", got)
	}
	if !strings.Contains(rows.ExplainAnalyze(), "Append(24 children)") {
		t.Errorf("legacy tree lacks the 24-child Append:\n%s", rows.ExplainAnalyze())
	}
	// The legacy planner attaches no cost estimates; the renderer must not
	// fabricate "(rows=0 cost=0)" annotations for those nodes.
	if strings.Contains(rows.ExplainAnalyze(), "rows=0 cost=0") {
		t.Errorf("legacy tree shows zero estimates for unannotated nodes:\n%s", rows.ExplainAnalyze())
	}
}

// A spilling aggregate reports its spill volume both on the operator's
// "Spilled:" line and in the OpStats tree, consistently with Rows.
func TestExplainAnalyzeGoldenSpill(t *testing.T) {
	eng := paperEngine(t, 4)
	eng.SetOptimizer(Orca)
	eng.SetSpillDir(t.TempDir())
	eng.SetWorkMem(512)
	rows, err := eng.Query("SELECT date_id, count(*) AS n, sum(amount) AS total FROM orders GROUP BY date_id")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rows.SpilledBytes == 0 {
		t.Fatalf("work_mem=512 did not spill")
	}
	// Both stages spill under this budget.
	const want = `optimization: 2 groups, T ms
Project (date_id, n, total)  (actual rows=24 loops=1 time=T)
  -> Final HashAggregate (orders.date_id; count(*), sum(orders.amount))  (rows=24 cost=1057)  (actual rows=24 loops=1 time=T)
       Spilled: S in P part(s)
       Peak memory: N per instance
    -> Gather Motion  (actual rows=73 loops=1 time=T)
      -> Partial HashAggregate (orders.date_id; count(*), sum(orders.amount))  (rows=96 cost=481)  (actual rows=73 loops=4 time=T)
           Spilled: S in P part(s)
           Peak memory: N per instance
        -> PartitionSelector(1, orders, φ)  (rows=240 cost=241)  (actual rows=240 loops=4 time=T)
             Partitions selected: 24 (out of 24)
          -> DynamicScan(1, orders)  (rows=240 cost=240)  (actual rows=240 loops=4 time=T)
               Partitions selected: 24 (out of 24)
               Rows read from storage: 240
`
	got := normalizeAnalyze(rows.ExplainAnalyze())
	if got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Per-operator spill figures sum to the query-wide counters.
	var spillBytes, spillParts int64
	walkOpStats(rows.OpStats(), func(o *OpStats) {
		spillBytes += o.SpilledBytes
		spillParts += o.SpillParts
	})
	if spillBytes != rows.SpilledBytes || spillParts != rows.SpillParts {
		t.Errorf("OpStats spill %d bytes/%d parts != Rows %d/%d",
			spillBytes, spillParts, rows.SpilledBytes, rows.SpillParts)
	}
}

// A cancelled query still returns Rows whose partial statistics agree with
// the per-operator tree — the stats object and the public Rows view are one
// consistent snapshot of the work done before the abort.
func TestCancelledQueryPartialStatsConsistent(t *testing.T) {
	eng := paperEngine(t, 4)
	eng.SetOptimizer(Orca)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := eng.QueryCtx(ctx, "SELECT avg(amount) FROM orders WHERE date BETWEEN '2013-10-01' AND '2013-12-31'")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows == nil {
		t.Fatalf("cancelled query returned nil Rows — partial stats lost")
	}
	if rows.OpStats() == nil || rows.ExplainAnalyze() == "" {
		t.Fatalf("cancelled query lost its OpStats tree / rendered plan")
	}

	// Leaf reads recorded per operator must equal the query-wide counter:
	// every slice instance flushed its frames before Rows was built.
	var read int64
	walkOpStats(rows.OpStats(), func(o *OpStats) { read += o.RowsRead })
	if read != rows.RowsScanned {
		t.Errorf("OpStats rows read %d != Rows.RowsScanned %d", read, rows.RowsScanned)
	}
	var spilled int64
	walkOpStats(rows.OpStats(), func(o *OpStats) { spilled += o.SpilledBytes })
	if spilled != rows.SpilledBytes {
		t.Errorf("OpStats spill %d != Rows.SpilledBytes %d", spilled, rows.SpilledBytes)
	}
}

// Engine.Metrics exposes the registry and accumulates across queries.
func TestEngineMetricsExposition(t *testing.T) {
	eng := paperEngine(t, 4)
	if _, err := eng.Query("SELECT count(*) FROM orders"); err != nil {
		t.Fatalf("Query: %v", err)
	}
	text := eng.Metrics()
	for _, want := range []string{
		"partopt_queries_started_total",
		"partopt_queries_finished_total",
		"partopt_rows_scanned_total",
		"partopt_query_latency_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Metrics() lacks %q:\n%s", want, text)
		}
	}
}

// On a single segment the cold-cache split is deterministic: exactly one
// instance opens the selector, misses, and populates the cache; the same
// query re-run hits.
func TestExplainAnalyzeGoldenOIDCacheMiss(t *testing.T) {
	eng := paperEngine(t, 1)
	eng.SetOptimizer(Orca)
	const q = "SELECT avg(amount) FROM orders WHERE date BETWEEN '2013-10-01' AND '2013-12-31'"
	out, err := eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	if !strings.Contains(out, "OID cache: 0 hit(s), 1 miss(es)") {
		t.Errorf("cold tree lacks the miss line:\n%s", out)
	}
	out, err = eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatalf("second ExplainAnalyze: %v", err)
	}
	if !strings.Contains(out, "OID cache: 1 hit(s), 0 miss(es)") {
		t.Errorf("warm tree lacks the hit line:\n%s", out)
	}
}
