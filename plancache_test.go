package partopt

import (
	"regexp"
	"strings"
	"testing"
)

// cacheFixture builds a 12-way monthly-partitioned orders table with a row
// in every partition and fresh statistics.
func cacheFixture(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.MustCreateTable("orders",
		Columns("id", TypeInt, "amount", TypeFloat, "date", TypeDate),
		DistributedBy("id"),
		PartitionByRangeMonthly("date", 2013, 1, 12))
	id := 0
	for m := 1; m <= 12; m++ {
		for d := 1; d <= 5; d++ {
			id++
			if err := eng.Insert("orders", Int(int64(id)), Float(float64(m*d)), Date(2013, m, d)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
	}
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return eng
}

// The acceptance criterion: a cache hit performs zero optimizer calls.
// Textually distinct point queries share one fingerprint (literals are
// auto-parameterized under Orca), so the second query must not optimize.
func TestCacheHitSkipsOptimizer(t *testing.T) {
	eng := cacheFixture(t)
	if _, err := eng.Query("SELECT amount FROM orders WHERE id = 7"); err != nil {
		t.Fatalf("cold query: %v", err)
	}
	before := eng.PlanCacheStats()
	rows, err := eng.Query("SELECT amount FROM orders WHERE id = 23")
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	after := eng.PlanCacheStats()
	if got := after.Optimizations - before.Optimizations; got != 0 {
		t.Errorf("cache hit ran the optimizer %d time(s)", got)
	}
	if after.Hits != before.Hits+1 {
		t.Errorf("hits %d -> %d, want +1", before.Hits, after.Hits)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].Float() != 15 {
		t.Errorf("warm query answered %v, want [[15]]", rows.Data)
	}
}

// Satellite regression: Explain and PlanSize used to re-plan on every
// call. Back-to-back Explain / PlanSize / Query over one fingerprint now
// optimize exactly once.
func TestExplainPlanSizeQueryOptimizeOnce(t *testing.T) {
	eng := cacheFixture(t)
	const q = "SELECT amount FROM orders WHERE id = 7"
	before := eng.PlanCacheStats()
	first, err := eng.Explain(q)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	second, err := eng.Explain(q)
	if err != nil {
		t.Fatalf("Explain again: %v", err)
	}
	if first != second {
		t.Errorf("Explain not deterministic across cache hit:\n%s\nvs\n%s", first, second)
	}
	size, err := eng.PlanSize(q)
	if err != nil {
		t.Fatalf("PlanSize: %v", err)
	}
	if size <= 0 {
		t.Errorf("PlanSize = %d", size)
	}
	if _, err := eng.Query(q); err != nil {
		t.Fatalf("Query: %v", err)
	}
	// A differently-spelled query with the same shape also reuses the plan.
	if _, err := eng.Query("select amount from orders where id = 9"); err != nil {
		t.Fatalf("Query variant: %v", err)
	}
	after := eng.PlanCacheStats()
	if got := after.Optimizations - before.Optimizations; got != 1 {
		t.Errorf("fingerprint optimized %d times, want 1", got)
	}
}

// Golden: a cache-hit execution's EXPLAIN ANALYZE is byte-identical to the
// cold run's (timings and memory figures normalized away — everything
// structural must match exactly).
func TestCacheHitExplainAnalyzeMatchesCold(t *testing.T) {
	eng := cacheFixture(t)
	const q = "SELECT sum(amount) FROM orders WHERE date BETWEEN date '2013-03-01' AND date '2013-05-31'"
	cold, err := eng.Query(q)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := eng.Query(q)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	st := eng.PlanCacheStats()
	if st.Hits == 0 {
		t.Fatalf("second run was not a cache hit: %+v", st)
	}
	// The partition-OID cache line is the one legitimate difference: the
	// cold run misses it into existence, the hit run is served from it.
	oidRe := regexp.MustCompile(`OID cache: \d+ hit\(s\), \d+ miss\(es\)`)
	norm := func(s string) string {
		return oidRe.ReplaceAllString(normalizeAnalyze(s), "OID cache: H hit(s), M miss(es)")
	}
	if got, want := norm(warm.ExplainAnalyze()), norm(cold.ExplainAnalyze()); got != want {
		t.Errorf("cache-hit EXPLAIN ANALYZE differs from cold run:\n--- cold ---\n%s\n--- hit ---\n%s", want, got)
	}
}

// Golden: one cached dynamic-selection plan, executed with different
// parameters, reports a different "Partitions selected" count on each run
// — the selector re-derives the partition set at execution time.
func TestCachedSelectionVariesPerParameter(t *testing.T) {
	eng := cacheFixture(t)
	st, err := eng.Prepare("SELECT sum(amount) FROM orders WHERE date BETWEEN $1 AND $2")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	before := eng.PlanCacheStats()
	narrow, err := st.ExplainAnalyze(Date(2013, 3, 1), Date(2013, 3, 31))
	if err != nil {
		t.Fatalf("narrow: %v", err)
	}
	wide, err := st.ExplainAnalyze(Date(2013, 3, 1), Date(2013, 8, 31))
	if err != nil {
		t.Fatalf("wide: %v", err)
	}
	after := eng.PlanCacheStats()
	if got := after.Optimizations - before.Optimizations; got != 1 {
		t.Errorf("prepared statement optimized %d times across executions, want 1", got)
	}
	if !strings.Contains(narrow, "Partitions selected: 1 (out of 12)") {
		t.Errorf("narrow run missing selection line:\n%s", narrow)
	}
	if !strings.Contains(wide, "Partitions selected: 6 (out of 12)") {
		t.Errorf("wide run missing selection line:\n%s", wide)
	}
}

// Explicit $n and auto-lifted literals normalize to the same fingerprint,
// so a prepared parameterized query and its literal spelling share a plan.
func TestExplicitAndLiftedParamsShareFingerprint(t *testing.T) {
	eng := cacheFixture(t)
	if _, err := eng.Query("SELECT amount FROM orders WHERE id = $1", Int(7)); err != nil {
		t.Fatalf("explicit: %v", err)
	}
	before := eng.PlanCacheStats()
	rows, err := eng.Query("SELECT amount FROM orders WHERE id = 23")
	if err != nil {
		t.Fatalf("literal: %v", err)
	}
	after := eng.PlanCacheStats()
	if after.Optimizations != before.Optimizations {
		t.Errorf("literal spelling re-optimized")
	}
	if len(rows.Data) != 1 || rows.Data[0][0].Float() != 15 {
		t.Errorf("got %v, want [[15]]", rows.Data)
	}
}

// Every invalidating surface must bump the epoch and force a re-plan.
func TestInvalidatingSurfacesBumpEpoch(t *testing.T) {
	eng := cacheFixture(t)
	const q = "SELECT amount FROM orders WHERE id = 7"
	run := func() {
		t.Helper()
		if _, err := eng.Query(q); err != nil {
			t.Fatalf("query: %v", err)
		}
	}
	run()
	surfaces := []struct {
		name string
		op   func() error
	}{
		{"Analyze", eng.Analyze},
		{"Insert", func() error { return eng.Insert("orders", Int(999), Float(1), Date(2013, 6, 15)) }},
		{"ExecDML", func() error {
			_, err := eng.Exec("UPDATE orders SET amount = amount + 0 WHERE id = 999")
			return err
		}},
		{"CreateTable", func() error {
			return eng.CreateTable("scratch_inv", Columns("x", TypeInt))
		}},
		{"SetOptimizer", func() error { eng.SetOptimizer(LegacyPlanner); return nil }},
		{"SetOptimizerBack", func() error { eng.SetOptimizer(Orca); return nil }},
		{"SetPartitionSelection", func() error { eng.SetPartitionSelection(false); return nil }},
		{"SetPartitionSelectionBack", func() error { eng.SetPartitionSelection(true); return nil }},
	}
	for _, s := range surfaces {
		before := eng.PlanCacheStats()
		if err := s.op(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		after := eng.PlanCacheStats()
		if after.Epoch <= before.Epoch {
			t.Errorf("%s did not bump the epoch (%d -> %d)", s.name, before.Epoch, after.Epoch)
			continue
		}
		run()
		if got := eng.PlanCacheStats(); got.Optimizations <= after.Optimizations {
			t.Errorf("%s: stale plan served after epoch bump", s.name)
		}
	}
}

// A DDL-invalidated plan must not be served: after CreateIndex the same
// query compiles to an index plan.
func TestNoStalePlanAfterCreateIndex(t *testing.T) {
	eng := cacheFixture(t)
	const q = "SELECT amount FROM orders WHERE id = 7"
	if _, err := eng.Query(q); err != nil {
		t.Fatalf("pre-index query: %v", err)
	}
	if err := eng.CreateIndex("orders_id_idx", "orders", "id"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	out, err := eng.Explain(q)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "orders_id_idx") {
		t.Errorf("post-index plan does not use the index — stale cached plan?\n%s", out)
	}
}

// Capacity 0 disables caching: every execution optimizes.
func TestPlanCacheDisabled(t *testing.T) {
	eng := cacheFixture(t)
	eng.SetPlanCacheCapacity(0)
	before := eng.PlanCacheStats()
	for i := 0; i < 3; i++ {
		if _, err := eng.Query("SELECT amount FROM orders WHERE id = 7"); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	after := eng.PlanCacheStats()
	if got := after.Optimizations - before.Optimizations; got != 3 {
		t.Errorf("disabled cache optimized %d times, want 3", got)
	}
	if after.Hits != 0 {
		t.Errorf("disabled cache reported %d hits", after.Hits)
	}
}

// The legacy planner caches too, keyed on the raw (un-parameterized) text:
// distinct literals get distinct entries — its static pruning depends on
// the literal values — but re-running one exact text is still a hit.
func TestLegacyPlannerCachesByLiteralText(t *testing.T) {
	eng := cacheFixture(t)
	eng.SetOptimizer(LegacyPlanner)
	const q = "SELECT sum(amount) FROM orders WHERE date < date '2013-04-01'"
	first, err := eng.Query(q)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	before := eng.PlanCacheStats()
	second, err := eng.Query(q)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	after := eng.PlanCacheStats()
	if after.Optimizations != before.Optimizations {
		t.Errorf("exact legacy re-run re-optimized")
	}
	if first.PartsScanned["orders"] != 3 || second.PartsScanned["orders"] != 3 {
		t.Errorf("legacy static pruning changed under caching: %v then %v",
			first.PartsScanned, second.PartsScanned)
	}
	// A different literal is a different legacy fingerprint (plan-time
	// pruning must see it), so it misses and re-optimizes.
	third, err := eng.Query("SELECT sum(amount) FROM orders WHERE date < date '2013-02-01'")
	if err != nil {
		t.Fatalf("variant: %v", err)
	}
	if got := eng.PlanCacheStats(); got.Optimizations != after.Optimizations+1 {
		t.Errorf("legacy literal variant did not re-optimize")
	}
	if third.PartsScanned["orders"] != 1 {
		t.Errorf("variant scanned %d partitions, want 1", third.PartsScanned["orders"])
	}
}

// Parameter arity errors: lifted literals never change what the caller
// must supply, and shortages report the explicit count.
func TestPreparedParamArity(t *testing.T) {
	eng := cacheFixture(t)
	_, err := eng.Query("SELECT amount FROM orders WHERE id = $1 AND amount > 3")
	if err == nil || !strings.Contains(err.Error(), "needs 1 parameters, got 0") {
		t.Errorf("shortage error = %v", err)
	}
	if _, err := eng.Query("SELECT amount FROM orders WHERE id = $1 AND amount > 3", Int(7)); err != nil {
		t.Errorf("one explicit arg rejected: %v", err)
	}
}

// Prepared DML statements execute (uncached) and report affected rows.
func TestPreparedDML(t *testing.T) {
	eng := cacheFixture(t)
	ins, err := eng.Prepare("INSERT INTO orders VALUES ($1, $2, $3)")
	if err != nil {
		t.Fatalf("Prepare insert: %v", err)
	}
	if n, err := ins.Exec(Int(500), Float(2.5), Date(2013, 9, 9)); err != nil || n != 1 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	upd, err := eng.Prepare("UPDATE orders SET amount = amount + 1 WHERE id = $1")
	if err != nil {
		t.Fatalf("Prepare update: %v", err)
	}
	if n, err := upd.Exec(Int(500)); err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	if _, err := ins.Query(Int(1)); err == nil || !strings.Contains(err.Error(), "use Exec") {
		t.Errorf("Query on DML stmt = %v", err)
	}
	sel, err := eng.Prepare("SELECT amount FROM orders WHERE id = $1")
	if err != nil {
		t.Fatalf("Prepare select: %v", err)
	}
	if _, err := sel.Exec(Int(1)); err == nil || !strings.Contains(err.Error(), "use Query") {
		t.Errorf("Exec on SELECT stmt = %v", err)
	}
	if rows, err := sel.Query(Int(500)); err != nil || len(rows.Data) != 1 || rows.Data[0][0].Float() != 3.5 {
		t.Errorf("select after DML: %v, %v", rows, err)
	}
}
