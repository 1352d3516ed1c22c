package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"partopt/internal/fault"
	"partopt/internal/obs"
	"partopt/internal/plan"
)

// liveStats is the record of a slice instance a test drives by hand: its
// frames merged into a fresh Stats, as finishOpStats merges them when a
// driven instance finishes.
func liveStats(ctx *Ctx) *Stats {
	s := NewStats()
	s.mergeFrames(ctx.frames)
	return s
}

// A completed query has a full per-operator record: every node started,
// rows-out totals match the result, and storage reads attributed to the
// scan agree with the query-wide counter.
func TestOpStatsRecordedPerOperator(t *testing.T) {
	rt, tab := failFixture(t)
	scan := plan.NewScan(tab, 1)
	gather := plan.NewMotion(plan.GatherMotion, nil, scan)
	res, err := Run(rt, gather, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := res.Stats

	sa, ok := st.Actuals(scan)
	if !ok || !sa.Started {
		t.Fatalf("scan has no actuals: ok=%v started=%v", ok, sa.Started)
	}
	if sa.Instances != rt.Segments() {
		t.Errorf("scan instances = %d, want %d", sa.Instances, rt.Segments())
	}
	if sa.RowsOut != int64(len(res.Rows)) || sa.RowsRead != int64(len(res.Rows)) {
		t.Errorf("scan rows out/read = %d/%d, want %d", sa.RowsOut, sa.RowsRead, len(res.Rows))
	}
	if sa.RowsRead != st.RowsScanned() {
		t.Errorf("scan RowsRead %d != Stats.RowsScanned %d", sa.RowsRead, st.RowsScanned())
	}

	ga, ok := st.Actuals(gather)
	if !ok || !ga.Started {
		t.Fatalf("gather has no actuals")
	}
	// The gather's receive operator runs once, on the coordinator.
	if ga.Instances != 1 {
		t.Errorf("gather instances = %d, want 1", ga.Instances)
	}
	if ga.RowsOut != int64(len(res.Rows)) {
		t.Errorf("gather rows out = %d, want %d", ga.RowsOut, len(res.Rows))
	}
}

// An aborted query still flushes every slice instance's frames before
// RunIntoCtx returns: whatever partial counts the operators recorded are
// visible and internally consistent (the per-operator storage reads sum to
// the query-wide counter, with no in-flight remainder).
func TestOpStatsFlushedOnAbort(t *testing.T) {
	rt, tab := failFixture(t)
	inj := fault.NewInjector(7)
	// Fail one segment's scan partway: OpNext fires per batch, so After=1
	// lets the first batch out and kills the end-of-stream call.
	inj.Arm(fault.Rule{Point: fault.OpNext, Kind: fault.KindError, Seg: 2, After: 1, Once: true})
	rt.Faults = inj

	scan := plan.NewScan(tab, 1)
	gather := plan.NewMotion(plan.GatherMotion, nil, scan)
	stats := NewStats()
	_, err := RunIntoCtx(context.Background(), rt, gather, nil, stats)
	if err == nil {
		t.Fatalf("injected fault did not fail the query")
	}

	sa, ok := stats.Actuals(scan)
	if !ok || !sa.Started {
		t.Fatalf("aborted query lost the scan's partial actuals")
	}
	if sa.RowsRead != stats.RowsScanned() {
		t.Errorf("partial RowsRead %d != Stats.RowsScanned %d — frames not fully flushed",
			sa.RowsRead, stats.RowsScanned())
	}
	if sa.RowsRead == 0 {
		t.Errorf("scan recorded no reads before the abort")
	}
}

// A cancelled query flushes whatever frames its slices managed to record
// before noticing the cancellation: the per-operator reads stay consistent
// with the query-wide counter no matter where the abort landed.
func TestOpStatsConsistentOnCancel(t *testing.T) {
	rt, tab := failFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scan := plan.NewScan(tab, 1)
	gather := plan.NewMotion(plan.GatherMotion, nil, scan)
	stats := NewStats()
	_, err := RunIntoCtx(ctx, rt, gather, nil, stats)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The segments may or may not have opened their scans before seeing the
	// cancellation; either way the flushed per-operator record must agree
	// with the aggregate counter.
	a, _ := stats.Actuals(scan)
	if a.RowsRead != stats.RowsScanned() {
		t.Fatalf("scan RowsRead %d != Stats.RowsScanned %d after cancel", a.RowsRead, stats.RowsScanned())
	}
}

// The runtime's metrics registry observes query lifecycle and data-flow
// counters. Its data-flow counters are the query record's totals: equal to
// them on a clean run, and counting every attempt of a retried one, where
// the record keeps only the final attempt.
func TestRuntimeObsMetrics(t *testing.T) {
	rt, tab := failFixture(t)
	rt.Obs = obs.NewRegistry()

	res, err := Run(rt, chaosPlan(tab), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	snap := rt.Obs.Snapshot()
	if got := snap.Counters["partopt_queries_started_total"]; got != 1 {
		t.Errorf("started = %d, want 1", got)
	}
	if got := snap.Counters["partopt_queries_finished_total"]; got != 1 {
		t.Errorf("finished = %d, want 1", got)
	}
	if snap.Counters["partopt_rows_scanned_total"] == 0 {
		t.Errorf("rows scanned counter not incremented")
	}
	if snap.Counters["partopt_motion_rows_total"] == 0 {
		t.Errorf("motion rows counter not incremented")
	}
	if got, want := snap.Counters["partopt_rows_scanned_total"], res.Stats.RowsScanned(); got != want {
		t.Errorf("registry rows scanned = %d, query record %d", got, want)
	}
	if got, want := snap.Counters["partopt_motion_rows_total"], res.Stats.RowsMoved(); got != want {
		t.Errorf("registry motion rows = %d, query record %d", got, want)
	}
	if got := snap.Gauges["partopt_queries_active"]; got != 0 {
		t.Errorf("active gauge = %v after completion", got)
	}
	if h, ok := snap.Histograms["partopt_query_latency_seconds"]; !ok || h.Count != 1 {
		t.Errorf("latency histogram: ok=%v %+v", ok, h)
	}

	// A failed query increments the failure counter, not the success one.
	inj := fault.NewInjector(3)
	inj.Arm(fault.Rule{Point: fault.OpNext, Kind: fault.KindError, Seg: fault.AnySeg, After: 2, Once: true})
	rt.Faults = inj
	if _, err := Run(rt, chaosPlan(tab), nil); err == nil {
		t.Fatalf("injected fault did not fail the query")
	}
	snap = rt.Obs.Snapshot()
	if got := snap.Counters["partopt_queries_failed_total"]; got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if got := snap.Counters["partopt_queries_finished_total"]; got != 1 {
		t.Errorf("finished after failure = %d, want still 1", got)
	}

	// With retry on, each attempt runs into a scratch record that the final
	// one is absorbed from. A clean run still publishes its reads once.
	rt.Retry = RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}
	rt.Faults = nil
	scannedBefore := snap.Counters["partopt_rows_scanned_total"]
	if res, err = Run(rt, chaosPlan(tab), nil); err != nil {
		t.Fatalf("run with retry on: %v", err)
	}
	snap = rt.Obs.Snapshot()
	if delta, record := snap.Counters["partopt_rows_scanned_total"]-scannedBefore, res.Stats.RowsScanned(); delta != record {
		t.Errorf("registry rows-scanned delta %d != query record %d with retry on", delta, record)
	}

	// A retried query: one transient failure on the first attempt, then a
	// clean retry. The record keeps the final attempt; the registry counts
	// the failed attempt's reads too.
	scannedBefore = snap.Counters["partopt_rows_scanned_total"]
	inj = fault.NewInjector(3)
	inj.Arm(fault.Rule{Point: fault.SegExec, Kind: fault.KindTransient, Seg: 0, Once: true})
	rt.Faults = inj
	res, err = Run(rt, chaosPlan(tab), nil)
	if err != nil {
		t.Fatalf("retried run: %v", err)
	}
	if inj.Triggered() == 0 {
		t.Fatalf("fault never fired")
	}
	snap = rt.Obs.Snapshot()
	if got := snap.Counters["partopt_queries_retried_total"]; got != 1 {
		t.Errorf("retried = %d, want 1", got)
	}
	delta, record := snap.Counters["partopt_rows_scanned_total"]-scannedBefore, res.Stats.RowsScanned()
	if record == 0 || delta < record {
		t.Errorf("registry rows-scanned delta %d < query record %d over a retried query", delta, record)
	}
}
