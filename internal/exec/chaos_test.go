package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/fault"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// Chaos suite: a seeded sweep of fault points × fault kinds. Every injected
// fault must either fail fast with a QueryError naming the failing segment,
// or succeed via coordinator retry (transient kinds) — never hang past the
// deadline, never leak a goroutine, and never kill the process (panics).

// chaosPlan is a three-slice query exercising every fault point: a scan
// broadcast to a hash join, gathered to the coordinator.
func chaosPlan(tab *catalog.Table) plan.Node {
	inner := plan.NewMotion(plan.BroadcastMotion, nil, plan.NewScan(tab, 1))
	join := plan.NewHashJoin(plan.InnerJoin,
		[]expr.Expr{expr.NewCol(expr.ColID{Rel: 1, Ord: 1}, "b")},
		[]expr.Expr{expr.NewCol(expr.ColID{Rel: 2, Ord: 1}, "b")},
		nil, inner, plan.NewScan(tab, 2), nil)
	return plan.NewMotion(plan.GatherMotion, nil, join)
}

// waitNoGoroutineLeak waits for the goroutine count to settle back to the
// pre-run baseline, failing with a full stack dump if it doesn't.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestChaosSweep(t *testing.T) {
	// Golden run: the fault-free answer.
	cleanRt, cleanTab := failFixture(t)
	golden, err := Run(cleanRt, chaosPlan(cleanTab), nil)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	wantRows := len(golden.Rows)
	if wantRows == 0 {
		t.Fatalf("clean run produced no rows")
	}

	// Per-point After ceilings keep every armed rule inside the number of
	// hits one attempt actually generates, so each schedule really fires.
	// OpNext is per batch, not per row: each of the fixture's two scans makes
	// 2 hits per segment (one 100-row batch + the end-of-stream call), so a
	// segment sees 4 OpNext hits per attempt. MotionSend is per chunk and
	// still sees dozens of hits (≈100 rows/seg in ≤64-row chunks, broadcast
	// and gathered).
	afterCap := map[fault.Point]int{
		fault.SliceStart:  1,
		fault.OpNext:      2,
		fault.MotionSend:  10,
		fault.StorageScan: 1,
		fault.MemReserve:  10,
		// SegExec fires once per scan open; the fixture's two scans give
		// each segment two hits per attempt.
		fault.SegExec: 1,
	}
	kinds := []fault.Kind{fault.KindError, fault.KindTransient, fault.KindDrop, fault.KindDelay, fault.KindPanic}

	for _, pt := range fault.EnginePoints() {
		for _, kind := range kinds {
			for seed := int64(0); seed < 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", pt, kind, seed)
				t.Run(name, func(t *testing.T) {
					rt, tab := failFixture(t)
					seg := int(seed) % 4
					after := int(seed) * afterCap[pt] / 2
					inj := fault.NewInjector(seed)
					inj.Arm(fault.Rule{Point: pt, Kind: kind, Seg: seg, After: after, Once: true})
					rt.Faults = inj
					rt.Retry = RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
					rt.Store.SetFaults(inj)
					// Every run executes under a governor (unlimited budget,
					// so only injected denials force spills) with a private
					// spill root, asserted empty after the run: no abort
					// path may leak spill files.
					spillBase := t.TempDir()
					rt.Gov = mem.NewGovernor(mem.Config{BaseDir: spillBase, Faults: inj})

					before := runtime.NumGoroutine()
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					res, err := RunIntoCtx(ctx, rt, chaosPlan(tab), nil, NewStats())
					if ctx.Err() != nil {
						t.Fatalf("ran past the deadline")
					}
					if inj.Triggered() == 0 {
						t.Fatalf("schedule never fired (After=%d)", after)
					}

					switch {
					case pt == fault.MemReserve &&
						(kind == fault.KindError || kind == fault.KindTransient || kind == fault.KindDrop):
						// A denied reservation is memory pressure, not a
						// failure: the spillable operator absorbs it by
						// spilling and the query still answers correctly.
						if err != nil {
							t.Fatalf("memory-pressure fault failed the query instead of spilling: %v", err)
						}
						if len(res.Rows) != wantRows {
							t.Fatalf("rows under memory pressure = %d, want %d", len(res.Rows), wantRows)
						}
						if res.Stats.SpilledBytes() == 0 {
							t.Fatalf("denied reservation did not force a spill")
						}
					case kind == fault.KindDelay:
						// A slow segment is not a failed one.
						if err != nil {
							t.Fatalf("delay fault failed the query: %v", err)
						}
						if len(res.Rows) != wantRows {
							t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
						}
					case kind == fault.KindTransient || kind == fault.KindDrop:
						// Once-armed transient faults disarm after firing, so
						// the retry must succeed.
						if err != nil {
							t.Fatalf("transient fault not recovered by retry: %v", err)
						}
						if len(res.Rows) != wantRows {
							t.Fatalf("rows after retry = %d, want %d", len(res.Rows), wantRows)
						}
					default: // KindError, KindPanic
						if err == nil {
							t.Fatalf("permanent fault returned success")
						}
						var qe *QueryError
						if !errors.As(err, &qe) {
							t.Fatalf("error is not a QueryError: %v", err)
						}
						if qe.Seg != seg {
							t.Fatalf("QueryError names seg %d, fault was on seg %d: %v", qe.Seg, seg, err)
						}
						if kind == fault.KindPanic && !strings.Contains(err.Error(), "injected panic") {
							t.Fatalf("panic provenance lost: %v", err)
						}
					}
					waitNoGoroutineLeak(t, before)
					assertNoSpillLeak(t, spillBase)
				})
			}
		}
	}
}

// assertNoSpillLeak fails if any per-query spill directory survived the
// query — the disk-side analogue of the goroutine-leak check.
func assertNoSpillLeak(t *testing.T, base string) {
	t.Helper()
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatalf("reading spill base dir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill directories leaked after the query: %d left in %s", len(ents), base)
	}
}

func TestCoordinatorPanicIsolated(t *testing.T) {
	rt, tab := failFixture(t)
	inj := fault.NewInjector(7)
	inj.Arm(fault.Rule{Point: fault.SliceStart, Kind: fault.KindPanic, Seg: CoordinatorSeg, Once: true})
	rt.Faults = inj

	before := runtime.NumGoroutine()
	_, err := Run(rt, chaosPlan(tab), nil)
	if err == nil {
		t.Fatalf("coordinator panic swallowed")
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Seg != CoordinatorSeg {
		t.Fatalf("panic not attributed to the coordinator: %v", err)
	}
	if !strings.Contains(err.Error(), "coordinator") || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error lacks provenance: %v", err)
	}
	waitNoGoroutineLeak(t, before)
}

func TestDeadlineAbortsSlowSegments(t *testing.T) {
	rt, tab := failFixture(t)
	inj := fault.NewInjector(1)
	// Every row on every segment stalls: the query can never finish.
	inj.Arm(fault.Rule{Point: fault.OpNext, Kind: fault.KindDelay, Seg: fault.AnySeg, Prob: 1, Delay: 10 * time.Second})
	rt.Faults = inj

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunIntoCtx(ctx, rt, chaosPlan(tab), nil, NewStats())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: returned after %v", elapsed)
	}
	waitNoGoroutineLeak(t, before)
}

func TestCancelAbortsMidQuery(t *testing.T) {
	rt, tab := failFixture(t)
	inj := fault.NewInjector(1)
	inj.Arm(fault.Rule{Point: fault.OpNext, Kind: fault.KindDelay, Seg: fault.AnySeg, Prob: 1, Delay: 10 * time.Second})
	rt.Faults = inj

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunIntoCtx(ctx, rt, chaosPlan(tab), nil, NewStats())
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation ignored: returned after %v", elapsed)
	}
	waitNoGoroutineLeak(t, before)
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	rt, tab := failFixture(t)
	inj := fault.NewInjector(1)
	// Prob=1: the fault persists across retries.
	inj.Arm(fault.Rule{Point: fault.SliceStart, Kind: fault.KindTransient, Seg: 0, Prob: 1})
	rt.Faults = inj
	rt.Retry = RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}

	_, err := Run(rt, chaosPlan(tab), nil)
	if err == nil {
		t.Fatalf("persistent transient fault succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("transience lost through retry: %v", err)
	}
	if got := inj.Triggered(); got < 3 {
		t.Fatalf("fired %d times, want one per attempt (3)", got)
	}
}

func TestDMLIsNeverRetried(t *testing.T) {
	rt, tab := failFixture(t)
	inj := fault.NewInjector(1)
	inj.Arm(fault.Rule{Point: fault.StorageScan, Kind: fault.KindTransient, Seg: 0, Once: true})
	rt.Store.SetFaults(inj)
	rt.Retry = RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}

	scan := plan.NewScan(tab, 1)
	scan.WithRowID = true
	upd := plan.NewUpdate(tab, 1, []plan.SetClause{{
		Ord:   1,
		Value: expr.NewCol(expr.ColID{Rel: 1, Ord: 1}, "b"),
	}}, scan)
	p := plan.NewMotion(plan.GatherMotion, nil, upd)
	_, err := Run(rt, p, nil)
	if err == nil {
		t.Fatalf("DML retried its way past a transient fault — it must not be re-executed")
	}
	if got := inj.Triggered(); got != 1 {
		t.Fatalf("fault fired %d times, want exactly 1 (no retry for DML)", got)
	}
}

func TestQueryErrorProvenance(t *testing.T) {
	rt, tab := failFixture(t)
	badPred := expr.NewCmp(expr.EQ, expr.NewCol(expr.ColID{Rel: 9, Ord: 9}, "ghost"), expr.NewConst(types.NewInt(1)))
	p := plan.NewMotion(plan.GatherMotion, nil, plan.NewFilter(badPred, plan.NewScan(tab, 1)))
	_, err := Run(rt, p, nil)
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("segment failure is not a QueryError: %v", err)
	}
	if qe.Seg < 0 || qe.Seg >= 4 {
		t.Fatalf("implausible segment %d", qe.Seg)
	}
	if qe.Slice != 1 {
		t.Fatalf("slice = %d, want 1 (the slice under the gather)", qe.Slice)
	}
	if qe.Op == "" || qe.Err == nil {
		t.Fatalf("incomplete provenance: %+v", qe)
	}
	if !strings.Contains(err.Error(), "not in layout") {
		t.Fatalf("underlying message lost: %v", err)
	}
}
