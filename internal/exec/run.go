package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"partopt/internal/expr"
	"partopt/internal/fault"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// Result is the output of a query execution.
type Result struct {
	Rows   []types.Row
	Layout expr.Layout
	Stats  *Stats
}

// buildOp instantiates the operator tree for one slice instance, wrapping
// every operator in a statsOp so per-node runtime instrumentation is always
// on. Motion nodes become receive leaves wired to their exchange; the
// sending side is driven by the child slice's runner. Each hash join gets
// its mask from live (nil: every join emits all its columns).
func buildOp(n plan.Node, exch map[*plan.Motion]*exchange, live joinMasks) (Operator, error) {
	inner, err := buildOpRaw(n, exch, live)
	if err != nil {
		return nil, err
	}
	return &statsOp{n: n, inner: inner}, nil
}

// buildOpRaw constructs the bare operator for one plan node; children are
// built through buildOp, so they carry their own instrumentation.
func buildOpRaw(n plan.Node, exch map[*plan.Motion]*exchange, live joinMasks) (Operator, error) {
	switch x := n.(type) {
	case *plan.Scan, *plan.DynamicScan, *plan.IndexScan, *plan.DynamicIndexScan:
		return newLeafScan(n), nil
	case *plan.PartitionSelector:
		var child Operator
		if x.Child != nil {
			c, err := buildOp(x.Child, exch, live)
			if err != nil {
				return nil, err
			}
			child = c
		}
		return &selectorOp{n: x, child: child}, nil
	case *plan.Sequence:
		kids := make([]Operator, len(x.Kids))
		for i, k := range x.Kids {
			op, err := buildOp(k, exch, live)
			if err != nil {
				return nil, err
			}
			kids[i] = op
		}
		return &sequenceOp{kids: kids}, nil
	case *plan.Append:
		kids := make([]Operator, len(x.Kids))
		for i, k := range x.Kids {
			op, err := buildOp(k, exch, live)
			if err != nil {
				return nil, err
			}
			kids[i] = op
		}
		return &appendOp{n: x, kids: kids}, nil
	case *plan.Filter:
		child, err := buildOp(x.Child, exch, live)
		if err != nil {
			return nil, err
		}
		return &filterOp{n: x, child: child}, nil
	case *plan.Project:
		child, err := buildOp(x.Child, exch, live)
		if err != nil {
			return nil, err
		}
		return &projectOp{n: x, child: child}, nil
	case *plan.HashJoin:
		build, err := buildOp(x.Build, exch, live)
		if err != nil {
			return nil, err
		}
		probe, err := buildOp(x.Probe, exch, live)
		if err != nil {
			return nil, err
		}
		return &hashJoinOp{n: x, build: build, probe: probe, live: live[x]}, nil
	case *plan.HashAgg:
		child, err := buildOp(x.Child, exch, live)
		if err != nil {
			return nil, err
		}
		return &hashAggOp{n: x, child: child}, nil
	case *plan.Update:
		child, err := buildOp(x.Child, exch, live)
		if err != nil {
			return nil, err
		}
		return &updateOp{n: x, dmlOp: dmlOp{child: child}}, nil
	case *plan.Delete:
		child, err := buildOp(x.Child, exch, live)
		if err != nil {
			return nil, err
		}
		return &deleteOp{n: x, dmlOp: dmlOp{child: child}}, nil
	case *plan.PartitionWiseJoin:
		return &pwJoinOp{n: x}, nil
	case *plan.Sort:
		child, err := buildOp(x.Child, exch, live)
		if err != nil {
			return nil, err
		}
		return &sortOp{n: x, child: child}, nil
	case *plan.Limit:
		child, err := buildOp(x.Child, exch, live)
		if err != nil {
			return nil, err
		}
		return &limitOp{n: x, child: child}, nil
	case *plan.Motion:
		ex, ok := exch[x]
		if !ok {
			return nil, fmt.Errorf("exec: motion %q has no exchange (RunLocal cannot execute motions)", x.Label())
		}
		return &motionRecvOp{ex: ex}, nil
	default:
		return nil, fmt.Errorf("exec: cannot execute %T", n)
	}
}

// sliceSpec is one slice of the plan (a maximal Motion-free subtree) plus
// the exchange it feeds.
type sliceSpec struct {
	motion  *plan.Motion // the Motion the slice sends through
	root    plan.Node    // motion.Child
	ex      *exchange
	members []int
}

// opName is the short plan-node name used for error provenance.
func opName(n plan.Node) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", n), "*plan.")
}

// errQueryDone is the cancellation cause of a normally-completed query: once
// the coordinator has its last row, remaining senders (e.g. below a Limit)
// are released without reporting an error.
var errQueryDone = errors.New("exec: query finished")

// Run executes a plan on the cluster. The root slice (everything above the
// topmost Gather Motion — final projection, coordinator-side aggregation)
// runs on the coordinator; the plan must contain a Gather so that a scan
// never lands in the coordinator slice.
func Run(rt *Runtime, root plan.Node, params *Params) (*Result, error) {
	return RunIntoCtx(context.Background(), rt, root, params, NewStats())
}

// RunIntoCtx is the full-control entry point: a context whose cancellation
// or deadline aborts every slice on every segment, plus caller-provided
// statistics, letting multi-plan executions (the legacy planner's prep
// steps plus main plan) accumulate into one counter set. When the runtime's
// RetryPolicy allows it, read-only queries that fail with a transient error
// (a fault marked retryable, e.g. a dropped motion send) are re-executed
// with exponential backoff; DML plans are never retried, since re-running
// them after a partial failure would double-apply their effects.
func RunIntoCtx(ctx context.Context, rt *Runtime, root plan.Node, params *Params, stats *Stats) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := rt.metrics()
	// Admission control: under a bounded governor the query waits here for
	// an execution slot. Cancellation or a deadline aborts the queued query
	// cleanly — it never held memory or started any slice.
	waited, err := rt.Gov.Admit(ctx)
	if waited && m != nil {
		m.admissionWaited.Inc()
	}
	if err != nil {
		return nil, err
	}
	defer rt.Gov.Leave()
	if m == nil {
		return runWithRetry(ctx, rt, root, params, stats)
	}
	m.started.Inc()
	m.active.Add(1)
	t0 := time.Now()
	res, err := runWithRetry(ctx, rt, root, params, stats)
	m.active.Add(-1)
	m.latency.Observe(time.Since(t0).Seconds())
	if err != nil {
		m.failed.Inc()
	} else {
		m.finished.Inc()
	}
	return res, err
}

// runWithRetry drives the attempt loop of an admitted query.
//
// Stats isolation: when retry is possible, every attempt runs into a
// scratch Stats and only the final attempt — the one whose result (or
// error) the caller sees — is absorbed into the caller's Stats. EXPLAIN
// ANALYZE therefore never mixes a failed attempt's partial counts with the
// answer's. The single-attempt path runs directly into the caller's Stats,
// preserving the legacy planner's accumulation of prep plans + main plan
// across separate RunIntoCtx calls.
//
// DML masking: a DML plan is never retried here, and its failure is
// wrapped so it never *looks* retryable to anyone downstream either — a
// client that re-sends on "transient" would double-apply partial effects.
func runWithRetry(ctx context.Context, rt *Runtime, root plan.Node, params *Params, stats *Stats) (*Result, error) {
	dml := hasDML(root)
	attempts := rt.Retry.MaxAttempts
	if attempts < 1 || dml {
		attempts = 1
	}
	var res *Result
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if d := rt.Retry.backoff(attempt - 1); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return nil, err
				}
			}
			if m := rt.metrics(); m != nil {
				m.retried.Inc()
			}
		}
		attemptStats := stats
		if attempts > 1 {
			attemptStats = NewStats()
			attemptStats.timed = stats.timed
		}
		res, err = runAttempt(ctx, rt, root, params, attemptStats)
		if err == nil || !IsTransient(err) || ctx.Err() != nil || attempt == attempts {
			if attemptStats != stats {
				stats.absorb(attemptStats)
				if res != nil {
					res.Stats = stats
				}
			}
			if err != nil && dml && IsTransient(err) {
				err = &dmlAbortedError{cause: err}
			}
			return res, err
		}
	}
	return nil, err
}

// hasDML reports whether the plan mutates storage anywhere.
func hasDML(root plan.Node) bool {
	return len(plan.FindAll(root, func(n plan.Node) bool {
		switch n.(type) {
		case *plan.Update, *plan.Delete:
			return true
		}
		return false
	})) > 0
}

// runAttempt executes the plan once. The first failure anywhere — a segment
// error, a recovered panic, a coordinator error, the caller's deadline —
// cancels the shared query context, so every other slice instance stops
// instead of doing wasted work.
func runAttempt(ctx context.Context, rt *Runtime, root plan.Node, params *Params, stats *Stats) (*Result, error) {
	if len(plan.FindAll(root, func(n plan.Node) bool {
		m, ok := n.(*plan.Motion)
		return ok && m.Kind == plan.GatherMotion
	})) == 0 {
		return nil, fmt.Errorf("exec: plan has no Gather Motion; nothing delivers rows to the coordinator")
	}
	segs := make([]int, rt.Segments())
	for i := range segs {
		segs[i] = i
	}

	// Pre-pass: cut the plan into slices at Motion boundaries. The slice
	// containing a Motion determines its receivers; the Motion's child
	// subtree becomes a new slice running on all segments. Exchanges are
	// only allocated once the whole plan validated, so no closer goroutine
	// can leak on a malformed plan.
	type motionSite struct {
		m         *plan.Motion
		receivers []int
	}
	var sites []motionSite
	var cut func(n plan.Node, members []int) error
	cut = func(n plan.Node, members []int) error {
		if m, ok := n.(*plan.Motion); ok {
			if m.Kind == plan.GatherMotion && !(len(members) == 1 && members[0] == CoordinatorSeg) {
				return fmt.Errorf("exec: Gather Motion below another slice is unsupported")
			}
			sites = append(sites, motionSite{m: m, receivers: members})
			return cut(m.Child, segs)
		}
		for _, c := range n.Children() {
			if err := cut(c, members); err != nil {
				return err
			}
		}
		return nil
	}
	if err := cut(root, []int{CoordinatorSeg}); err != nil {
		return nil, err
	}
	// Which columns each join must gather is a property of the whole plan,
	// derived once and read by every slice instance.
	live := deriveJoinMasks(root)
	exchanges := map[*plan.Motion]*exchange{}
	slices := make([]*sliceSpec, 0, len(sites))
	for _, site := range sites {
		ex := newExchange(site.m, site.receivers, len(segs))
		exchanges[site.m] = ex
		slices = append(slices, &sliceSpec{motion: site.m, root: site.m.Child, ex: ex, members: segs})
	}

	qctx, cancel := context.WithCancelCause(ctx)
	defer cancel(errQueryDone)

	// One primary-map snapshot per attempt: every slice instance of this
	// attempt reads the same replica set, and a retried attempt re-snapshots
	// so it dispatches to post-failover primaries.
	primaries := rt.Store.PrimaryMap()

	// One memory account per attempt, shared by every slice instance.
	// Closing it is the backstop that returns every reserved byte and
	// removes the query's spill directory even when an abort left operator
	// teardown half-done.
	budget := rt.Gov.NewBudget()
	defer budget.Close()

	// fail records one slice instance's failure and cancels the query, so
	// siblings abort immediately instead of being discovered after wg.Wait.
	errCh := make(chan error, 2*len(slices)*len(segs)+2)
	fail := func(seg, slice int, op string, err error) {
		qe := wrapQueryError(seg, slice, op, err)
		errCh <- qe
		cancel(qe)
	}

	var wg sync.WaitGroup
	for si, sl := range slices {
		for _, seg := range sl.members {
			wg.Add(1)
			go func(sl *sliceSpec, slice, seg int) {
				defer wg.Done()
				defer sl.ex.senderDone()
				// A panic anywhere in this slice instance — operator code,
				// expression evaluation, an injected fault — becomes a
				// QueryError instead of killing the process.
				defer func() {
					if r := recover(); r != nil {
						fail(seg, slice, opName(sl.root), fmt.Errorf("panic: %v", r))
					}
				}()
				if err := rt.Faults.Hit(qctx, fault.SliceStart, seg); err != nil {
					fail(seg, slice, opName(sl.root), err)
					return
				}
				if sl.ex.fromSeg >= 0 && seg != sl.ex.fromSeg {
					// Single-sender motion (gather from a replicated
					// input): this member contributes nothing — but any
					// motions feeding its subtree still broadcast to this
					// segment, so their channels must be drained or the
					// senders would block forever.
					drainSubtreeMotions(sl.root, exchanges, seg, qctx.Done())
					return
				}
				ectx := newCtx(rt, seg, params, stats, qctx, budget, primaries)
				// Flush this instance's operator stats no matter how it
				// exits — error, abort, panic. wg.Wait below therefore
				// guarantees complete (if partial-work) OpStats by return.
				defer ectx.finishOpStats()
				// Sending runs outside every operator of the slice, so the
				// rows it ships (and any lazy rows it builds) are charged to
				// the sending Motion's frame.
				ectx.pushOp(ectx.frameFor(sl.motion))
				op, err := buildOp(sl.root, exchanges, live)
				if err != nil {
					fail(seg, slice, opName(sl.root), err)
					return
				}
				if err := op.Open(ectx); err != nil {
					if !errors.Is(err, errQueryAborted) {
						fail(seg, slice, opName(sl.root), err)
					}
					return
				}
				snd := sl.ex.newSender(ectx)
				for {
					b, err := op.NextBatch(ectx)
					if errors.Is(err, errEOF) {
						// Clean EOF: ship whatever is still staged. Error
						// exits skip the flush — the query is failing and
						// partial chunks would only be dropped downstream.
						if err := snd.flushAll(ectx); err != nil {
							if !errors.Is(err, errQueryAborted) {
								fail(seg, slice, opName(sl.root), err)
							}
						}
						break
					}
					if err != nil {
						if !errors.Is(err, errQueryAborted) {
							fail(seg, slice, opName(sl.root), err)
						}
						break
					}
					if err := snd.sendBatch(ectx, b); err != nil {
						if !errors.Is(err, errQueryAborted) {
							fail(seg, slice, opName(sl.root), err)
						}
						break
					}
				}
				if err := op.Close(ectx); err != nil && !errors.Is(err, errQueryAborted) {
					fail(seg, slice, opName(sl.root), err)
				}
			}(sl, si+1, seg)
		}
	}

	// The coordinator runs the root slice (the receive side of the root
	// Gather, plus any operators above it). Its panics are isolated the
	// same way a segment's are.
	var rows []types.Row
	coordErr := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		if err := rt.Faults.Hit(qctx, fault.SliceStart, CoordinatorSeg); err != nil {
			return err
		}
		cctx := newCtx(rt, CoordinatorSeg, params, stats, qctx, budget, primaries)
		defer cctx.finishOpStats() // after op.Close (LIFO), before the closure returns
		// The result drain below runs outside every operator: charge it to
		// the root.
		cctx.pushOp(cctx.frameFor(root))
		op, err := buildOp(root, exchanges, live)
		if err != nil {
			return err
		}
		if err := op.Open(cctx); err != nil {
			return err
		}
		defer op.Close(cctx)
		for {
			b, err := op.NextBatch(cctx)
			if errors.Is(err, errEOF) {
				return nil
			}
			if err != nil {
				return err
			}
			rows = append(rows, b.rows(cctx)...)
		}
	}()
	if coordErr != nil && !errors.Is(coordErr, errQueryAborted) {
		coordErr = wrapQueryError(CoordinatorSeg, 0, opName(root), coordErr)
		cancel(coordErr)
	}
	cancel(errQueryDone) // normal completion: release senders parked on full channels
	wg.Wait()
	close(errCh)
	var pending error
	for err := range errCh {
		if pending == nil {
			pending = err
		}
	}
	// The cancellation cause is the authoritative first failure: the race
	// between concurrently-failing slices is settled by whichever cancelled
	// first. A cause from the parent context (deadline, caller cancel)
	// surfaces as-is so callers can match context.DeadlineExceeded.
	if cause := context.Cause(qctx); cause != nil && !errors.Is(cause, errQueryDone) {
		return nil, cause
	}
	if pending != nil {
		return nil, pending
	}
	if coordErr != nil && !errors.Is(coordErr, errQueryAborted) {
		return nil, coordErr
	}
	return &Result{Rows: rows, Layout: root.Layout(), Stats: stats}, nil
}

// drainSubtreeMotions discards everything the given segment would have
// received from the motions directly feeding a slice subtree (without
// crossing into deeper slices, whose own members keep consuming normally).
func drainSubtreeMotions(root plan.Node, exch map[*plan.Motion]*exchange, seg int, done <-chan struct{}) {
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if m, ok := n.(*plan.Motion); ok {
			if ex := exch[m]; ex != nil {
				if ch, ok := ex.chans[seg]; ok {
					for {
						select {
						case _, open := <-ch:
							if !open {
								return
							}
						case <-done:
							return
						}
					}
				}
			}
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
}

// RunLocal executes a Motion-free plan synchronously on one segment. It is
// the harness unit tests use to exercise individual operators.
func RunLocal(rt *Runtime, root plan.Node, seg int, params *Params) (*Result, error) {
	stats := NewStats()
	budget := rt.Gov.NewBudget()
	defer budget.Close()
	ctx := newCtx(rt, seg, params, stats, context.Background(), budget, rt.Store.PrimaryMap())
	defer ctx.finishOpStats()
	ctx.pushOp(ctx.frameFor(root)) // the result drain is charged to the root, as in runAttempt
	op, err := buildOp(root, nil, deriveJoinMasks(root))
	if err != nil {
		return nil, err
	}
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close(ctx)
	var rows []types.Row
	for {
		b, err := op.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, b.rows(ctx)...)
	}
	return &Result{Rows: rows, Layout: root.Layout(), Stats: stats}, nil
}
