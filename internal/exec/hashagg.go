package exec

import (
	"errors"
	"fmt"
	"io"

	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// ---------------------------------------------------------------- aggregate state

// aggAcc is the running state of one aggregate inside one group. Every
// rule about what an aggregate means lives in its methods, which both the
// row loop below and the typed loop (aggkernel.go) call: NULL inputs never
// reach it, SUM stays an integer until the first float input or the first
// int64 overflow, AVG divides only when it finishes, and COUNT over no input
// is 0 where SUM, AVG, MIN and MAX are NULL.
type aggAcc struct {
	count   int64       // COUNT: rows (or non-NULL arguments); otherwise the non-NULL inputs folded in
	isum    int64       // SUM/AVG while every input was an integer
	fsum    float64     // SUM/AVG from the first float input on
	isFloat bool        // fsum, not isum, holds the sum
	ext     types.Datum // MIN/MAX: the extreme so far, meaningful once count > 0
}

func (a *aggAcc) addInt(v int64) {
	if a.isFloat {
		a.fsum += float64(v)
		return
	}
	s := a.isum + v
	if (s < a.isum) != (v < 0) {
		// The int64 sum overflowed: go on in float, as a float input would.
		a.fsum, a.isFloat = float64(a.isum)+float64(v), true
		return
	}
	a.isum = s
}

func (a *aggAcc) addFloat(v float64) {
	if !a.isFloat {
		a.fsum, a.isFloat = float64(a.isum), true
	}
	a.fsum += v
}

// addSum folds one non-NULL SUM/AVG input (or partial sum).
func (a *aggAcc) addSum(v types.Datum) {
	if v.Kind() == types.KindInt {
		a.addInt(v.Int())
	} else {
		a.addFloat(v.Float())
	}
}

// offer folds one non-NULL MIN/MAX input; the caller counts it afterwards.
func (a *aggAcc) offer(v types.Datum, max bool) {
	if a.count == 0 {
		a.ext = v
		return
	}
	if c := types.Compare(v, a.ext); (max && c > 0) || (!max && c < 0) {
		a.ext = v
	}
}

// fold folds one non-NULL input value of an aggregate of the given kind.
func (a *aggAcc) fold(kind plan.AggKind, v types.Datum) {
	switch kind {
	case plan.AggSum, plan.AggAvg:
		a.addSum(v)
	case plan.AggMin, plan.AggMax:
		a.offer(v, kind == plan.AggMax)
	}
	a.count++
}

// combine folds the state columns a Partial stage emitted for this
// aggregate (see emitState) into the Final stage's accumulator.
func (a *aggAcc) combine(kind plan.AggKind, state types.Row) {
	switch kind {
	case plan.AggCount:
		a.count += state[0].Int()
	case plan.AggAvg:
		if !state[0].IsNull() {
			a.addSum(state[0])
		}
		a.count += state[1].Int()
	default:
		if !state[0].IsNull() {
			a.fold(kind, state[0])
		}
	}
}

func (a *aggAcc) sum() types.Datum {
	switch {
	case a.count == 0:
		return types.Null
	case a.isFloat:
		return types.NewFloat(a.fsum)
	}
	return types.NewInt(a.isum)
}

// emitState writes the columns a Partial stage ships for this aggregate
// (plan.AggKind.StateWidth of them).
func (a *aggAcc) emitState(kind plan.AggKind, out types.Row) {
	switch kind {
	case plan.AggCount:
		out[0] = types.NewInt(a.count)
	case plan.AggSum:
		out[0] = a.sum()
	case plan.AggAvg:
		out[0], out[1] = a.sum(), types.NewInt(a.count)
	case plan.AggMin, plan.AggMax:
		out[0] = types.Null
		if a.count > 0 {
			out[0] = a.ext
		}
	}
}

// finish returns the aggregate's value.
func (a *aggAcc) finish(kind plan.AggKind) types.Datum {
	switch kind {
	case plan.AggCount:
		return types.NewInt(a.count)
	case plan.AggSum:
		return a.sum()
	case plan.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		total := a.fsum
		if !a.isFloat {
			total = float64(a.isum)
		}
		return types.NewFloat(total / float64(a.count))
	case plan.AggMin, plan.AggMax:
		if a.count == 0 {
			return types.Null
		}
		return a.ext
	}
	panic(fmt.Sprintf("exec: unknown aggregate kind %d", kind))
}

type aggState struct {
	groupVals types.Row
	acc       []aggAcc // one per aggregate
	tag       laneTag  // typed loop: the one-key value the group cache last resolved here
}

// ---------------------------------------------------------------- hash agg

// hashAggOp groups its input and computes aggregate functions. With no
// grouping columns it emits exactly one row.
//
// One operator serves the three plan.AggStage values. The stage decides
// only what an input row is and what an output row is: Single and Partial
// fold raw child rows (Partial then emits its accumulators as state
// columns instead of finished values), Final folds a Partial's state rows,
// read by position. Hashing, the group table, budget charges, spilling and
// abort polling are the same code in every stage.
//
// Each new group charges the budget for its aggregation state. When the
// charge is denied the operator spills: input rows whose group is not
// already resident are written — raw — to spillFanout disk partitions by
// group hash, while resident groups keep pre-aggregating in memory. Rows of
// one group all land in the same partition (and only groups absent from the
// resident table ever spill), so after the resident groups are emitted each
// partition is re-aggregated independently with hard reservations.
type hashAggOp struct {
	n      *plan.HashAgg
	child  Operator
	layout expr.Layout

	// keyPos and argPos are the child-row positions of each group key and
	// each aggregate's input (a Final stage's first state column); -1 marks
	// a computed expression, which only the row loop can evaluate.
	keyPos   []int
	argPos   []int
	outWidth int // columns of an output row: groups, then values (Partial: state columns)

	groups   map[uint64][]*aggState
	order    []*aggState // emission order (insertion order)
	pos      int
	reserved int64

	spilled bool
	parts   []*mem.SpillWriter
	part    int // next partition to re-aggregate

	childOpen bool

	env    expr.Env  // reused per row
	keyBuf types.Row // reused group-key probe buffer (cloned only on insert)
	out    Batch     // reused output header for NextBatch

	rowStates  []*aggState                 // typed loop: the group of each row of the current batch
	cache      *[groupCacheSlots]*aggState // typed loop: recently resolved groups (see resolveGroups)
	hashedRows int64                       // typed loop: rows hashed because the cache could not resolve them

	typedBatches, rowBatches int64 // child batches folded by each loop
}

// aggStateBytes estimates one group's aggregation-state footprint.
func aggStateBytes(groupVals types.Row, naggs int) int64 {
	return mem.RowBytes(groupVals) + 200 + 48*int64(naggs)
}

// colPos resolves a bare column reference to its position in the layout;
// -1 for anything else.
func colPos(e expr.Expr, layout expr.Layout) int {
	if c, ok := e.(*expr.Col); ok {
		if p, ok := layout[c.ID]; ok && p >= 0 {
			return p
		}
	}
	return -1
}

func (a *hashAggOp) Open(ctx *Ctx) (err error) {
	a.layout = a.n.Child.Layout()
	a.env = expr.Env{Layout: a.layout, Params: ctx.Params.Vals}
	a.keyBuf = make(types.Row, len(a.n.Groups))
	a.keyPos = make([]int, len(a.n.Groups))
	a.argPos = make([]int, len(a.n.Aggs))
	for i, g := range a.n.Groups {
		a.keyPos[i] = colPos(g.E, a.layout)
	}
	a.outWidth = len(a.n.Groups) + len(a.n.Aggs)
	for i, ag := range a.n.Aggs {
		a.argPos[i] = colPos(ag.Arg, a.layout)
		if a.n.Stage == plan.AggPartial {
			a.outWidth += ag.Kind.StateWidth() - 1
		}
	}
	if a.n.Stage == plan.AggFinal {
		// The child delivers a Partial stage's rows: groups first, then
		// each aggregate's state columns.
		pos := len(a.n.Groups)
		for i := range a.keyPos {
			a.keyPos[i] = i
		}
		for i, ag := range a.n.Aggs {
			a.argPos[i] = pos
			pos += ag.Kind.StateWidth()
		}
	}
	a.groups = map[uint64][]*aggState{}
	a.order = nil
	a.pos = 0
	a.reserved = 0
	a.spilled = false
	a.parts = nil
	a.part = 0
	a.typedBatches, a.rowBatches = 0, 0
	a.cache, a.hashedRows = nil, 0
	defer func() {
		ctx.noteAggBatches(a.typedBatches, a.rowBatches)
		if err != nil {
			a.abort(ctx)
		}
	}()

	if err := a.child.Open(ctx); err != nil {
		return err
	}
	a.childOpen = true
	for {
		b, err := a.child.NextBatch(ctx)
		if errors.Is(err, errEOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := ctx.pollAbortBatch(); err != nil {
			return err
		}
		// The typed loop folds as many leading rows as it can; whatever is
		// left (all of them when it cannot type the batch) takes the row
		// loop.
		done, err := a.foldTyped(b, ctx)
		if err != nil {
			return err
		}
		if done == b.Len() {
			a.typedBatches++
			continue
		}
		a.rowBatches++
		for _, row := range b.rows(ctx)[done:] {
			if err := a.accumulate(row, ctx, false); err != nil {
				return err
			}
		}
	}
	if err := a.child.Close(ctx); err != nil {
		a.childOpen = false
		return err
	}
	a.childOpen = false
	// Scalar aggregation over empty input still yields one row.
	if len(a.n.Groups) == 0 && len(a.order) == 0 && !a.spilled {
		a.order = append(a.order, a.newState(nil))
	}
	if a.spilled {
		var bytes, parts int64
		for _, w := range a.parts {
			bytes += w.Bytes()
			if w.Rows() > 0 {
				parts++
			}
		}
		ctx.noteSpill(bytes, parts)
	}
	return nil
}

func (a *hashAggOp) newState(groupVals types.Row) *aggState {
	return &aggState{groupVals: groupVals, acc: make([]aggAcc, len(a.n.Aggs))}
}

// value reads one input of the current row (a.env.Row): by position when
// the input is a plain column, through the expression evaluator otherwise.
func (a *hashAggOp) value(pos int, e expr.Expr) (types.Datum, error) {
	if row := a.env.Row; pos >= 0 && pos < len(row) {
		return row[pos], nil
	}
	return expr.Eval(e, &a.env)
}

// accumulate is the row loop: it folds one input row into its group. hard
// marks the partition-re-aggregation pass, where new groups are the
// irreducible working set (hard reservation, no further spilling).
func (a *hashAggOp) accumulate(row types.Row, ctx *Ctx, hard bool) error {
	a.env.Row = row
	h := types.HashSeed
	for i, g := range a.n.Groups {
		v, err := a.value(a.keyPos[i], g.E)
		if err != nil {
			return err
		}
		a.keyBuf[i] = v
		h = types.HashDatum(h, v)
	}
	var st *aggState
	for _, cand := range a.groups[h] {
		same := true
		for i := range a.keyBuf {
			if types.Compare(cand.groupVals[i], a.keyBuf[i]) != 0 {
				same = false
				break
			}
		}
		if same {
			st = cand
			break
		}
	}
	if st == nil {
		var err error
		if st, err = a.admit(h, a.keyBuf, ctx, hard); err != nil {
			return err
		}
		if st == nil {
			// Non-resident group under pressure: route the raw row to its
			// partition for the re-aggregation pass.
			return a.parts[int(h%spillFanout)].Write(row)
		}
	}
	for i, agg := range a.n.Aggs {
		acc := &st.acc[i]
		if a.n.Stage == plan.AggFinal {
			acc.combine(agg.Kind, row[a.argPos[i]:])
			continue
		}
		if agg.Arg == nil { // COUNT(*)
			acc.count++
			continue
		}
		v, err := a.value(a.argPos[i], agg.Arg)
		if err != nil {
			return err
		}
		if !v.IsNull() {
			acc.fold(agg.Kind, v)
		}
	}
	return nil
}

// admit creates the state of a group seen for the first time, charging its
// footprint to the budget; key is cloned, so callers may pass a reused
// buffer. A nil state without an error means the group cannot become
// resident — the charge was denied just now, or the operator is already
// spilling — and the caller routes the raw row to a.parts.
func (a *hashAggOp) admit(h uint64, key types.Row, ctx *Ctx, hard bool) (*aggState, error) {
	sb := aggStateBytes(key, len(a.n.Aggs))
	switch {
	case hard:
		if err := ctx.reserveHard(sb); err != nil {
			return nil, err
		}
	case a.spilled:
		return nil, nil
	case ctx.reserve(sb) != nil:
		parts, err := newSpillParts(ctx, "agg")
		if err != nil {
			return nil, err
		}
		a.parts, a.spilled = parts, true
		return nil, nil
	}
	a.reserved += sb
	st := a.newState(append(types.Row(nil), key...))
	a.groups[h] = append(a.groups[h], st)
	a.order = append(a.order, st)
	return st, nil
}

// loadNextPart re-aggregates spill partitions until one yields groups (or
// all are drained). The previous batch's states are released first.
func (a *hashAggOp) loadNextPart(ctx *Ctx) (bool, error) {
	for a.part < len(a.parts) {
		ctx.release(a.reserved)
		a.reserved = 0
		a.groups = map[uint64][]*aggState{}
		a.order, a.pos = nil, 0
		w := a.parts[a.part]
		r, err := w.Reader()
		if err != nil {
			return false, err
		}
		for {
			row, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return false, err
			}
			if err := ctx.pollAbort(); err != nil {
				r.Close()
				return false, err
			}
			if err := a.accumulate(row, ctx, true); err != nil {
				r.Close()
				return false, err
			}
		}
		r.Close()
		w.Remove()
		a.part++
		if len(a.order) > 0 {
			return true, nil
		}
	}
	return false, nil
}

// NextBatch emits result groups batch-at-a-time. Emitted rows are freshly
// allocated per group, so only the header is reused.
func (a *hashAggOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if err := ctx.pollAbortBatch(); err != nil {
		return nil, err
	}
	return fillBatch(&a.out, func() (types.Row, error) { return a.nextRow(ctx) })
}

func (a *hashAggOp) nextRow(ctx *Ctx) (types.Row, error) {
	for a.pos >= len(a.order) {
		if !a.spilled {
			return nil, errEOF
		}
		more, err := a.loadNextPart(ctx)
		if err != nil {
			return nil, err
		}
		if !more {
			return nil, errEOF
		}
	}
	st := a.order[a.pos]
	a.pos++
	out := make(types.Row, a.outWidth)
	pos := copy(out, st.groupVals)
	for i, agg := range a.n.Aggs {
		if a.n.Stage == plan.AggPartial {
			st.acc[i].emitState(agg.Kind, out[pos:])
			pos += agg.Kind.StateWidth()
		} else {
			out[pos] = st.acc[i].finish(agg.Kind)
			pos++
		}
	}
	return out, nil
}

// cleanup releases states, reservations and spill files. Idempotent.
func (a *hashAggOp) cleanup(ctx *Ctx) {
	for _, w := range a.parts {
		w.Remove()
	}
	a.parts = nil
	ctx.release(a.reserved)
	a.reserved = 0
	a.groups, a.order, a.cache = nil, nil, nil
}

// abort is the failed-Open teardown.
func (a *hashAggOp) abort(ctx *Ctx) {
	if a.childOpen {
		a.child.Close(ctx)
		a.childOpen = false
	}
	a.cleanup(ctx)
}

func (a *hashAggOp) Close(ctx *Ctx) error {
	var firstErr error
	if a.childOpen {
		firstErr = a.child.Close(ctx)
		a.childOpen = false
	}
	a.cleanup(ctx)
	return firstErr
}
