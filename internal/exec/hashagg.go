package exec

import (
	"errors"
	"fmt"

	"partopt/internal/expr"
	"partopt/internal/mem"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// ---------------------------------------------------------------- aggregate state

// aggAcc is the running state of one aggregate inside one group. Every
// rule about what an aggregate means lives in its methods, which the fold
// loops (aggkernel.go) call: NULL inputs never reach it, SUM stays an
// integer until the first float input or the first int64 overflow, AVG
// divides only when it finishes, and COUNT over no input is 0 where SUM,
// AVG, MIN and MAX are NULL.
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
// aggregate (see emitState) into the Final stage's accumulator: s0 is the
// first, and s1 AVG's count.
func (a *aggAcc) combine(kind plan.AggKind, s0, s1 types.Datum) {
	switch kind {
	case plan.AggCount:
		a.count += s0.Int()
	case plan.AggAvg:
		if !s0.IsNull() {
			a.addSum(s0)
		}
		a.count += s1.Int()
	default:
		if !s0.IsNull() {
			a.fold(kind, s0)
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
	tag       laneTag  // the one-key value the group cache last resolved here
}

// ---------------------------------------------------------------- hash agg

// hashAggOp groups its input and computes aggregate functions. With no
// grouping columns it emits exactly one row.
//
// One operator serves the three plan.AggStage values. The stage decides
// only what an input row is and what an output row is: Single and Partial
// fold raw child rows (Partial then emits its accumulators as state
// columns instead of finished values), Final folds a Partial's state rows,
// read by position. Reading the inputs, hashing, the group table, budget
// charges, spilling and abort polling are the same code in every stage,
// and every batch takes it: group keys and aggregate inputs are read as
// lanes (keyLanes), whether the batch carries lanes, only rows (Motion
// output, spill reloads) or needs an expression evaluated.
//
// Each new group charges the budget for its aggregation state. When the
// charge is denied the operator spills: input rows whose group is not
// already resident are written — raw — to spillFanout disk partitions by
// group hash, while resident groups keep pre-aggregating in memory. Rows of
// one group all land in the same partition (and only groups absent from the
// resident table ever spill), so after the resident groups are emitted each
// partition is re-aggregated independently with hard reservations.
type hashAggOp struct {
	n     *plan.HashAgg
	child Operator

	// keys reads each batch's group keys. args reads the aggregate inputs
	// in aggregate order: a Single or Partial stage one lane per argument
	// (none for COUNT(*)), a Final stage each aggregate's state columns.
	keys, args keyLanes
	outWidth   int // columns of an output row: groups, then values (Partial: state columns)

	groups   map[uint64][]*aggState
	order    []*aggState // emission order (insertion order)
	pos      int
	reserved int64

	spilled bool
	parts   []*mem.SpillWriter
	part    int       // next partition to re-aggregate
	sink    *aggState // the group of every row written to a.parts; never emitted

	childOpen bool

	keyBuf types.Row // reused group-key probe buffer (cloned only on insert)
	row    types.Row // scratch row for spilling a batch without rows
	out    Batch     // reused output header for NextBatch

	rowStates  []*aggState                 // the group of each row of the current batch
	cache      *[groupCacheSlots]*aggState // recently resolved groups (see resolveGroups)
	hashedRows int64                       // rows hashed because the cache could not resolve them
}

// aggStateBytes estimates one group's aggregation-state footprint.
func aggStateBytes(groupVals types.Row, naggs int) int64 {
	return mem.RowBytes(groupVals) + 200 + 48*int64(naggs)
}

// inputs sets up a.keys, a.args and a.outWidth. A Single or Partial stage
// reads expressions over the child's layout; a Final stage reads a
// Partial's rows by position: the groups, then each aggregate's
// StateWidth state columns.
func (a *hashAggOp) inputs(params []types.Datum) {
	final := a.n.Stage == plan.AggFinal
	var layout expr.Layout // a Final stage evaluates nothing
	if !final {
		layout = a.n.Child.Layout()
	}
	env := expr.Env{Layout: layout, Params: params}
	a.keys = keyLanes{cols: make([]keyCol, len(a.n.Groups)), env: env}
	for i, g := range a.n.Groups {
		a.keys.cols[i] = keyCol{e: g.E, pos: colPos(g.E, layout)}
		if final {
			a.keys.cols[i] = keyCol{pos: i}
		}
	}
	nargs := 0
	for _, ag := range a.n.Aggs {
		switch {
		case final:
			nargs += ag.Kind.StateWidth()
		case ag.Arg != nil:
			nargs++
		}
	}
	a.args = keyLanes{cols: make([]keyCol, 0, nargs), env: env}
	a.outWidth = len(a.n.Groups)
	pos := len(a.n.Groups) // a Final stage's next state column
	for _, ag := range a.n.Aggs {
		a.outWidth++
		if a.n.Stage == plan.AggPartial {
			a.outWidth += ag.Kind.StateWidth() - 1
		}
		switch {
		case final:
			for range ag.Kind.StateWidth() {
				a.args.cols = append(a.args.cols, keyCol{pos: pos})
				pos++
			}
		case ag.Arg != nil:
			a.args.cols = append(a.args.cols, keyCol{e: ag.Arg, pos: colPos(ag.Arg, layout)})
		}
	}
}

func (a *hashAggOp) Open(ctx *Ctx) (err error) {
	a.inputs(ctx.Params.Vals)
	a.keyBuf = make(types.Row, len(a.n.Groups))
	a.groups = map[uint64][]*aggState{}
	a.order, a.pos, a.reserved = nil, 0, 0
	a.spilled, a.parts, a.part, a.sink = false, nil, 0, nil
	a.cache, a.hashedRows = nil, 0
	defer func() {
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
		if err := a.fold(b, ctx, false); err != nil {
			return err
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

// fold folds one batch: it reads the keys and inputs, resolves the group of
// every row (resolveGroups), then runs one loop per aggregate over its
// input lanes. hard marks the partition-re-aggregation pass, where new
// groups are the irreducible working set (hard reservation, no further
// spilling).
func (a *hashAggOp) fold(b *Batch, ctx *Ctx, hard bool) error {
	if err := a.keys.load(b); err != nil {
		return err
	}
	if err := a.args.load(b); err != nil {
		return err
	}
	if len(a.n.Groups) == 0 && a.n.Stage != plan.AggFinal {
		st, err := a.scalarState(b, ctx, hard)
		if err == nil && st != a.sink { // the sink's accumulators are thrown away
			a.foldOne(st, b.Len())
		}
		return err
	}
	states, err := a.resolveGroups(b, ctx, hard)
	if err != nil {
		return err
	}
	c := 0 // the aggregate's first lane in a.args
	for i, ag := range a.n.Aggs {
		switch {
		case a.n.Stage == plan.AggFinal:
			combineLanes(states, i, ag.Kind, a.args.cols[c:c+ag.Kind.StateWidth()])
			c += ag.Kind.StateWidth()
		case ag.Arg == nil: // COUNT(*)
			for _, st := range states {
				st.acc[i].count++
			}
		default:
			foldLane(states, i, ag.Kind, a.args.cols[c].view, a.args.cols[c].sel)
			c++
		}
	}
	return nil
}

// scalarState resolves the one group of a scalar aggregate for batch b.
// Once it is resident every row belongs to it; while it is not, every row
// of b is spilled and the sink is returned.
func (a *hashAggOp) scalarState(b *Batch, ctx *Ctx, hard bool) (*aggState, error) {
	st, err := a.resolveRow(types.HashSeed, b, 0, ctx, hard)
	for k := 1; err == nil && st == a.sink && k < b.Len(); k++ {
		st, err = a.resolveRow(types.HashSeed, b, k, ctx, hard)
	}
	return st, err
}

// foldOne folds the n rows of a batch that all belong to st, the resident
// state of a Single or Partial scalar aggregate: a COUNT(*) adds n, and
// every other aggregate folds its input lane into st at once (foldInto).
func (a *hashAggOp) foldOne(st *aggState, n int) {
	c := 0
	for i, ag := range a.n.Aggs {
		if ag.Arg == nil {
			st.acc[i].count += int64(n)
			continue
		}
		st.acc[i].foldInto(ag.Kind, a.args.cols[c].view, a.args.cols[c].sel, n)
		c++
	}
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
		a.parts, a.spilled, a.sink = parts, true, a.newState(nil)
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
		a.groups, a.cache = map[uint64][]*aggState{}, nil
		a.order, a.pos = nil, 0
		w := a.parts[a.part]
		r, err := w.Reader()
		if err != nil {
			return false, err
		}
		var part Batch
		for {
			b, err := fillBatch(&part, spillRows(r))
			if errors.Is(err, errEOF) {
				break
			}
			if err == nil {
				err = ctx.pollAbortBatch()
			}
			if err == nil {
				err = a.fold(b, ctx, true)
			}
			if err != nil {
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
	a.groups, a.order, a.cache, a.sink = nil, nil, nil, nil
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
