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
// rule about what an aggregate means lives in its methods: NULL inputs
// never reach it, SUM stays an integer until the first float input or the
// first int64 overflow, AVG divides only when it finishes, and COUNT over
// no input is 0 where SUM, AVG, MIN and MAX are NULL. The lane loops of
// aggkernel.go repeat only addFloat's rule.
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

// stateLanes holds one aggregate's state for every group: a lane per
// aggAcc field, indexed by group id. A kind keeps only the lanes it reads:
// COUNT counts; SUM and AVG counts, isums, fsums and isFloat; MIN and MAX
// counts and ext. The fold loops (aggkernel.go) read and write the lanes
// directly; everything else goes through load and store, so aggAcc's
// methods still decide what each state means.
type stateLanes struct {
	kind          plan.AggKind
	intSums       int32 // groups whose isFloat bit is clear
	counts, isums []int64
	fsums         []float64
	isFloat       []uint64 // bit g set: fsums[g], not isums[g], holds group g's sum
	ext           []types.Datum
}

// grow appends one group's zero state.
func (l *stateLanes) grow() {
	g := len(l.counts)
	l.counts = append(l.counts, 0)
	switch l.kind {
	case plan.AggSum, plan.AggAvg:
		l.isums, l.fsums, l.intSums = append(l.isums, 0), append(l.fsums, 0), l.intSums+1
		if g&63 == 0 {
			l.isFloat = append(l.isFloat, 0)
		}
	case plan.AggMin, plan.AggMax:
		l.ext = append(l.ext, types.Null)
	}
}

// reset drops every group's state, keeping the lanes' storage.
func (l *stateLanes) reset() {
	clear(l.ext)
	l.counts, l.isums, l.fsums, l.isFloat, l.ext = l.counts[:0], l.isums[:0], l.fsums[:0], l.isFloat[:0], l.ext[:0]
	l.intSums = 0
}

// load returns group g's state.
func (l *stateLanes) load(g int32) aggAcc {
	a := aggAcc{count: l.counts[g]}
	switch l.kind {
	case plan.AggSum, plan.AggAvg:
		a.isum, a.fsum, a.isFloat = l.isums[g], l.fsums[g], l.isFloat[g>>6]&(1<<(g&63)) != 0
	case plan.AggMin, plan.AggMax:
		a.ext = l.ext[g]
	}
	return a
}

// store writes a back as group g's state.
func (l *stateLanes) store(g int32, a *aggAcc) {
	l.counts[g] = a.count
	switch l.kind {
	case plan.AggSum, plan.AggAvg:
		l.isums[g], l.fsums[g] = a.isum, a.fsum
		w, bit := g>>6, uint64(1)<<(g&63)
		l.intSums += int32(b2i(l.isFloat[w]&bit != 0) - b2i(a.isFloat))
		l.isFloat[w] &^= bit
		if a.isFloat {
			l.isFloat[w] |= bit
		}
	case plan.AggMin, plan.AggMax:
		l.ext[g] = a.ext
	}
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

	// The resident groups. A group's id is its index in emission order
	// (insertion order): its key values are keyVals[id], its cache tag
	// tags[id], and aggregate i's state sits at id in states[i].
	groups   map[uint64][]int32 // group ids by key hash (rowHash); made by the first admit of a grouped aggregate
	keyVals  []types.Row
	tags     []laneTag // one key only: the value the group cache last resolved to each group
	states   []stateLanes
	pos      int
	reserved int64

	spilled bool
	parts   []*mem.SpillWriter
	part    int   // next partition to re-aggregate
	sink    int32 // the group of every row written to a.parts (noGroup: none); never emitted or cached

	childOpen bool

	keyBuf types.Row // reused group-key probe buffer (cloned only on insert)
	row    types.Row // scratch row for spilling a batch without rows
	out    Batch     // reused output header for NextBatch

	ids        []int32                 // the group of each row of the current batch
	cache      *[groupCacheSlots]int32 // recently resolved groups (see resolveGroups)
	direct     *[directSize]int32      // one-key int/date groups by key − directLo (see resolveDirect)
	directLo   int64
	hashedRows int64 // rows hashed because the cache or the direct table could not resolve them
}

// noGroup marks an empty group-cache or direct-table entry, and a.sink
// while the operator is not spilling.
const noGroup int32 = -1

// aggStateBytes is the budget's fixed charge for one new group: its key
// values plus a flat allowance per group and per aggregate. It is an
// estimate, not a measure of the state lanes, and does not change with
// their layout, so the points at which an aggregate spills stay put.
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
	a.states = make([]stateLanes, len(a.n.Aggs))
	for i, ag := range a.n.Aggs {
		a.states[i].kind = ag.Kind
	}
	a.resetGroups()
	a.reserved = 0
	a.spilled, a.parts, a.part = false, nil, 0
	a.hashedRows = 0
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
	if len(a.n.Groups) == 0 && len(a.keyVals) == 0 && !a.spilled {
		a.newGroup(nil)
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

// newGroup appends a group with the given key values and a zero state for
// every aggregate, and returns its id.
func (a *hashAggOp) newGroup(groupVals types.Row) int32 {
	a.keyVals = append(a.keyVals, groupVals)
	if len(groupVals) == 1 {
		a.tags = append(a.tags, laneTag{})
	}
	for i := range a.states {
		a.states[i].grow()
	}
	return int32(len(a.keyVals) - 1)
}

// resetGroups drops every group, and with them the group cache and the
// direct table, whose entries name groups by id.
func (a *hashAggOp) resetGroups() {
	a.groups = nil
	clear(a.keyVals)
	a.keyVals, a.tags, a.pos = a.keyVals[:0], a.tags[:0], 0
	for i := range a.states {
		a.states[i].reset()
	}
	a.cache, a.direct, a.sink = nil, nil, noGroup
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
		g, err := a.scalarGroup(b, ctx, hard)
		if err == nil && g != a.sink { // the sink's state is thrown away
			a.foldOne(g, b.Len())
		}
		return err
	}
	ids, err := a.resolveGroups(b, ctx, hard)
	if err != nil {
		return err
	}
	c := 0 // the aggregate's first lane in a.args
	for i, ag := range a.n.Aggs {
		l := &a.states[i]
		switch {
		case a.n.Stage == plan.AggFinal:
			l.combine(ids, a.args.cols[c:c+ag.Kind.StateWidth()])
			c += ag.Kind.StateWidth()
		case ag.Arg == nil: // COUNT(*)
			l.countRows(ids)
		default:
			l.foldLane(ids, a.args.cols[c].view, a.args.cols[c].sel)
			c++
		}
	}
	return nil
}

// scalarGroup resolves the one group of a scalar aggregate for batch b.
// Once it is resident (group 0) every row belongs to it; while it is not,
// every row of b is spilled and the sink is returned.
func (a *hashAggOp) scalarGroup(b *Batch, ctx *Ctx, hard bool) (int32, error) {
	if len(a.keyVals) > 0 {
		return 0, nil
	}
	g, err := a.resolveRow(types.HashSeed, b, 0, ctx, hard)
	for k := 1; err == nil && g == a.sink && k < b.Len(); k++ {
		g, err = a.resolveRow(types.HashSeed, b, k, ctx, hard)
	}
	return g, err
}

// foldOne folds the n rows of a batch that all belong to group g, the
// resident group of a Single or Partial scalar aggregate: a COUNT(*) adds
// n, and every other aggregate folds its input lane into g's state at once
// (foldInto), in registers rather than through the state lanes.
func (a *hashAggOp) foldOne(g int32, n int) {
	c := 0
	for i, ag := range a.n.Aggs {
		l := &a.states[i]
		if ag.Arg == nil {
			l.counts[g] += int64(n)
			continue
		}
		acc := l.load(g)
		acc.foldInto(ag.Kind, a.args.cols[c].view, a.args.cols[c].sel, n)
		l.store(g, &acc)
		c++
	}
}

// admit creates a group seen for the first time, charging its footprint
// to the budget, and returns its id; key is cloned, so callers may pass a
// reused buffer. noGroup without an error means the group cannot become
// resident — the charge was denied just now, or the operator is already
// spilling — and the caller routes the raw row to a.parts.
//
// The first denial makes the sink: one more slot in the state lanes, after
// the last group, with no key values, so it is never emitted. No group is
// admitted after it until loadNextPart drops them all.
func (a *hashAggOp) admit(h uint64, key types.Row, ctx *Ctx, hard bool) (int32, error) {
	sb := aggStateBytes(key, len(a.n.Aggs))
	switch {
	case hard:
		if err := ctx.reserveHard(sb); err != nil {
			return noGroup, err
		}
	case a.spilled:
		return noGroup, nil
	case ctx.reserve(sb) != nil:
		parts, err := newSpillParts(ctx, "agg")
		if err != nil {
			return noGroup, err
		}
		a.parts, a.spilled, a.sink = parts, true, int32(len(a.keyVals))
		for i := range a.states {
			a.states[i].grow()
		}
		return noGroup, nil
	}
	a.reserved += sb
	g := a.newGroup(append(types.Row(nil), key...))
	if len(key) > 0 { // a scalar aggregate's one group needs no table (scalarGroup)
		if a.groups == nil {
			a.groups = map[uint64][]int32{}
		}
		a.groups[h] = append(a.groups[h], g)
	}
	return g, nil
}

// loadNextPart re-aggregates spill partitions until one yields groups (or
// all are drained). The previous groups are released first.
func (a *hashAggOp) loadNextPart(ctx *Ctx) (bool, error) {
	for a.part < len(a.parts) {
		ctx.release(a.reserved)
		a.reserved = 0
		a.resetGroups()
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
		if len(a.keyVals) > 0 {
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
	for a.pos >= len(a.keyVals) {
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
	g := int32(a.pos)
	a.pos++
	out := make(types.Row, a.outWidth)
	pos := copy(out, a.keyVals[g])
	for i, agg := range a.n.Aggs {
		acc := a.states[i].load(g)
		if a.n.Stage == plan.AggPartial {
			acc.emitState(agg.Kind, out[pos:])
			pos += agg.Kind.StateWidth()
		} else {
			out[pos] = acc.finish(agg.Kind)
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
	a.groups, a.keyVals, a.tags, a.states, a.ids, a.direct = nil, nil, nil, nil, nil, nil
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
