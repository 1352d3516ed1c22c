package exec

import (
	"partopt/internal/plan"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// The typed accumulate loop of hashAggOp. A columnar batch whose group keys
// and aggregate inputs are all plain columns is folded straight off the
// typed lanes: the group of every row is resolved first (on the hashes
// vecHasher already computes), then each aggregate runs one tight loop over
// its input lane. No expression is evaluated and, for COUNT and SUM, no
// datum is built. What each aggregate means is still decided by aggAcc
// (hashagg.go); the loops here only choose how the input value is read.

// typedLanes reports whether every input of this batch can be read off a
// typed lane. Lanes degrade per heap, so this is asked per batch.
func (a *hashAggOp) typedLanes(b *Batch) bool {
	if b.Cols == nil || a.spilled || a.n.Stage == plan.AggFinal {
		return false
	}
	for _, p := range a.keyPos {
		if p < 0 || p >= len(b.Cols) {
			return false
		}
	}
	for i, ag := range a.n.Aggs {
		if ag.Arg == nil {
			continue // COUNT(*) reads nothing
		}
		p := a.argPos[i]
		if p < 0 || p >= len(b.Cols) {
			return false
		}
		if ag.Kind == plan.AggSum || ag.Kind == plan.AggAvg {
			// A sum needs a numeric lane (or the all-NULL one); anything
			// else — a mixed lane, a date — keeps the row loop's rules.
			v := &b.Cols[p]
			if v.Mixed || (v.Kind != types.KindInt && v.Kind != types.KindFloat && v.Kind != types.KindNull) {
				return false
			}
		}
	}
	return true
}

// foldTyped folds the leading rows of a batch through the typed loop and
// returns how many it consumed: all of them, none when the batch cannot be
// typed, or a prefix when a new group was denied memory mid-batch (the
// operator is spilling from that row on, which is the row loop's business).
func (a *hashAggOp) foldTyped(b *Batch, ctx *Ctx) (int, error) {
	if !a.typedLanes(b) {
		return 0, nil
	}
	n, err := a.resolveGroups(b, ctx)
	if err != nil || n == 0 {
		return 0, err
	}
	states := a.rowStates[:n]
	for i, ag := range a.n.Aggs {
		if ag.Arg == nil {
			for _, st := range states {
				st.acc[i].count++
			}
			continue
		}
		foldLane(states, i, ag.Kind, &b.Cols[a.argPos[i]], b.Sel)
	}
	return n, nil
}

// recentGroups sizes the typed loop's direct-mapped cache of recently seen
// groups (one pointer per slot).
const recentGroups = 64

// resolveGroups fills a.rowStates with the group state of each row, creating
// groups as they first appear, and returns the number of rows resolved.
func (a *hashAggOp) resolveGroups(b *Batch, ctx *Ctx) (int, error) {
	n := b.Len()
	if cap(a.rowStates) < n {
		a.rowStates = make([]*aggState, n)
	}
	states := a.rowStates[:n]
	if len(a.keyPos) == 0 {
		// Scalar aggregate: one group, hashed like the row loop hashes it.
		var st *aggState
		if bucket := a.groups[types.HashSeed]; len(bucket) > 0 {
			st = bucket[0]
		} else {
			var err error
			if st, err = a.admit(types.HashSeed, nil, ctx, false); err != nil || st == nil {
				return 0, err
			}
		}
		for k := range states {
			states[k] = st
		}
		return n, nil
	}
	gh, _, ok := a.vh.hashBatch(b)
	if !ok {
		return 0, nil
	}
	if a.recent == nil {
		a.recent = make([]*aggState, recentGroups)
	}
	for k := 0; k < n; k++ {
		i := selRow(b.Sel, k)
		h := gh[k]
		// Few groups soak up most rows: remember the last group seen per
		// hash slot and skip the table lookup when it is the one again.
		slot := &a.recent[h%recentGroups]
		if st := *slot; st != nil && st.hash == h && a.keysEqual(st, b.Cols, i) {
			states[k] = st
			continue
		}
		var st *aggState
		for _, cand := range a.groups[h] {
			if a.keysEqual(cand, b.Cols, i) {
				st = cand
				break
			}
		}
		if st == nil {
			for j, p := range a.keyPos {
				a.keyBuf[j] = b.Cols[p].Datum(i)
			}
			var err error
			if st, err = a.admit(h, a.keyBuf, ctx, false); err != nil || st == nil {
				return k, err
			}
		}
		states[k], *slot = st, st
	}
	return n, nil
}

// keysEqual compares a group's key values with window row i of the key
// lanes, under the grouping rule (NULLs are equal to each other).
func (a *hashAggOp) keysEqual(st *aggState, cols []vec.View, i int) bool {
	for j, p := range a.keyPos {
		if !cols[p].EqualDatum(i, st.groupVals[j]) {
			return false
		}
	}
	return true
}

// foldLane folds one aggregate's input lane into the per-row group states.
func foldLane(states []*aggState, ai int, kind plan.AggKind, v *vec.View, sel []int32) {
	nullable := v.Mixed || len(v.Nulls) > 0
	switch {
	case v.Kind == types.KindNull && !v.Mixed:
		// Declared-NULL lane: nothing to fold.
	case kind == plan.AggCount:
		for k, st := range states {
			if !nullable || !v.Null(selRow(sel, k)) {
				st.acc[ai].count++
			}
		}
	case kind == plan.AggMin || kind == plan.AggMax:
		max := kind == plan.AggMax
		for k, st := range states {
			i := selRow(sel, k)
			if nullable && v.Null(i) {
				continue
			}
			acc := &st.acc[ai]
			acc.offer(v.Datum(i), max)
			acc.count++
		}
	case v.Kind == types.KindInt: // SUM/AVG over an integer lane
		lane := v.Ints[v.Base:]
		for k, st := range states {
			i := selRow(sel, k)
			if nullable && v.Null(i) {
				continue
			}
			acc := &st.acc[ai]
			acc.addInt(lane[i])
			acc.count++
		}
	default: // SUM/AVG over a float lane (typedLanes admits nothing else)
		lane := v.Flts[v.Base:]
		for k, st := range states {
			i := selRow(sel, k)
			if nullable && v.Null(i) {
				continue
			}
			acc := &st.acc[ai]
			acc.addFloat(lane[i])
			acc.count++
		}
	}
}
