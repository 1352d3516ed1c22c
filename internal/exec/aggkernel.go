package exec

import (
	"math"
	"math/bits"

	"partopt/internal/plan"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// The typed accumulate loop of hashAggOp. A columnar batch whose group keys
// and aggregate inputs are all plain columns is folded straight off the
// typed lanes: the group of every row is resolved first (from a small cache
// keyed by the key values, hashing only the rows it misses), then each
// aggregate runs one tight loop over its input lane. No expression is
// evaluated and, for COUNT and SUM, no datum is built. What each aggregate
// means is still decided by aggAcc (hashagg.go); the loops here only choose
// how the input value is read.

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

// The group cache: groupCacheSlots recently resolved groups, direct-mapped
// by a cheap mix of the key values themselves. Few groups soak up most rows,
// so most rows find their group here without being hashed.
const (
	groupCacheBits  = 6
	groupCacheSlots = 1 << groupCacheBits
)

// cacheSlot maps a key's bits to a group-cache slot: a multiplicative
// (Fibonacci) mix keeping the top bits, which spreads runs of nearby values.
func cacheSlot(x uint64) int { return int(x * 0x9e3779b97f4a7c15 >> (64 - groupCacheBits)) }

// strBits packs a few bytes of s into the value cacheSlot mixes: the whole
// string when it is shorter than 8 bytes, otherwise its first and last 8.
func strBits(s string) uint64 {
	n := len(s)
	x := uint64(n)
	if n < 8 {
		for i := 0; i < n; i++ {
			x = x<<8 | uint64(s[i])
		}
		return x
	}
	t := s[n-8:]
	head := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
	tail := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
		uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
	return x ^ head ^ bits.RotateLeft64(tail, 31)
}

// laneTag is a one-key group's cache tag: the lane kind and payload of the
// value that last resolved to the group through the cache. A cached group
// is a hit when the row's lane kind and value equal its tag. A string
// equals only itself, so a string tag's payload is the group's key.
type laneTag struct {
	kind types.Kind
	i    int64 // the int, date or bool payload, or the float's bits
}

// floatsEqual is types.Compare equality: -0.0 equals +0.0, NaN equals NaN.
func floatsEqual(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }

// resolveGroups fills a.rowStates with the group state of each row, creating
// groups as they first appear, and returns the number of rows resolved.
//
// A row whose cache slot holds its key is resolved without hashing. Only a
// miss, a NULL key or a mixed lane takes resolveRow, which computes the row
// loop's hash and probes a.groups. The table stays keyed by that hash
// because the row loop, the spill routing and the re-aggregation pass share
// it; an int 3 therefore still finds a float 3.0 group, through a miss.
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
	if a.cache == nil {
		a.cache = new([groupCacheSlots]*aggState)
	}
	v := &b.Cols[a.keyPos[0]]
	if len(a.keyPos) > 1 || v.Mixed || len(v.Nulls) > 0 {
		return a.resolveKeys(b, states, ctx)
	}
	// One key on a typed lane without NULLs: a hit is checked against the
	// group's tag, in one loop per lane type.
	kind, sel, cache := v.Kind, b.Sel, a.cache
	switch kind {
	case types.KindInt, types.KindDate, types.KindBool:
		lane := v.Ints[v.Base:]
		for k := range states {
			i := selRow(sel, k)
			x := lane[i]
			slot := &cache[cacheSlot(uint64(x))]
			if st := *slot; st != nil && st.tag.kind == kind && st.tag.i == x {
				states[k] = st
				continue
			}
			h := types.HashInt64(types.HashSeed, x)
			if kind == types.KindBool {
				h = types.HashBool(types.HashSeed, x)
			}
			st, err := a.resolveRow(h, b.Cols, i, ctx)
			if err != nil || st == nil {
				return k, err
			}
			st.tag, *slot, states[k] = laneTag{kind: kind, i: x}, st, st
		}
	case types.KindFloat:
		lane := v.Flts[v.Base:]
		for k := range states {
			i := selRow(sel, k)
			x := lane[i]
			slot := &cache[cacheSlot(math.Float64bits(x))]
			if st := *slot; st != nil && st.tag.kind == kind && floatsEqual(math.Float64frombits(uint64(st.tag.i)), x) {
				states[k] = st
				continue
			}
			st, err := a.resolveRow(types.HashFloat64(types.HashSeed, x), b.Cols, i, ctx)
			if err != nil || st == nil {
				return k, err
			}
			st.tag, *slot, states[k] = laneTag{kind: kind, i: int64(math.Float64bits(x))}, st, st
		}
	case types.KindString:
		lane := v.Strs[v.Base:]
		for k := range states {
			i := selRow(sel, k)
			x := lane[i]
			slot := &cache[cacheSlot(strBits(x))]
			if st := *slot; st != nil && st.tag.kind == kind && st.groupVals[0].Str() == x {
				states[k] = st
				continue
			}
			st, err := a.resolveRow(types.HashString(types.HashSeed, x), b.Cols, i, ctx)
			if err != nil || st == nil {
				return k, err
			}
			st.tag, *slot, states[k] = laneTag{kind: kind}, st, st
		}
	default: // declared-NULL lane: every row is the NULL group
		return a.resolveKeys(b, states, ctx)
	}
	return n, nil
}

// resolveKeys is resolveGroups for two or more keys, and for one key on a
// lane with NULLs or a mixed lane. A cache hit is checked with keysEqual; a
// row with a NULL key or a key on a mixed lane bypasses the cache. The
// cache is shared with the one-key loops, which check a hit against the
// group's tag instead: every tag, wherever its group is cached, holds a
// value equal to the group's key.
func (a *hashAggOp) resolveKeys(b *Batch, states []*aggState, ctx *Ctx) (int, error) {
	for k := range states {
		i := selRow(b.Sel, k)
		slot, cached := a.keySlot(b.Cols, i)
		if cached {
			if st := a.cache[slot]; st != nil && a.keysEqual(st, b.Cols, i) {
				states[k] = st
				continue
			}
		}
		st, err := a.resolveRow(a.rowHash(b.Cols, i), b.Cols, i, ctx)
		if err != nil || st == nil {
			return k, err
		}
		states[k] = st
		if cached {
			a.cache[slot] = st
		}
	}
	return len(states), nil
}

// keySlot mixes the key values of window row i into a group-cache slot,
// folding each key's bits in with the FNV prime; one key gets the slot the
// one-key loops use. It reports false when a key is NULL or on a mixed lane.
func (a *hashAggOp) keySlot(cols []vec.View, i int) (int, bool) {
	var x uint64
	for _, p := range a.keyPos {
		v := &cols[p]
		if v.Mixed || v.Null(i) {
			return 0, false
		}
		ri := v.Base + i
		switch v.Kind {
		case types.KindInt, types.KindDate, types.KindBool:
			x = x*0x100000001b3 + uint64(v.Ints[ri])
		case types.KindFloat:
			x = x*0x100000001b3 + math.Float64bits(v.Flts[ri])
		case types.KindString:
			x = x*0x100000001b3 + strBits(v.Strs[ri])
		default: // declared-NULL lane
			return 0, false
		}
	}
	return cacheSlot(x), true
}

// rowHash hashes the keys of window row i as the row loop does.
func (a *hashAggOp) rowHash(cols []vec.View, i int) uint64 {
	h := types.HashSeed
	for _, p := range a.keyPos {
		h = types.HashDatum(h, cols[p].Datum(i))
	}
	return h
}

// resolveRow resolves window row i, whose keys hash to h (rowHash), through
// the group table: it finds the group or admits a new one. A nil state
// without an error means the group was denied memory.
func (a *hashAggOp) resolveRow(h uint64, cols []vec.View, i int, ctx *Ctx) (*aggState, error) {
	a.hashedRows++
	for _, cand := range a.groups[h] {
		if a.keysEqual(cand, cols, i) {
			return cand, nil
		}
	}
	for j, p := range a.keyPos {
		a.keyBuf[j] = cols[p].Datum(i)
	}
	return a.admit(h, a.keyBuf, ctx, false)
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
