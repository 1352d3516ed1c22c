package exec

import (
	"math"
	"math/bits"

	"partopt/internal/plan"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// The fold loops of hashAggOp. Every batch's group keys and aggregate
// inputs arrive as lanes (keyLanes). The group of every row is resolved
// first (from a small cache keyed by the key values, hashing only the rows
// it misses), then each aggregate runs one tight loop over its input lane.
// For COUNT, and for SUM and AVG over an int or float lane, no datum is
// built. What each aggregate means is still decided by aggAcc (hashagg.go);
// the loops here only choose how the input value is read.

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

// resolveGroups returns the group state of each row of the batch whose keys
// a.keys holds, creating groups as they first appear; a scalar aggregate's
// one group comes from scalarState.
//
// A row whose cache slot holds its key is resolved without hashing. Only a
// miss, a NULL key or a mixed lane takes resolveRow, which computes the
// types.HashDatum chain over the keys and probes a.groups. The table stays
// keyed by that hash because the spill routing and the re-aggregation pass
// share it; an int 3 therefore still finds a float 3.0 group, through a
// miss. A row whose group cannot be resident resolves to a.sink.
func (a *hashAggOp) resolveGroups(b *Batch, ctx *Ctx, hard bool) ([]*aggState, error) {
	n := b.Len()
	if cap(a.rowStates) < n {
		a.rowStates = make([]*aggState, n)
	}
	states := a.rowStates[:n]
	if len(a.keys.cols) == 0 {
		st, err := a.scalarState(b, ctx, hard)
		if err != nil {
			return nil, err
		}
		for k := range states {
			states[k] = st
		}
		return states, nil
	}
	if a.cache == nil {
		a.cache = new([groupCacheSlots]*aggState)
	}
	key := &a.keys.cols[0]
	v := key.view
	if len(a.keys.cols) > 1 || v.Mixed || len(v.Nulls) > 0 {
		return a.resolveKeys(b, states, ctx, hard)
	}
	// One key on a typed lane without NULLs: a hit is checked against the
	// group's tag, in one loop per lane type. The sink is never cached.
	kind, sel, cache := v.Kind, key.sel, a.cache
	switch kind {
	case types.KindInt, types.KindDate, types.KindBool:
		lane := v.Ints[v.Base:]
		for k := range states {
			x := lane[selRow(sel, k)]
			slot := &cache[cacheSlot(uint64(x))]
			if st := *slot; st != nil && st.tag.kind == kind && st.tag.i == x {
				states[k] = st
				continue
			}
			h := types.HashInt64(types.HashSeed, x)
			if kind == types.KindBool {
				h = types.HashBool(types.HashSeed, x)
			}
			st, err := a.resolveRow(h, b, k, ctx, hard)
			if err != nil {
				return nil, err
			}
			if states[k] = st; st != a.sink {
				st.tag, *slot = laneTag{kind: kind, i: x}, st
			}
		}
	case types.KindFloat:
		lane := v.Flts[v.Base:]
		for k := range states {
			x := lane[selRow(sel, k)]
			slot := &cache[cacheSlot(math.Float64bits(x))]
			if st := *slot; st != nil && st.tag.kind == kind && floatsEqual(math.Float64frombits(uint64(st.tag.i)), x) {
				states[k] = st
				continue
			}
			st, err := a.resolveRow(types.HashFloat64(types.HashSeed, x), b, k, ctx, hard)
			if err != nil {
				return nil, err
			}
			if states[k] = st; st != a.sink {
				st.tag, *slot = laneTag{kind: kind, i: int64(math.Float64bits(x))}, st
			}
		}
	case types.KindString:
		lane := v.Strs[v.Base:]
		for k := range states {
			x := lane[selRow(sel, k)]
			slot := &cache[cacheSlot(strBits(x))]
			if st := *slot; st != nil && st.tag.kind == kind && st.groupVals[0].Str() == x {
				states[k] = st
				continue
			}
			st, err := a.resolveRow(types.HashString(types.HashSeed, x), b, k, ctx, hard)
			if err != nil {
				return nil, err
			}
			if states[k] = st; st != a.sink {
				st.tag, *slot = laneTag{kind: kind}, st
			}
		}
	default: // declared-NULL lane: every row is the NULL group
		return a.resolveKeys(b, states, ctx, hard)
	}
	return states, nil
}

// resolveKeys is resolveGroups for two or more keys, and for one key on a
// lane with NULLs or a mixed lane. A cache hit is checked with keysEqual; a
// row with a NULL key or a key on a mixed lane bypasses the cache. The
// cache is shared with the one-key loops, which check a hit against the
// group's tag instead: every tag, wherever its group is cached, holds a
// value equal to the group's key.
func (a *hashAggOp) resolveKeys(b *Batch, states []*aggState, ctx *Ctx, hard bool) ([]*aggState, error) {
	for k := range states {
		slot, cached := a.keySlot(k)
		if cached {
			if st := a.cache[slot]; st != nil && a.keysEqual(st, k) {
				states[k] = st
				continue
			}
		}
		st, err := a.resolveRow(a.rowHash(k), b, k, ctx, hard)
		if err != nil {
			return nil, err
		}
		states[k] = st
		if cached && st != a.sink {
			a.cache[slot] = st
		}
	}
	return states, nil
}

// keySlot mixes the key values of slot k into a group-cache slot, folding
// each key's bits in with the FNV prime; one key gets the slot the one-key
// loops use. It reports false when a key is NULL or on a mixed lane.
func (a *hashAggOp) keySlot(k int) (int, bool) {
	var x uint64
	for j := range a.keys.cols {
		c := &a.keys.cols[j]
		v, i := c.view, selRow(c.sel, k)
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

// keyDatum returns key j of slot k.
func (a *hashAggOp) keyDatum(j, k int) types.Datum {
	c := &a.keys.cols[j]
	return c.view.Datum(selRow(c.sel, k))
}

// rowHash is the types.HashDatum chain over the keys of slot k.
func (a *hashAggOp) rowHash(k int) uint64 {
	h := types.HashSeed
	for j := range a.keys.cols {
		h = types.HashDatum(h, a.keyDatum(j, k))
	}
	return h
}

// resolveRow resolves slot k of batch b, whose keys hash to h (rowHash),
// through the group table: it finds the group or admits a new one. When
// the group cannot be resident, the row is written raw to its spill
// partition and resolves to a.sink, whose accumulators are thrown away.
func (a *hashAggOp) resolveRow(h uint64, b *Batch, k int, ctx *Ctx, hard bool) (*aggState, error) {
	a.hashedRows++
	for _, cand := range a.groups[h] {
		if a.keysEqual(cand, k) {
			return cand, nil
		}
	}
	for j := range a.keyBuf {
		a.keyBuf[j] = a.keyDatum(j, k)
	}
	st, err := a.admit(h, a.keyBuf, ctx, hard)
	if err != nil || st != nil {
		return st, err
	}
	return a.sink, a.parts[h%spillFanout].Write(batchRow(b, k, &a.row))
}

// keysEqual compares a group's key values with slot k of the key lanes,
// under the grouping rule (NULLs are equal to each other).
func (a *hashAggOp) keysEqual(st *aggState, k int) bool {
	for j := range a.keys.cols {
		c := &a.keys.cols[j]
		if !c.view.EqualDatum(selRow(c.sel, k), st.groupVals[j]) {
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
	case (kind == plan.AggSum || kind == plan.AggAvg) && !v.Mixed && v.Kind == types.KindInt:
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
	case (kind == plan.AggSum || kind == plan.AggAvg) && !v.Mixed && v.Kind == types.KindFloat:
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
	default: // MIN/MAX, and SUM/AVG over a mixed or non-numeric lane (a date)
		for k, st := range states {
			if i := selRow(sel, k); !nullable || !v.Null(i) {
				st.acc[ai].fold(kind, v.Datum(i))
			}
		}
	}
}

// foldInto folds one aggregate's input lane, n slots under sel, into a,
// the state every slot belongs to. COUNT and SUM/AVG over an int or float
// lane run in locals and store once: an int sum stays in int64 until the
// row that overflows it, which goes on in float exactly as addInt does,
// and a float sum starts from a's running sum and adds in row order, so the
// result is bit-identical to folding row by row. MIN/MAX and SUM/AVG over a
// mixed or date lane fold row by row through fold.
func (a *aggAcc) foldInto(kind plan.AggKind, v *vec.View, sel []int32, n int) {
	nullable := v.Mixed || len(v.Nulls) > 0
	sum := kind == plan.AggSum || kind == plan.AggAvg
	switch {
	case v.Kind == types.KindNull && !v.Mixed:
		// Declared-NULL lane: nothing to fold.
	case kind == plan.AggCount:
		cnt := int64(n)
		for k := 0; nullable && k < n; k++ {
			cnt -= int64(b2i(v.Null(selRow(sel, k))))
		}
		a.count += cnt
	case sum && !v.Mixed && v.Kind == types.KindInt:
		lane, k := v.Ints[v.Base:], 0
		if !a.isFloat {
			s, cnt := a.isum, int64(0)
			for ; k < n; k++ {
				i := selRow(sel, k)
				if nullable && v.Null(i) {
					continue
				}
				t := s + lane[i]
				if (t < s) != (lane[i] < 0) {
					break // overflow: this row goes on in float
				}
				s, cnt = t, cnt+1
			}
			a.isum, a.count = s, a.count+cnt
		}
		for ; k < n; k++ {
			if i := selRow(sel, k); !nullable || !v.Null(i) {
				a.addInt(lane[i])
				a.count++
			}
		}
	case sum && !v.Mixed && v.Kind == types.KindFloat:
		lane, s, cnt := v.Flts[v.Base:], a.fsum, int64(0)
		if !a.isFloat {
			s = float64(a.isum)
		}
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			if nullable && v.Null(i) {
				continue
			}
			s += lane[i]
			cnt++
		}
		if cnt > 0 {
			a.fsum, a.isFloat, a.count = s, true, a.count+cnt
		}
	default: // MIN/MAX, and SUM/AVG over a mixed or non-numeric lane (a date)
		for k := 0; k < n; k++ {
			if i := selRow(sel, k); !nullable || !v.Null(i) {
				a.fold(kind, v.Datum(i))
			}
		}
	}
}

// combineLanes folds one aggregate's state lanes — a Partial stage's
// StateWidth columns for it, as emitState wrote them — into the per-row
// group states of a Final stage.
func combineLanes(states []*aggState, ai int, kind plan.AggKind, cols []keyCol) {
	var s1 types.Datum
	for k, st := range states {
		c := &cols[0]
		s0 := c.view.Datum(selRow(c.sel, k))
		if len(cols) > 1 {
			c = &cols[1]
			s1 = c.view.Datum(selRow(c.sel, k))
		}
		st.acc[ai].combine(kind, s0, s1)
	}
}
