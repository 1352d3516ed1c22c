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
// first, into a vector of group ids (from a direct table for a small int
// key, or a small cache keyed by the key values, hashing only the rows they
// miss); then each aggregate runs one tight loop over its input lane into
// its state lanes (stateLanes), indexed by the row's group id. For COUNT,
// and for SUM and AVG over a float lane, no datum is built and no aggAcc
// either: the loops repeat addFloat's rule on the lanes. Everything else
// still folds through aggAcc (hashagg.go), which decides what each
// aggregate means.

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

// resolveGroups returns the group id of each row of the batch whose keys
// a.keys holds, creating groups as they first appear; a scalar aggregate's
// one group comes from scalarGroup.
//
// One key on a NULL-free int or date lane resolves through the direct
// table (resolveDirect) when it lies inside the table. Otherwise a row
// whose cache slot holds its key is
// resolved without hashing. Only a miss, a NULL key or a mixed lane takes
// resolveRow, which computes the types.HashDatum chain over the keys and
// probes a.groups. The table stays keyed by that hash because the spill
// routing and the re-aggregation pass share it; an int 3 therefore still
// finds a float 3.0 group, through a miss. A row whose group cannot be
// resident resolves to a.sink, which is never cached.
func (a *hashAggOp) resolveGroups(b *Batch, ctx *Ctx, hard bool) ([]int32, error) {
	n := b.Len()
	if cap(a.ids) < n {
		a.ids = make([]int32, n)
	}
	ids := a.ids[:n]
	if len(a.keys.cols) == 0 {
		g, err := a.scalarGroup(b, ctx, hard)
		for k := range ids {
			ids[k] = g
		}
		return ids, err
	}
	if a.cache == nil {
		a.cache = new([groupCacheSlots]int32)
		for i := range a.cache {
			a.cache[i] = noGroup
		}
	}
	key := &a.keys.cols[0]
	v := key.view
	if len(a.keys.cols) > 1 || v.Mixed || len(v.Nulls) > 0 {
		return ids, a.resolveKeys(b, ids, ctx, hard)
	}
	// One key on a typed lane without NULLs: an int or date key goes
	// through the direct table; a hit in the cache is checked against the
	// group's tag, in one loop per lane type.
	kind, sel, cache := v.Kind, key.sel, a.cache
	switch kind {
	case types.KindInt, types.KindDate:
		return ids, a.resolveDirect(b, ids, v.Ints[v.Base:], sel, kind, ctx, hard)
	case types.KindBool: // bool 1 is not int 1: no direct table
		lane := v.Ints[v.Base:]
		for k := range ids {
			x := lane[selRow(sel, k)]
			slot := &cache[cacheSlot(uint64(x))]
			if g := *slot; g != noGroup && a.tags[g] == (laneTag{kind: kind, i: x}) {
				ids[k] = g
				continue
			}
			g, err := a.resolveRow(types.HashBool(types.HashSeed, x), b, k, ctx, hard)
			if err != nil {
				return ids, err
			}
			if ids[k] = g; g != a.sink {
				a.tags[g], *slot = laneTag{kind: kind, i: x}, g
			}
		}
	case types.KindFloat:
		lane := v.Flts[v.Base:]
		for k := range ids {
			x := lane[selRow(sel, k)]
			slot := &cache[cacheSlot(math.Float64bits(x))]
			if g := *slot; g != noGroup && a.tags[g].kind == kind && floatsEqual(math.Float64frombits(uint64(a.tags[g].i)), x) {
				ids[k] = g
				continue
			}
			g, err := a.resolveRow(types.HashFloat64(types.HashSeed, x), b, k, ctx, hard)
			if err != nil {
				return ids, err
			}
			if ids[k] = g; g != a.sink {
				a.tags[g], *slot = laneTag{kind: kind, i: int64(math.Float64bits(x))}, g
			}
		}
	case types.KindString:
		lane := v.Strs[v.Base:]
		for k := range ids {
			x := lane[selRow(sel, k)]
			slot := &cache[cacheSlot(strBits(x))]
			if g := *slot; g != noGroup && a.tags[g].kind == kind && a.keyVals[g][0].Str() == x {
				ids[k] = g
				continue
			}
			g, err := a.resolveRow(types.HashString(types.HashSeed, x), b, k, ctx, hard)
			if err != nil {
				return ids, err
			}
			if ids[k] = g; g != a.sink {
				a.tags[g], *slot = laneTag{kind: kind}, g
			}
		}
	default: // declared-NULL lane: every row is the NULL group
		return ids, a.resolveKeys(b, ids, ctx, hard)
	}
	return ids, nil
}

// The direct table: for one key on a NULL-free int or date lane, the group
// of key x is direct[x − directLo], found with no hash and no cache probe.
// The table has directSize entries, placed around the first key the
// operator sees; a key outside it resolves through the group cache. Int
// and date share the table, because types.Compare makes date 5 equal int
// 5; bool never uses it. Offsets wrap in int64, so a table placed near
// math.MinInt64 or math.MaxInt64 still gives each entry one value.
const directSize = 64

// resolveDirect resolves the slots of a one-key int or date batch, whose
// key lane is lane under sel, through the direct table.
func (a *hashAggOp) resolveDirect(b *Batch, ids []int32, lane []int64, sel []int32, kind types.Kind, ctx *Ctx, hard bool) error {
	if a.direct == nil && len(ids) > 0 {
		a.direct, a.directLo = new([directSize]int32), lane[selRow(sel, 0)]-directSize/2
		for i := range a.direct {
			a.direct[i] = noGroup
		}
	}
	direct, lo := a.direct, a.directLo
	if sel == nil {
		for k, x := range lane[:len(ids)] {
			if u := uint64(x - lo); u < directSize && direct[u] != noGroup {
				ids[k] = direct[u]
				continue
			}
			g, err := a.directMiss(b, k, x, kind, ctx, hard)
			if err != nil {
				return err
			}
			ids[k] = g
		}
		return nil
	}
	for k, i := range sel {
		x := lane[i]
		if u := uint64(x - lo); u < directSize && direct[u] != noGroup {
			ids[k] = direct[u]
			continue
		}
		g, err := a.directMiss(b, k, x, kind, ctx, hard)
		if err != nil {
			return err
		}
		ids[k] = g
	}
	return nil
}

// directMiss resolves slot k, whose key x has no group in the direct
// table: through resolveRow, entering the group in the table, when x lies
// inside the table, and through the group cache when it does not.
func (a *hashAggOp) directMiss(b *Batch, k int, x int64, kind types.Kind, ctx *Ctx, hard bool) (int32, error) {
	if u := uint64(x - a.directLo); u < directSize {
		g, err := a.resolveRow(types.HashInt64(types.HashSeed, x), b, k, ctx, hard)
		if err == nil && g != a.sink {
			a.direct[u] = g
		}
		return g, err
	}
	slot := &a.cache[cacheSlot(uint64(x))]
	if g := *slot; g != noGroup && a.tags[g] == (laneTag{kind: kind, i: x}) {
		return g, nil
	}
	g, err := a.resolveRow(types.HashInt64(types.HashSeed, x), b, k, ctx, hard)
	if err == nil && g != a.sink {
		a.tags[g], *slot = laneTag{kind: kind, i: x}, g
	}
	return g, err
}

// resolveKeys is resolveGroups for two or more keys, and for one key on a
// lane with NULLs or a mixed lane. A cache hit is checked with keysEqual; a
// row with a NULL key or a key on a mixed lane bypasses the cache. The
// cache is shared with the one-key loops, which check a hit against the
// group's tag instead: every tag, wherever its group is cached, holds a
// value equal to the group's key.
func (a *hashAggOp) resolveKeys(b *Batch, ids []int32, ctx *Ctx, hard bool) error {
	for k := range ids {
		slot, cached := a.keySlot(k)
		if cached {
			if g := a.cache[slot]; g != noGroup && a.keysEqual(a.keyVals[g], k) {
				ids[k] = g
				continue
			}
		}
		g, err := a.resolveRow(a.rowHash(k), b, k, ctx, hard)
		if err != nil {
			return err
		}
		ids[k] = g
		if cached && g != a.sink {
			a.cache[slot] = g
		}
	}
	return nil
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
// partition and resolves to a.sink, whose state is thrown away.
func (a *hashAggOp) resolveRow(h uint64, b *Batch, k int, ctx *Ctx, hard bool) (int32, error) {
	a.hashedRows++
	for _, g := range a.groups[h] {
		if a.keysEqual(a.keyVals[g], k) {
			return g, nil
		}
	}
	for j := range a.keyBuf {
		a.keyBuf[j] = a.keyDatum(j, k)
	}
	g, err := a.admit(h, a.keyBuf, ctx, hard)
	if err != nil || g != noGroup {
		return g, err
	}
	return a.sink, a.parts[h%spillFanout].Write(batchRow(b, k, &a.row))
}

// keysEqual compares a group's key values with slot k of the key lanes,
// under the grouping rule (NULLs are equal to each other).
func (a *hashAggOp) keysEqual(vals types.Row, k int) bool {
	for j := range a.keys.cols {
		c := &a.keys.cols[j]
		if !c.view.EqualDatum(selRow(c.sel, k), vals[j]) {
			return false
		}
	}
	return true
}

// countRows is COUNT(*): every slot counts once in its group.
func (l *stateLanes) countRows(ids []int32) {
	counts := l.counts
	for _, g := range ids {
		counts[g]++
	}
}

// foldLane folds one aggregate's input lane into its state lanes, slot k
// into group ids[k], in slot order. COUNT and SUM/AVG over a float lane
// run on the lanes; a float SUM/AVG over a NULL-free lane runs one loop
// over the window when there is no selection vector and one over the
// vector's rows when there is. MIN/MAX and SUM/AVG over an int, mixed or
// date lane fold each row through aggAcc.fold.
func (l *stateLanes) foldLane(ids []int32, v *vec.View, sel []int32) {
	nullable := v.Mixed || len(v.Nulls) > 0
	sum := l.kind == plan.AggSum || l.kind == plan.AggAvg
	switch {
	case v.Kind == types.KindNull && !v.Mixed:
		// Declared-NULL lane: nothing to fold.
	case l.kind == plan.AggCount:
		if !nullable {
			l.countRows(ids)
			return
		}
		for k, g := range ids {
			if !v.Null(selRow(sel, k)) {
				l.counts[g]++
			}
		}
	case sum && !v.Mixed && v.Kind == types.KindFloat:
		lane := v.Flts[v.Base:]
		if nullable {
			for k, g := range ids {
				if i := selRow(sel, k); !v.Null(i) {
					l.addFloat(g, lane[i])
				}
			}
			return
		}
		if l.intSums > 0 {
			// Every slot adds a float: move each group's sum to float
			// first, as addFloat would at the group's first row here.
			for _, g := range ids {
				l.toFloat(g)
			}
		}
		counts, fsums := l.counts, l.fsums
		if sel == nil {
			for k, x := range lane[:len(ids)] {
				g := ids[k]
				fsums[g] += x
				counts[g]++
			}
			return
		}
		for k, i := range sel {
			g := ids[k]
			fsums[g] += lane[i]
			counts[g]++
		}
	default: // MIN/MAX, and SUM/AVG over an int, mixed or date lane
		for k, g := range ids {
			if i := selRow(sel, k); !nullable || !v.Null(i) {
				a := l.load(g)
				a.fold(l.kind, v.Datum(i))
				l.store(g, &a)
			}
		}
	}
}

// addFloat folds one non-NULL float input into group g under
// aggAcc.addFloat's rule.
func (l *stateLanes) addFloat(g int32, x float64) {
	l.toFloat(g)
	l.fsums[g] += x
	l.counts[g]++
}

// toFloat moves group g's sum to float, from float64(isum), unless it is
// there already.
func (l *stateLanes) toFloat(g int32) {
	if w, bit := g>>6, uint64(1)<<(g&63); l.isFloat[w]&bit == 0 {
		l.fsums[g] = float64(l.isums[g])
		l.isFloat[w] |= bit
		l.intSums--
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

// combine folds one aggregate's state lanes — a Partial stage's
// StateWidth columns for it, as emitState wrote them — into the groups of
// a Final stage, slot k into group ids[k], through aggAcc.combine.
func (l *stateLanes) combine(ids []int32, cols []keyCol) {
	var s1 types.Datum
	for k, g := range ids {
		c := &cols[0]
		s0 := c.view.Datum(selRow(c.sel, k))
		if len(cols) > 1 {
			c = &cols[1]
			s1 = c.view.Datum(selRow(c.sel, k))
		}
		a := l.load(g)
		a.combine(l.kind, s0, s1)
		l.store(g, &a)
	}
}
