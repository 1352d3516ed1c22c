package orca

import (
	"fmt"
	"math/bits"
	"slices"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/plan"
)

// The Memo structure (paper Fig. 13): groups of logically equivalent
// expressions, each expression an operator over child groups.

// lexpr is one logical group expression.
type lexpr struct {
	op       logical.Node // operator payload; children ignored (groups below)
	children []*group
	join     *joinInfo // precomputed predicate split for Join operators
}

// joinInfo is the request-independent part of a join expression, computed
// once at insert time instead of on every memoized optimization request:
// the equi-key/residual split of the predicate (oriented build→probe) and
// the plain-column projection of the keys.
type joinInfo struct {
	buildKeys, probeKeys []expr.Expr
	residual             expr.Expr
	bCols, pCols         []expr.ColID
	bOK, pOK             bool
}

// newJoinLexpr builds a join group expression with children[0] as the build
// side, precomputing the predicate split for that orientation.
func newJoinLexpr(op *logical.Join, build, probe *group) *lexpr {
	bk, pk, res := expr.SplitJoinPred(op.Pred, build.rels, probe.rels)
	ji := &joinInfo{buildKeys: bk, probeKeys: pk, residual: res}
	ji.bCols, ji.bOK = keyCols(bk)
	ji.pCols, ji.pOK = keyCols(pk)
	return &lexpr{op: op, children: []*group{build, probe}, join: ji}
}

// group is one equivalence class. Groups are created during insert (before
// the search starts) and immutable afterwards except for best, the memoized
// result per request.
type group struct {
	id     int
	lexprs []*lexpr
	rels   map[int]bool
	best   map[uint64]*bestEntry // request hash → entries; see memo.entry
}

// bestEntry memoizes one request of a group: the request's full identity,
// compared on every hit, and its winner (nil while being computed). Entries
// whose requests hash alike are chained through next.
type bestEntry struct {
	dist  DistSpec
	specs []int32 // interned spec ids, stable-sorted by ScanRel
	res   *result
	next  *bestEntry
}

// result is the best plan found for one (group, request) pair.
type result struct {
	valid     bool
	cost      float64
	rows      float64
	delivered DistSpec
	node      plan.Node
}

var invalidResult = &result{}

// memo holds the search state of one optimization run, owned by the one
// goroutine that runs it. The zero value (with o set) is ready to use.
type memo struct {
	o       *Optimizer
	groups  []*group
	tables  map[int]*catalog.Table // relation instance → base table (for stats)
	entries int                    // (group, request) results computed

	// The spec interner: rendered spec key → id, and each id's ScanRel.
	specIDs  map[string]int32
	specRels []int
}

// optimize resolves one (group, request) pair, memoized per group. An entry
// is marked in progress (a nil result) while its candidates are computed,
// and re-entry returns invalidResult: a cyclic alternative proposed the
// group it is computing as its own subplan. Termination: every nested call
// strictly decreases (group height in the memo DAG, spec count, dist != Any).
func (m *memo) optimize(g *group, req request) *result {
	e, hit := m.entry(g, req)
	if hit {
		if e.res == nil {
			return invalidResult
		}
		return e.res
	}
	res := m.compute(g, req)
	e.res = res
	m.entries++
	return res
}

// entry finds the group's entry for a request, or adds an empty one. Two
// requests share an entry exactly when their distributions are equal (kind,
// and the columns in order if hashed) and their spec ids, stable-sorted by
// ScanRel, are equal in order. A hit costs one map probe and no allocation,
// once each spec has been interned.
func (m *memo) entry(g *group, req request) (*bestEntry, bool) {
	var buf [16]int32
	ids := m.specKey(req.specs, buf[:0])
	h := requestHash(req.dist, ids)
	if e := g.lookup(h, req.dist, ids); e != nil {
		return e, true
	}
	return g.add(h, req.dist, ids), false
}

// specID interns a spec by its rendered key. The id is cached on the spec
// for this memo only; a spec first seen by another memo is interned afresh.
func (m *memo) specID(s *SpecReq) int32 {
	if s.owner == m {
		return s.id
	}
	k := s.key()
	id, ok := m.specIDs[k]
	if !ok {
		if m.specIDs == nil {
			m.specIDs = map[string]int32{}
		}
		id = int32(len(m.specRels))
		m.specIDs[k] = id
		m.specRels = append(m.specRels, s.ScanRel)
	}
	s.owner, s.id = m, id
	return id
}

// specKey appends the specs' ids to dst in a stable sort by ScanRel, so
// that the order a request lists its specs in only matters between specs of
// the same scan.
func (m *memo) specKey(specs []*SpecReq, dst []int32) []int32 {
	for _, s := range specs {
		id := m.specID(s)
		dst = append(dst, id)
		j := len(dst) - 1
		for ; j > 0 && m.specRels[dst[j-1]] > s.ScanRel; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = id
	}
	return dst
}

// requestHash folds a request's distribution and spec ids into a map key,
// one 128-bit multiply per word. Distinct requests may collide; lookup
// compares the full identity.
func requestHash(d DistSpec, ids []int32) uint64 {
	h := uint64(d.Kind)
	if d.Kind == HashedDist {
		h = fold(h, uint64(len(d.Cols)))
		for _, c := range d.Cols {
			h = fold(h, uint64(uint32(c.Rel))<<32|uint64(uint32(c.Ord)))
		}
	}
	h = fold(h, uint64(len(ids)))
	for _, id := range ids {
		h = fold(h, uint64(uint32(id)))
	}
	return h
}

// fold mixes one word into a hash: the two halves of the 128-bit product of
// (h ^ v) and an odd constant, xored.
func fold(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^v, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// lookup returns the entry with hash h and exactly this identity, or nil.
func (g *group) lookup(h uint64, d DistSpec, ids []int32) *bestEntry {
	for e := g.best[h]; e != nil; e = e.next {
		if e.dist.Kind == d.Kind && slices.Equal(e.specs, ids) &&
			(d.Kind != HashedDist || slices.Equal(e.dist.Cols, d.Cols)) {
			return e
		}
	}
	return nil
}

// add chains a new in-progress entry under hash h. It copies ids, the
// caller's scratch space; a distribution's columns are never mutated once
// built, so the entry shares them as results do.
func (g *group) add(h uint64, d DistSpec, ids []int32) *bestEntry {
	e := &bestEntry{dist: d, specs: slices.Clone(ids), next: g.best[h]}
	g.best[h] = e
	return e
}

func (m *memo) noteTable(rel int, t *catalog.Table) {
	if m.tables == nil {
		m.tables = map[int]*catalog.Table{}
	}
	m.tables[rel] = t
}

// colStats returns the collected statistics of a column, or nil.
func (m *memo) colStats(id expr.ColID) *catalog.ColumnStats {
	t := m.tables[id.Rel]
	if t == nil || t.Stats == nil || id.Ord < 0 || id.Ord >= len(t.Stats.Cols) {
		return nil
	}
	return &t.Stats.Cols[id.Ord]
}

func (m *memo) newGroup(rels map[int]bool) *group {
	g := &group{id: len(m.groups), rels: rels, best: map[uint64]*bestEntry{}}
	m.groups = append(m.groups, g)
	return g
}

// insert copies a logical tree into the memo, creating one group per node,
// and applies the join-commutativity transformation: every inner-join group
// also holds the swapped expression (HashJoin[2,1] alongside HashJoin[1,2]
// in the paper's Fig. 13).
func (m *memo) insert(n logical.Node) (*group, error) {
	switch x := n.(type) {
	case *logical.Get:
		g := m.newGroup(x.Rels())
		g.lexprs = append(g.lexprs, &lexpr{op: x})
		m.noteTable(x.Rel, x.Table)
		return g, nil
	case *logical.Select:
		child, err := m.insert(x.Child)
		if err != nil {
			return nil, err
		}
		g := m.newGroup(x.Rels())
		g.lexprs = append(g.lexprs, &lexpr{op: x, children: []*group{child}})
		return g, nil
	case *logical.Project:
		child, err := m.insert(x.Child)
		if err != nil {
			return nil, err
		}
		g := m.newGroup(x.Rels())
		g.lexprs = append(g.lexprs, &lexpr{op: x, children: []*group{child}})
		return g, nil
	case *logical.GroupBy:
		child, err := m.insert(x.Child)
		if err != nil {
			return nil, err
		}
		g := m.newGroup(x.Rels())
		g.lexprs = append(g.lexprs, &lexpr{op: x, children: []*group{child}})
		return g, nil
	case *logical.Join:
		if x.Type == plan.InnerJoin {
			// Maximal inner-join cores go through the join-order enumerator
			// (enum.go): DP over connected subgraphs, or greedy above the
			// DP cutoff. Shapes it cannot represent fall back to the
			// as-written pairwise insertion.
			return m.insertInnerCore(x)
		}
		return m.insertJoinPairwise(x)
	default:
		return nil, fmt.Errorf("orca: unsupported logical operator %T in memo", n)
	}
}

// insertJoinPairwise copies one join node as written: a single group whose
// expressions are the two child orders (join commutativity; the paper's
// HashJoin[2,1] alongside HashJoin[1,2] in Fig. 13).
func (m *memo) insertJoinPairwise(x *logical.Join) (*group, error) {
	left, err := m.insert(x.Left)
	if err != nil {
		return nil, err
	}
	right, err := m.insert(x.Right)
	if err != nil {
		return nil, err
	}
	g := m.newGroup(x.Rels())
	g.lexprs = append(g.lexprs, newJoinLexpr(x, left, right))
	if x.Type == plan.InnerJoin {
		// Join commutativity: the swapped child order is a distinct
		// physical opportunity (build side executes first).
		g.lexprs = append(g.lexprs, newJoinLexpr(x, right, left))
	} else if x.Type.Outer() {
		// Outer joins commute too, but the preserved side travels with
		// the swap: A LEFT JOIN B ≡ B RIGHT JOIN A. The flipped copy
		// keeps the predicate; child order lives in the group list.
		flipped := &logical.Join{Type: x.Type.Flip(), Pred: x.Pred, Left: x.Right, Right: x.Left}
		g.lexprs = append(g.lexprs, newJoinLexpr(flipped, right, left))
	}
	return g, nil
}

// collectSpecs builds the initial partition-propagation specs of the root
// request: one per partitioned Get in the tree (the paper's initial request
// "{Any, <0, R.pk, φ>}").
func collectSpecs(n logical.Node) []*SpecReq {
	var out []*SpecReq
	var walk func(logical.Node)
	walk = func(n logical.Node) {
		if g, ok := n.(*logical.Get); ok && g.Table.IsPartitioned() {
			ords := g.Table.Part.KeyOrds()
			keys := make([]expr.ColID, len(ords))
			for i, ord := range ords {
				keys[i] = expr.ColID{Rel: g.Rel, Ord: ord}
			}
			out = append(out, &SpecReq{
				ScanRel: g.Rel,
				Table:   g.Table,
				Keys:    keys,
				Preds:   make([]expr.Expr, len(ords)),
			})
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// scanGroupFor reports whether g is the leaf group of the spec's own
// DynamicScan.
func scanGroupFor(g *group, spec *SpecReq) bool {
	for _, le := range g.lexprs {
		if get, ok := le.op.(*logical.Get); ok && get.Rel == spec.ScanRel {
			return true
		}
	}
	return false
}
