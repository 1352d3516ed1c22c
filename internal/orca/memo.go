package orca

import (
	"fmt"

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
	bk, pk, res := splitJoinPred(op.Pred, build.rels, probe.rels)
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
	best   map[string]*result // request key → winner; nil while being computed
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
}

// optimize resolves one (group, request) pair, memoized per group. A key is
// marked in progress (a nil result) while its candidates are computed, and
// re-entry returns invalidResult: a cyclic alternative proposed the group it
// is computing as its own subplan. Termination: every nested call strictly
// decreases (group height in the memo DAG, spec count, dist != Any).
func (m *memo) optimize(g *group, req request) *result {
	key := req.key()
	if r, ok := g.best[key]; ok {
		if r == nil {
			return invalidResult
		}
		return r
	}
	g.best[key] = nil
	res := m.compute(g, req)
	g.best[key] = res
	m.entries++
	return res
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
	g := &group{id: len(m.groups), rels: rels, best: map[string]*result{}}
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
