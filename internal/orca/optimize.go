package orca

import (
	"fmt"
	"time"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/plan"
)

// DefaultMaxDPLeaves bounds exhaustive join-order enumeration: inner-join
// cores with more leaves fall back to the greedy enumerator (enum.go).
const DefaultMaxDPLeaves = 10

// OptStats reports one Optimize call's search effort. The engine surfaces
// it in EXPLAIN ANALYZE ("optimization: M groups, T ms") and the obs
// registry.
type OptStats struct {
	Groups  int   // memo groups created, enumeration included
	Entries int   // (group, request) results computed
	Nanos   int64 // wall time of the whole Optimize call
}

// Optimizer is the public entry point. One Optimizer value drives one
// Optimize call at a time, on the calling goroutine (Stats is written per
// call); the engine creates a fresh value per compilation.
type Optimizer struct {
	Segments int // cluster width, for motion costing

	// DisableSelection turns partition selection off: selectors are still
	// placed (DynamicScans need producers) but carry no predicates, so
	// every partition is scanned. This is the "partition selection
	// disabled" configuration of the paper's Figure 17 experiment.
	DisableSelection bool

	// DynFraction is the assumed fraction of partitions a join-driven
	// (dynamic) PartitionSelector retains. The true value is only known at
	// run time; this constant is the cost model's estimate (see DESIGN.md
	// ablations).
	DynFraction float64

	// Workers is ignored and read by no code: the memo search is serial
	// (DESIGN.md §16). The field remains only because the frozen
	// benchmark/trace.go still sets it; the next benchmark-typed PR drops
	// it there and here.
	Workers int

	// MaxDPLeaves overrides DefaultMaxDPLeaves when positive.
	MaxDPLeaves int

	// Stats describes the last Optimize call's search effort.
	Stats OptStats
}

func (o *Optimizer) dynFraction() float64 {
	if o.DynFraction > 0 {
		return o.DynFraction
	}
	return 0.15
}

func (o *Optimizer) maxDPLeaves() int {
	if o.MaxDPLeaves > 0 {
		return o.MaxDPLeaves
	}
	return DefaultMaxDPLeaves
}

// noteSearch folds one memo's effort into the per-call stats.
func (o *Optimizer) noteSearch(m *memo) {
	o.Stats.Groups += len(m.groups)
	o.Stats.Entries += m.entries
}

// Optimize turns a logical tree into an executable physical plan whose rows
// arrive on the coordinator. A SELECT is one memo search: the tree below the
// final projection — GroupBy included — is optimized for the Singleton
// distribution, so where the aggregate runs (one stage on the segments,
// split around a Motion, scalar or grouped) is a costed choice like any
// other. Only the presentation Project, and DML Update/Delete, are planned
// above the Memo-optimized core.
func (o *Optimizer) Optimize(root logical.Node) (plan.Node, error) {
	if o.Segments < 1 {
		return nil, fmt.Errorf("orca: optimizer needs a positive segment count")
	}
	start := time.Now()
	o.Stats = OptStats{}
	defer func() { o.Stats.Nanos = time.Since(start).Nanoseconds() }()
	if upd, ok := root.(*logical.Update); ok {
		return o.optimizeDML(upd.Child, upd.Table, upd.Rel, func(child plan.Node) plan.Node {
			return plan.NewUpdate(upd.Table, upd.Rel, upd.Sets, child)
		})
	}
	if del, ok := root.(*logical.Delete); ok {
		return o.optimizeDML(del.Child, del.Table, del.Rel, func(child plan.Node) plan.Node {
			return plan.NewDelete(del.Table, del.Rel, child)
		})
	}

	proj, _ := root.(*logical.Project)
	n := root
	if proj != nil {
		n = proj.Child
	}
	m := &memo{o: o}
	defer o.noteSearch(m)
	g, err := m.insert(n)
	if err != nil {
		return nil, err
	}
	res := m.optimize(g, request{dist: Singleton(), specs: collectSpecs(n)})
	if !res.valid {
		return nil, fmt.Errorf("orca: no valid plan found")
	}
	node := res.node
	if proj != nil {
		node = plan.NewProject(proj.Cols, node)
	}
	return node, nil
}

// optimizeDML plans an update or delete: the target table's rows must stay
// on their segments (no Motion above the target scan), so the child is
// optimized for the target's native distribution first, falling back to
// Any. wrap builds the DML node over the optimized row source.
func (o *Optimizer) optimizeDML(child logical.Node, table *catalog.Table, rel int, wrap func(plan.Node) plan.Node) (plan.Node, error) {
	m := &memo{o: o}
	defer o.noteSearch(m)
	g, err := m.insert(child)
	if err != nil {
		return nil, err
	}
	specs := collectSpecs(child)

	reqs := []request{}
	if table.Dist.Kind == catalog.DistHashed {
		cols := make([]expr.ColID, len(table.Dist.KeyOrds))
		for i, ord := range table.Dist.KeyOrds {
			cols[i] = expr.ColID{Rel: rel, Ord: ord}
		}
		reqs = append(reqs, request{dist: HashedOn(cols...), specs: specs})
	}
	reqs = append(reqs, request{dist: AnySpec(), specs: specs})

	var core *result
	for _, req := range reqs {
		if res := m.optimize(g, req); res.valid {
			core = res
			break
		}
	}
	if core == nil {
		return nil, fmt.Errorf("orca: no valid plan for DML on %s", table.Name)
	}
	markRowID(core.node, rel)
	node := wrap(core.node)
	plan.SetEstimates(node, 1, core.cost)
	return plan.NewMotion(plan.GatherMotion, nil, node), nil
}

// markRowID turns on the RowID pseudo-column for the target relation's
// scan in an extracted plan.
func markRowID(n plan.Node, rel int) {
	plan.Walk(n, func(x plan.Node) bool {
		switch s := x.(type) {
		case *plan.Scan:
			if s.Rel == rel {
				s.WithRowID = true
			}
		case *plan.DynamicScan:
			if s.Rel == rel {
				s.WithRowID = true
			}
		case *plan.IndexScan:
			if s.Rel == rel {
				s.WithRowID = true
			}
		case *plan.DynamicIndexScan:
			if s.Rel == rel {
				s.WithRowID = true
			}
		}
		return true
	})
}

// compute enumerates a group's candidates for a request and picks the
// winner. This is the heart of the paper's §3.1: direct implementations
// compete with enforcer-rooted alternatives. Candidates are walked in a fixed
// order and the first strict cost-minimum wins, so the chosen plan is a pure
// function of the memo.
func (m *memo) compute(g *group, req request) *result {
	externalCount := 0
	for _, s := range req.specs {
		if !g.rels[s.ScanRel] {
			externalCount++
		}
	}

	best := invalidResult
	consider := func(rs []*result) {
		for _, r := range rs {
			if r != nil && r.valid && (!best.valid || r.cost < best.cost) {
				best = r
			}
		}
	}

	// 1. Direct operator implementations. External specs must be consumed
	// by a PartitionSelector enforcer before an operator can root the plan
	// — the selector is the producer and must sit on top of the subtree
	// whose rows drive it.
	if externalCount == 0 {
		for _, le := range g.lexprs {
			if _, isAgg := le.op.(*logical.GroupBy); req.dist.Kind == SingletonDist && !isAgg {
				// Only an aggregate's Final stage roots a coordinator slice
				// itself; everything else reaches the coordinator through
				// the Gather enforcer below, which keeps the Gather on top.
				continue
			}
			consider(m.implement(g, le, req))
		}
	}

	// 2. PartitionSelector enforcer (the partition-propagation property
	// enforcer). Allowed for external specs (producer side) and at the
	// spec's own scan group (static selection above the scan).
	for i, spec := range req.specs {
		isExternal := !g.rels[spec.ScanRel]
		isOwnScan := scanGroupFor(g, spec)
		if !isExternal && !isOwnScan {
			continue
		}
		consider(m.enforceSelector(g, req, i, spec, isOwnScan))
	}

	// 3. Motion enforcer (the distribution property enforcer). Prohibited
	// while the request carries external specs: the Motion would separate
	// the pending PartitionSelector from its DynamicScan.
	if externalCount == 0 && req.dist.Kind != AnyDist {
		consider(m.enforceMotion(g, req))
	}

	return best
}

// enforceSelector is candidate source 2: resolve spec i here with a
// PartitionSelector over the remaining request.
func (m *memo) enforceSelector(g *group, req request, i int, spec *SpecReq, isOwnScan bool) []*result {
	sub := m.optimize(g, req.without(i))
	if !sub.valid {
		return nil
	}
	if isOwnScan {
		if !pathMotionFree(sub.node, spec.ScanRel) {
			// A selector above a Motion above its own scan would put
			// producer and consumer in different processes — and the
			// Motion may sit anywhere on the path, not just at the
			// child's root (e.g. below another spec's selector).
			return nil
		}
		preds := staticOnlyPreds(spec)
		fraction := m.o.staticFraction(spec, preds)
		node := plan.NewPartitionSelector(spec.Table, spec.ScanRel, preds, sub.node)
		node.Hub = hubSpec(spec)
		rows := sub.rows * fraction
		if rows < 1 {
			rows = 1
		}
		cost := sub.cost*fraction + costSelectorBase
		plan.SetEstimates(node, rows, cost)
		return []*result{{valid: true, cost: cost, rows: rows, delivered: sub.delivered, node: node}}
	}
	// Producer-side selector: pass-through over this subtree's rows.
	node := plan.NewPartitionSelector(spec.Table, spec.ScanRel, spec.Preds, sub.node)
	node.Hub = hubSpec(spec)
	cost := sub.cost + sub.rows*costSelectorPerRow + costSelectorBase
	plan.SetEstimates(node, sub.rows, cost)
	return []*result{{valid: true, cost: cost, rows: sub.rows, delivered: sub.delivered, node: node}}
}

// enforceMotion is candidate source 3: satisfy the distribution requirement
// with a Motion over the Any-distribution result.
func (m *memo) enforceMotion(g *group, req request) []*result {
	sub := m.optimize(g, req.withDist(AnySpec()))
	if !sub.valid {
		return nil
	}
	switch req.dist.Kind {
	case SingletonDist:
		return []*result{m.o.gather(sub)}
	case HashedDist:
		keys := make([]expr.Expr, len(req.dist.Cols))
		for i, c := range req.dist.Cols {
			keys[i] = expr.NewCol(c, "")
		}
		node := plan.NewMotion(plan.RedistributeMotion, keys, sub.node)
		if sub.delivered.Kind == ReplicatedDist {
			// Every segment holds a full copy: redistributing from
			// all of them would deliver Segments duplicates of each
			// row. Only one copy may enter the exchange.
			node.FromSegment = 0
		}
		cost := sub.cost + sub.rows*costRedistRow
		plan.SetEstimates(node, sub.rows, cost)
		return []*result{{valid: true, cost: cost, rows: sub.rows, delivered: req.dist, node: node}}
	case ReplicatedDist:
		if sub.delivered.Kind != ReplicatedDist {
			node := plan.NewMotion(plan.BroadcastMotion, nil, sub.node)
			cost := sub.cost + sub.rows*costBcastRow*float64(m.o.Segments)
			plan.SetEstimates(node, sub.rows*float64(m.o.Segments), cost)
			return []*result{{valid: true, cost: cost, rows: sub.rows, delivered: req.dist, node: node}}
		}
	}
	return nil
}

// implement produces the candidate plans of one logical expression for a
// request. All specs in req are internal to g here.
func (m *memo) implement(g *group, le *lexpr, req request) []*result {
	switch op := le.op.(type) {
	case *logical.Get:
		return m.implementGet(op, req)
	case *logical.Select:
		return m.implementSelect(le, op, req)
	case *logical.Project:
		return m.implementProject(le, op, req)
	case *logical.GroupBy:
		return m.implementGroupBy(le, op, req)
	case *logical.Join:
		return m.implementJoin(le, op, req)
	}
	return nil
}

func (m *memo) implementGet(op *logical.Get, req request) []*result {
	if len(req.specs) > 0 {
		// The spec for this scan is resolved by the selector enforcer.
		return nil
	}
	delivered := m.o.nativeDist(op)
	if !delivered.Satisfies(req.dist) {
		return nil
	}
	rows := m.o.tableRows(op.Table)
	var node plan.Node
	if op.Table.IsPartitioned() {
		node = plan.NewDynamicScan(op.Table, op.Rel, op.Rel)
	} else {
		node = plan.NewScan(op.Table, op.Rel)
	}
	cost := rows * costScanRow
	plan.SetEstimates(node, rows, cost)
	return []*result{{valid: true, cost: cost, rows: rows, delivered: delivered, node: node}}
}

func (m *memo) implementSelect(le *lexpr, op *logical.Select, req request) []*result {
	// Algorithm 3 in Memo form: augment travelling specs with the
	// partition-filtering conjuncts of this predicate.
	childSpecs := make([]*SpecReq, 0, len(req.specs))
	for _, spec := range req.specs {
		if m.o.DisableSelection {
			childSpecs = append(childSpecs, spec)
			continue
		}
		keyPreds, found := expr.FindPredsOnKeys(spec.Keys, op.Pred)
		if !found {
			childSpecs = append(childSpecs, spec)
			continue
		}
		ns := spec.clone()
		for lvl, p := range keyPreds {
			if p != nil {
				ns.Preds[lvl] = expr.Conj(p, ns.Preds[lvl])
			}
		}
		childSpecs = append(childSpecs, ns)
	}
	var out []*result
	sub := m.optimize(le.children[0], request{dist: req.dist, specs: childSpecs})
	if sub.valid {
		node := plan.NewFilter(op.Pred, sub.node)
		rows := sub.rows * m.selectivity(op.Pred)
		if rows < 1 {
			rows = 1
		}
		cost := sub.cost + sub.rows*costFilterRow
		plan.SetEstimates(node, rows, cost)
		out = append(out, &result{valid: true, cost: cost, rows: rows, delivered: sub.delivered, node: node})
	}
	if idx := m.implementIndexSelect(le, op, childSpecs, req); idx != nil {
		out = append(out, idx)
	}
	return out
}

// implementIndexSelect offers the index-scan alternative of a Select over a
// base table (the paper's future-work indexing): an IndexScan, or — for
// partitioned tables — a DynamicIndexScan under its PartitionSelectors, so
// partition elimination and index lookup compose.
func (m *memo) implementIndexSelect(le *lexpr, op *logical.Select, childSpecs []*SpecReq, req request) *result {
	get := soleGetAny(le.children[0])
	if get == nil {
		return nil
	}
	delivered := m.o.nativeDist(get)
	if !delivered.Satisfies(req.dist) {
		return nil
	}
	// Pick the first index whose column the predicate statically constrains.
	var chosen *catalog.IndexDef
	var keyPred expr.Expr
	for i := range get.Table.Indexes {
		idx := &get.Table.Indexes[i]
		key := expr.ColID{Rel: get.Rel, Ord: idx.ColOrd}
		p := expr.FindPredOnKey(key, op.Pred)
		if p == nil {
			continue
		}
		p = expr.StaticConjuncts(p, key)
		if p == nil {
			continue
		}
		chosen, keyPred = idx, p
		break
	}
	if chosen == nil {
		return nil
	}

	rows := m.o.tableRows(get.Table)
	var scanNode plan.Node
	if get.Table.IsPartitioned() {
		scanNode = plan.NewDynamicIndexScan(get.Table, get.Rel, get.Rel, *chosen, keyPred)
	} else {
		scanNode = plan.NewIndexScan(get.Table, get.Rel, *chosen, keyPred)
	}
	var node plan.Node = plan.NewFilter(op.Pred, scanNode)
	for _, spec := range childSpecs {
		preds := staticOnlyPreds(spec)
		fraction := m.o.staticFraction(spec, preds)
		sel := plan.NewPartitionSelector(spec.Table, spec.ScanRel, preds, node)
		sel.Hub = hubSpec(spec)
		node = sel
		rows *= fraction
	}
	sel := m.selectivity(keyPred)
	fetched := rows * sel
	if fetched < 1 {
		fetched = 1
	}
	outRows := rows * m.selectivity(op.Pred)
	if outRows < 1 {
		outRows = 1
	}
	cost := fetched*costIndexRow + fetched*costFilterRow + costSelectorBase
	plan.SetEstimates(node, outRows, cost)
	return &result{valid: true, cost: cost, rows: outRows, delivered: delivered, node: node}
}

// soleGetAny returns the group's Get operator for any base table.
func soleGetAny(g *group) *logical.Get {
	for _, le := range g.lexprs {
		if get, ok := le.op.(*logical.Get); ok {
			return get
		}
	}
	return nil
}

func (m *memo) implementProject(le *lexpr, op *logical.Project, req request) []*result {
	sub := m.optimize(le.children[0], request{dist: req.dist, specs: req.specs})
	if !sub.valid {
		return nil
	}
	node := plan.NewProject(op.Cols, sub.node)
	cost := sub.cost + sub.rows*costProjectRow
	plan.SetEstimates(node, sub.rows, cost)
	return []*result{{valid: true, cost: cost, rows: sub.rows, delivered: sub.delivered, node: node}}
}

// gather delivers a segment-side result to the coordinator; replicated
// deliveries gather from a single segment to avoid duplicate copies. The
// Gather itself carries no estimates (EXPLAIN shows them on the operator
// below it); its rows are charged like any other moved row.
func (o *Optimizer) gather(sub *result) *result {
	node := plan.NewMotion(plan.GatherMotion, nil, sub.node)
	if sub.delivered.Kind == ReplicatedDist {
		node.FromSegment = 0
	}
	cost := sub.cost + sub.rows*costRedistRow
	return &result{valid: true, cost: cost, rows: sub.rows, delivered: Singleton(), node: node}
}
