package orca

import (
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/part"
	"partopt/internal/plan"
)

// implementJoin produces the hash-join alternatives of one join group
// expression. le.children[0] is the build side (executed first — the
// paper's "outer"); join commutativity has already populated both child
// orders, so both HashJoin[1,2] and HashJoin[2,1] compete here.
//
// Spec routing follows Algorithm 4: a spec whose DynamicScan lives on the
// build side travels there unchanged; a probe-side spec whose partitioning
// key is constrained by the join predicate (with build-side source values)
// moves to the build side with the augmented predicate — dynamic partition
// elimination; anything else resolves near its scan on the probe side.
//
// Distribution alternatives follow the paper's §3.1 example: redistribute
// both children on the join keys, replicate the build side, or replicate
// the probe side.
func (m *memo) implementJoin(le *lexpr, op *logical.Join, req request) []*result {
	build, probe := le.children[0], le.children[1]
	// The predicate split depends only on the expression, not the request;
	// it was precomputed at insert time (newJoinLexpr).
	buildKeys, probeKeys, residual := le.join.buildKeys, le.join.probeKeys, le.join.residual

	// Route partition-propagation specs. Dynamic (join-driven) specs go to
	// the build side; a second copy MAY also travel down the probe side to
	// collect static predicates from Selects there (the two selectors'
	// choices intersect in the scan's mailbox) — both routings are costed.
	//
	// Elimination prunes PROBE partitions using build-row key values, so it
	// is sound only when unmatched probe rows are droppable. When the probe
	// side is outer-preserved (RightOuterJoin) every probe row must surface
	// null-extended, including rows in partitions no build key touches —
	// those specs resolve statically near their scan instead.
	var buildSpecs, probeSpecs []*SpecReq
	var dynCopies []*SpecReq
	var dynRels []int // probe-side scans pruned from the build side
	for _, spec := range req.specs {
		if build.rels[spec.ScanRel] {
			buildSpecs = append(buildSpecs, spec)
			continue
		}
		if m.o.DisableSelection || op.Type.ProbePreserved() {
			probeSpecs = append(probeSpecs, spec)
			continue
		}
		if ns, ok := joinDriven(spec, op.Pred, build.rels); ok {
			buildSpecs = append(buildSpecs, ns)
			dynRels = append(dynRels, spec.ScanRel)
			dynCopies = append(dynCopies, spec.clone())
			continue
		}
		probeSpecs = append(probeSpecs, spec)
	}
	probeRoutings := [][]*SpecReq{probeSpecs}
	if len(dynCopies) > 0 {
		withCopies := append(append([]*SpecReq{}, probeSpecs...), dynCopies...)
		probeRoutings = append(probeRoutings, withCopies)
	}

	var out []*result
	add := func(buildReq, probeReq request, delivered func(b, p *result) DistSpec) {
		b := m.optimize(build, buildReq)
		if !b.valid {
			return
		}
		p := m.optimize(probe, probeReq)
		if !p.valid {
			return
		}
		// Dynamic elimination requires the consumer scan to share the
		// join's process: no Motion on the path to it.
		for _, rel := range dynRels {
			if !pathMotionFree(p.node, rel) {
				return
			}
		}
		d := delivered(b, p)
		if !d.Satisfies(req.dist) {
			return
		}
		probeCost := p.cost
		if len(dynRels) > 0 {
			// Credit the run-time pruning the dynamic selectors achieve.
			probeCost *= m.o.dynFraction()
		}
		out = append(out, hashJoinResult(op, le.join, b, p, probeCost, d))
	}

	bCols, bOK := le.join.bCols, le.join.bOK
	pCols, pOK := le.join.pCols, le.join.pOK
	for _, ps := range probeRoutings {
		// Alternative 1: co-locate by redistributing both sides on the keys.
		if len(buildKeys) > 0 && bOK && pOK {
			add(request{dist: HashedOn(bCols...), specs: buildSpecs},
				request{dist: HashedOn(pCols...), specs: ps},
				func(b, p *result) DistSpec {
					// Key equality makes both hash layouts equivalent for
					// rows that matched; NULL-extended rows break it on the
					// null-producing side (their key columns are NULL but
					// they sit wherever the preserved row hashed), so an
					// outer join may only claim its preserved side's layout.
					switch {
					case op.Type.BuildPreserved():
						return HashedOn(bCols...)
					case op.Type.ProbePreserved():
						return HashedOn(pCols...)
					}
					// Report the one the parent asked for when possible.
					if HashedOn(bCols...).Satisfies(req.dist) {
						return HashedOn(bCols...)
					}
					return HashedOn(pCols...)
				})
		}

		// Alternative 2: replicate the build side; probe rows stay put.
		// Unsound when the build side is outer-preserved: an unmatched build
		// row would be null-extended once per segment instead of once.
		if !op.Type.BuildPreserved() {
			add(request{dist: Replicated(), specs: buildSpecs},
				request{dist: AnySpec(), specs: ps},
				func(b, p *result) DistSpec { return p.delivered })
		}

		// Alternative 3: replicate the probe side (inner joins only — a
		// replicated probe would emit each semi-join witness once per
		// segment). Invalid with dynamic elimination: the Motion would sit
		// above the consumer scan; the pathMotionFree check rejects it.
		if op.Type == plan.InnerJoin {
			add(request{dist: AnySpec(), specs: buildSpecs},
				request{dist: Replicated(), specs: ps},
				func(b, p *result) DistSpec {
					if b.delivered.Kind == ReplicatedDist {
						return Replicated()
					}
					return b.delivered
				})
		}
	}

	// Alternative 4: partition-wise join (the §5 related-work extension):
	// both sides are base tables co-partitioned AND co-distributed on the
	// join key, so the join decomposes into per-partition-pair joins with
	// no data movement at all.
	if pw := m.implementPartitionWise(build, probe, op, buildKeys, probeKeys, residual, req); pw != nil {
		out = append(out, pw)
	}

	// Alternative 5: outer joins prune the null-producing side from a
	// replicated copy of the preserved side's keys, below the Motion.
	return append(out, m.implementKeySet(le, op, req)...)
}

// implementKeySet is the key-set alternative of an outer join: the
// null-producing side is pruned by a PartitionSelector that sits below the
// Motion redistributing that side, fed by a replicated copy of the
// preserved side:
//
//	HashLeftOuterJoin                 (or the flipped HashRightOuterJoin)
//	  -> preserved side, HashedOn(its keys)
//	  -> Redistribute Motion (null-side keys)
//	    -> Sequence
//	      -> PartitionSelector(join keys ∧ static preds)
//	        -> preserved side again, Replicated
//	      -> null-producing side, containing the DynamicScan
//
// Sound because a null-side row is emitted only if some preserved row
// satisfies the join predicate, and therefore its key conjuncts: every
// partition such a row can live in is selected by some row of the copy (a
// NULL preserved key selects nothing, and matches nothing). Selector and
// scan share the process below the Motion, so the colocation rule holds;
// the preserved side itself is neither pruned nor broadcast — only its
// copy is, and the copy's rows are discarded by the Sequence.
//
// Offered only when the preserved side holds no partitioned table (its copy
// must never duplicate a DynamicScan or a mailbox), and only when the null
// side's plan is not already hashed on the join keys: then alternative 1
// prunes it with no Motion at all.
func (m *memo) implementKeySet(le *lexpr, op *logical.Join, req request) []*result {
	if !op.Type.Outer() || m.o.DisableSelection {
		return nil
	}
	ji := le.join
	if len(ji.buildKeys) == 0 || !ji.bOK || !ji.pOK {
		return nil
	}
	preserved, null := le.children[0], le.children[1]
	presCols, nullCols, nullKeys := ji.bCols, ji.pCols, ji.probeKeys
	if op.Type.ProbePreserved() {
		preserved, null = null, preserved
		presCols, nullCols, nullKeys = nullCols, presCols, ji.buildKeys
	}
	delivered := HashedOn(presCols...)
	if !delivered.Satisfies(req.dist) || m.hasPartitioned(preserved) {
		return nil
	}

	// Every spec lies on the null side. Those the join predicate constrains
	// from preserved-side values move to the key source; a copy may also
	// travel down the null side to collect its static predicates.
	var keySpecs, nullSpecs, copies []*SpecReq
	for _, spec := range req.specs {
		ns, ok := joinDriven(spec, op.Pred, preserved.rels)
		if !ok {
			nullSpecs = append(nullSpecs, spec)
			continue
		}
		keySpecs = append(keySpecs, ns)
		copies = append(copies, spec.clone())
	}
	if len(keySpecs) == 0 {
		return nil
	}

	pres := m.optimize(preserved, request{dist: delivered})
	if !pres.valid {
		return nil
	}
	src := m.optimize(preserved, request{dist: Replicated()})
	if !src.valid || sharesNode(pres.node, src.node) {
		// Both copies may be enforcers over one memoized subplan; a plan
		// tree must not hold the same node twice.
		return nil
	}
	// The key source: one selector per pruned scan, chained over the copy.
	var keySrc plan.Node = src.node
	srcCost := src.cost
	for _, spec := range keySpecs {
		sel := plan.NewPartitionSelector(spec.Table, spec.ScanRel, spec.Preds, keySrc)
		sel.Hub = hubSpec(spec)
		srcCost += src.rows*costSelectorPerRow + costSelectorBase
		plan.SetEstimates(sel, src.rows, srcCost)
		keySrc = sel
	}

	var out []*result
	withCopies := append(append([]*SpecReq{}, nullSpecs...), copies...)
	for _, specs := range [][]*SpecReq{nullSpecs, withCopies} {
		n := m.optimize(null, request{dist: AnySpec(), specs: specs})
		if !n.valid || n.delivered.Satisfies(HashedOn(nullCols...)) {
			continue
		}
		motionFree := true
		for _, spec := range keySpecs {
			motionFree = motionFree && pathMotionFree(n.node, spec.ScanRel)
		}
		if !motionFree {
			continue
		}
		// Credit the run-time pruning to the null side's scan and to the
		// rows its Redistribute no longer moves; estimates stay unscaled.
		seq := plan.NewSequence(keySrc, n.node)
		seqCost := srcCost + n.cost*m.o.dynFraction()
		plan.SetEstimates(seq, n.rows, seqCost)
		motion := plan.NewMotion(plan.RedistributeMotion, nullKeys, seq)
		if n.delivered.Kind == ReplicatedDist {
			motion.FromSegment = 0
		}
		nullCost := seqCost + n.rows*costRedistRow*m.o.dynFraction()
		plan.SetEstimates(motion, n.rows, nullCost)

		b, p := pres, &result{rows: n.rows, cost: nullCost, node: motion}
		if op.Type.ProbePreserved() {
			b, p = p, b
		}
		out = append(out, hashJoinResult(op, ji, b, p, p.cost, delivered))
	}
	return out
}

// hashJoinResult costs a HashJoin over the planned build side b and probe
// side p and builds its node. probeCost is p's cost after any credit for
// run-time pruning; the row estimates stay unscaled.
func hashJoinResult(op *logical.Join, ji *joinInfo, b, p *result, probeCost float64, d DistSpec) *result {
	outRows := joinOutRows(op.Type, b.rows, p.rows)
	cost := b.cost + probeCost + b.rows*costBuildRow + p.rows*costProbeRow + outRows*costJoinOutRow
	node := plan.NewHashJoin(op.Type, ji.buildKeys, ji.probeKeys, ji.residual, b.node, p.node, op.Pred)
	plan.SetEstimates(node, outRows, cost)
	return &result{valid: true, cost: cost, rows: outRows, delivered: d, node: node}
}

// sharesNode reports whether two plan trees have a node in common.
func sharesNode(a, b plan.Node) bool {
	seen := map[plan.Node]bool{}
	plan.Walk(a, func(n plan.Node) bool {
		seen[n] = true
		return true
	})
	shared := false
	plan.Walk(b, func(n plan.Node) bool {
		shared = shared || seen[n]
		return !shared
	})
	return shared
}

// hasPartitioned reports whether any relation below g is a partitioned
// table.
func (m *memo) hasPartitioned(g *group) bool {
	for rel := range g.rels {
		if t := m.tables[rel]; t != nil && t.IsPartitioned() {
			return true
		}
	}
	return false
}

// implementPartitionWise builds the partition-wise alternative when the
// preconditions hold; nil otherwise.
func (m *memo) implementPartitionWise(build, probe *group, op *logical.Join, buildKeys, probeKeys []expr.Expr, residual expr.Expr, req request) *result {
	// Inner/semi only: the per-pair executor drops unmatched rows at
	// partition-pair boundaries, and the selectors stacked above the join
	// statically prune BOTH sides — pruning an outer-preserved side would
	// drop rows the join must null-extend.
	if op.Type.Outer() {
		return nil
	}
	bGet, pGet := soleGet(build), soleGet(probe)
	if bGet == nil || pGet == nil {
		return nil
	}
	bDesc, pDesc := bGet.Table.Part, pGet.Table.Part
	if !part.Aligned(bDesc, pDesc) {
		return nil
	}
	// The partition-key equality must be among the join keys.
	bKeyCol := expr.ColID{Rel: bGet.Rel, Ord: bDesc.KeyOrds()[0]}
	pKeyCol := expr.ColID{Rel: pGet.Rel, Ord: pDesc.KeyOrds()[0]}
	keyed := false
	for i := range buildKeys {
		bc, bok := buildKeys[i].(*expr.Col)
		pc, pok := probeKeys[i].(*expr.Col)
		if bok && pok && bc.ID == bKeyCol && pc.ID == pKeyCol {
			keyed = true
			break
		}
	}
	if !keyed {
		return nil
	}
	// Colocation: both tables natively hash-distributed on the join key.
	if !m.o.nativeDist(bGet).Satisfies(HashedOn(bKeyCol)) || !m.o.nativeDist(pGet).Satisfies(HashedOn(pKeyCol)) {
		return nil
	}
	delivered := HashedOn(pKeyCol)
	if !delivered.Satisfies(req.dist) {
		if alt := HashedOn(bKeyCol); alt.Satisfies(req.dist) {
			delivered = alt
		} else {
			return nil
		}
	}

	bScan := plan.NewDynamicScan(bGet.Table, bGet.Rel, bGet.Rel)
	pScan := plan.NewDynamicScan(pGet.Table, pGet.Rel, pGet.Rel)
	var node plan.Node = plan.NewPartitionWiseJoin(op.Type, buildKeys, probeKeys, residual, bScan, pScan, op.Pred)

	// Resolve every travelling spec with a selector directly above the
	// join (static conjuncts only: the per-pair scans read the mailboxes
	// before producing rows).
	bRows, pRows := m.o.tableRows(bGet.Table), m.o.tableRows(pGet.Table)
	for _, spec := range req.specs {
		preds := staticOnlyPreds(spec)
		fraction := m.o.staticFraction(spec, preds)
		sel := plan.NewPartitionSelector(spec.Table, spec.ScanRel, preds, node)
		sel.Hub = hubSpec(spec)
		node = sel
		switch spec.ScanRel {
		case bGet.Rel:
			bRows *= fraction
		case pGet.Rel:
			pRows *= fraction
		}
	}
	// Per-pair hash tables are small and stay cache-resident; the discount
	// reflects that (ablation: costPWDiscount in cost.go).
	outRows := joinOutRows(op.Type, bRows, pRows)
	cost := (bRows*costBuildRow + pRows*costProbeRow) * costPWDiscount
	cost += outRows * costJoinOutRow
	plan.SetEstimates(node, outRows, cost)
	return &result{valid: true, cost: cost, rows: outRows, delivered: delivered, node: node}
}

// soleGet returns the group's Get operator when the group is a base-table
// leaf over a single-level partitioned table.
func soleGet(g *group) *logical.Get {
	for _, le := range g.lexprs {
		if get, ok := le.op.(*logical.Get); ok {
			if get.Table.IsPartitioned() && get.Table.Part.NumLevels() == 1 {
				return get
			}
		}
	}
	return nil
}

// joinDriven returns a copy of spec whose level predicates also carry the
// join predicate's constraints on the partitioning keys, when it has some
// and their other operands come from the relations in src (the side whose
// rows will drive the selector); ok is false otherwise.
func joinDriven(spec *SpecReq, pred expr.Expr, src map[int]bool) (*SpecReq, bool) {
	keyPreds, found := expr.FindPredsOnKeys(spec.Keys, pred)
	if !found || !predsSourcedFrom(keyPreds, spec, src) {
		return nil, false
	}
	ns := spec.clone()
	for lvl, p := range keyPreds {
		if p != nil {
			ns.Preds[lvl] = expr.Conj(p, ns.Preds[lvl])
		}
	}
	return ns, true
}

// predsSourcedFrom reports whether every non-key column referenced by the
// extracted per-level predicates is available from the build side — the
// producer must be able to evaluate them while streaming build rows.
func predsSourcedFrom(keyPreds []expr.Expr, spec *SpecReq, buildRels map[int]bool) bool {
	for lvl, p := range keyPreds {
		if p == nil {
			continue
		}
		for id := range expr.ColsUsed(p) {
			if id == spec.Keys[lvl] {
				continue
			}
			if !buildRels[id.Rel] {
				return false
			}
		}
	}
	return true
}

// keyCols extracts plain column identities from key expressions; ok is
// false when a key is a computed expression.
func keyCols(keys []expr.Expr) ([]expr.ColID, bool) {
	out := make([]expr.ColID, 0, len(keys))
	for _, k := range keys {
		c, ok := k.(*expr.Col)
		if !ok {
			return nil, false
		}
		out = append(out, c.ID)
	}
	return out, true
}

// pathMotionFree reports whether the unique path from n down to the
// DynamicScan with the given partScanId crosses no Motion.
func pathMotionFree(n plan.Node, rel int) bool {
	if ds, ok := n.(*plan.DynamicScan); ok {
		return ds.PartScanID == rel
	}
	if _, isMotion := n.(*plan.Motion); isMotion {
		return false
	}
	for _, c := range n.Children() {
		if containsScan(c, rel) {
			return pathMotionFree(c, rel)
		}
	}
	return false
}

func containsScan(n plan.Node, rel int) bool {
	found := false
	plan.Walk(n, func(x plan.Node) bool {
		if found {
			return false
		}
		if ds, ok := x.(*plan.DynamicScan); ok && ds.PartScanID == rel {
			found = true
			return false
		}
		return true
	})
	return found
}
