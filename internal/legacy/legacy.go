// Package legacy reimplements the baseline the paper evaluates against:
// GPDB's legacy Planner, which handles partitioned tables through the
// PostgreSQL inheritance mechanism. Its plans expand every partitioned
// table into an Append over explicit per-leaf Scans, so:
//
//   - static elimination prunes the Append's children at plan time by
//     checking predicate-derived intervals against each leaf's constraint
//     (plan size stays linear in the partitions *kept* — paper Fig. 18(a));
//   - dynamic elimination is rudimentary: for simple single-level equality
//     joins the planner adds a prep step that computes the qualifying
//     partition OIDs at run time into a parameter consulted by a filtered
//     Append that still lists every leaf (plan size linear in *all*
//     partitions — paper Fig. 18(b));
//   - DML update plans enumerate one update branch per target leaf, each
//     with its own copy of the source join (plan size quadratic — paper
//     Fig. 18(c));
//   - prepared-statement parameters cannot prune at all (values unknown at
//     plan time and no run-time selector exists).
package legacy

import (
	"fmt"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// Planner is the legacy query planner.
type Planner struct {
	Segments int
	// DisableDynamic turns off the parameter-based run-time elimination,
	// leaving only static pruning.
	DisableDynamic bool
}

// PrepStep computes a partitioned table's qualifying OIDs before the main
// plan runs: the engine executes Plan, maps each returned value to leaf
// OIDs of Table (at partitioning level Level), and binds the set to the
// OID parameter ParamID.
type PrepStep struct {
	Plan    plan.Node
	ParamID int
	Table   *catalog.Table
	Level   int
}

// Planned is the output of the legacy planner: a main plan plus the prep
// steps feeding its OID parameters.
type Planned struct {
	Main  plan.Node
	Preps []*PrepStep
}

// planned-node metadata threaded through recursion.
type planCtx struct {
	preps     []*PrepStep
	nextParam int
}

// Plan lowers a logical tree to a legacy physical plan.
func (p *Planner) Plan(root logical.Node) (*Planned, error) {
	if p.Segments < 1 {
		return nil, fmt.Errorf("legacy: planner needs a positive segment count")
	}
	ctx := &planCtx{}
	if upd, ok := root.(*logical.Update); ok {
		node, err := p.planDML(ctx, upd.Child, upd.Table, upd.Rel, func(child plan.Node) plan.Node {
			return plan.NewUpdate(upd.Table, upd.Rel, upd.Sets, child)
		})
		if err != nil {
			return nil, err
		}
		return &Planned{Main: node, Preps: ctx.preps}, nil
	}
	if del, ok := root.(*logical.Delete); ok {
		node, err := p.planDML(ctx, del.Child, del.Table, del.Rel, func(child plan.Node) plan.Node {
			return plan.NewDelete(del.Table, del.Rel, child)
		})
		if err != nil {
			return nil, err
		}
		return &Planned{Main: node, Preps: ctx.preps}, nil
	}

	var proj *logical.Project
	var gb *logical.GroupBy
	n := root
	if pr, ok := n.(*logical.Project); ok {
		proj = pr
		n = pr.Child
	}
	if g, ok := n.(*logical.GroupBy); ok {
		gb = g
		n = g.Child
	}
	core, repl, err := p.planNode(ctx, n, nil)
	if err != nil {
		return nil, err
	}
	gather := plan.NewMotion(plan.GatherMotion, nil, core)
	if repl {
		gather.FromSegment = 0
	}
	var node plan.Node = gather
	if gb != nil {
		node = plan.NewHashAgg(gb.Groups, gb.Aggs, node)
	}
	if proj != nil {
		node = plan.NewProject(proj.Cols, node)
	}
	return &Planned{Main: node, Preps: ctx.preps}, nil
}

// planNode lowers one core node. pushedPred carries predicates from
// enclosing Selects for static elimination. The bool result reports whether
// the subtree's output is replicated on every segment.
func (p *Planner) planNode(ctx *planCtx, n logical.Node, pushedPred expr.Expr) (plan.Node, bool, error) {
	switch x := n.(type) {
	case *logical.Get:
		node := p.planGet(x, pushedPred, -1)
		return node, x.Table.Dist.Kind == catalog.DistReplicated, nil
	case *logical.Select:
		child, repl, err := p.planNode(ctx, x.Child, expr.Conj(pushedPred, x.Pred))
		if err != nil {
			return nil, false, err
		}
		return plan.NewFilter(x.Pred, child), repl, nil
	case *logical.Join:
		return p.planJoin(ctx, x, pushedPred)
	case *logical.Project:
		child, repl, err := p.planNode(ctx, x.Child, pushedPred)
		if err != nil {
			return nil, false, err
		}
		return plan.NewProject(x.Cols, child), repl, nil
	default:
		return nil, false, fmt.Errorf("legacy: unsupported operator %T", n)
	}
}

// planGet expands a table access. Static elimination applies the pushed
// predicate to each leaf's check constraints; parameters are unknown at
// plan time, so parameter predicates prune nothing. When oidParam >= 0 the
// Append filters children against that run-time OID set.
func (p *Planner) planGet(g *logical.Get, pushedPred expr.Expr, oidParam int) plan.Node {
	if !g.Table.IsPartitioned() {
		return plan.NewScan(g.Table, g.Rel)
	}
	desc := g.Table.Part
	leaves := p.eliminateStatic(g, desc, pushedPred)
	kids := make([]plan.Node, 0, len(leaves))
	for _, leaf := range leaves {
		kids = append(kids, plan.NewLeafScan(g.Table, g.Rel, leaf))
	}
	if oidParam >= 0 {
		return plan.NewFilteredAppend(oidParam, kids...)
	}
	return plan.NewAppend(kids...)
}

// eliminateStatic returns the leaves that survive the pushed predicate.
func (p *Planner) eliminateStatic(g *logical.Get, desc *part.Desc, pushedPred expr.Expr) []part.OID {
	sets := make([]types.IntervalSet, desc.NumLevels())
	eval := expr.ConstEval(nil) // plan time: no parameter values
	for lvl, ord := range desc.KeyOrds() {
		key := expr.ColID{Rel: g.Rel, Ord: ord}
		keyPred := expr.FindPredOnKey(key, pushedPred)
		if keyPred == nil || !staticPred(keyPred, key) {
			sets[lvl] = types.WholeDomain()
			continue
		}
		sets[lvl] = expr.DeriveIntervals(keyPred, key, eval)
	}
	return desc.Select(sets)
}

// staticPred reports whether the predicate's only column is the key itself
// and it carries no unbound parameters (the legacy planner cannot prune on
// run-time values).
func staticPred(pred expr.Expr, key expr.ColID) bool {
	if expr.HasParam(pred) {
		return false
	}
	for id := range expr.ColsUsed(pred) {
		if id != key {
			return false
		}
	}
	return true
}

// planJoin lowers a join: the build side is broadcast unless already
// replicated, the probe side stays in place. For a simple probe-side
// partitioned Get equated on its partitioning key, the planner's
// parameter-driven dynamic elimination kicks in.
func (p *Planner) planJoin(ctx *planCtx, j *logical.Join, pushedPred expr.Expr) (plan.Node, bool, error) {
	// The legacy strategy always broadcasts the build side, and broadcasting
	// an outer-preserved side would emit each unmatched row once per segment.
	// Normalize to the probe-preserved orientation (A LEFT JOIN B ≡ B RIGHT
	// JOIN A) so the null-producing side is the one replicated. The dynamic
	// elimination below stays inner-only: the probe of a normalized outer
	// join is preserved, and pruning its partitions would drop rows the join
	// must null-extend.
	if j.Type.BuildPreserved() {
		j = &logical.Join{Type: j.Type.Flip(), Pred: j.Pred, Left: j.Right, Right: j.Left}
	}
	leftRels, rightRels := j.Left.Rels(), j.Right.Rels()
	buildKeys, probeKeys, residual := expr.SplitJoinPred(j.Pred, leftRels, rightRels)

	build, buildRepl, err := p.planNode(ctx, j.Left, nil)
	if err != nil {
		return nil, false, err
	}
	if !buildRepl {
		build = plan.NewMotion(plan.BroadcastMotion, nil, build)
		buildRepl = true
	}

	// Rudimentary dynamic elimination: probe is Get or Select(Get) of a
	// single-level partitioned table whose key appears in a join equality
	// with a build-side source.
	oidParam := -1
	if !p.DisableDynamic && j.Type == plan.InnerJoin {
		if get, sel := probeGet(j.Right); get != nil && get.Table.IsPartitioned() && get.Table.Part.NumLevels() == 1 {
			keyOrd := get.Table.Part.KeyOrds()[0]
			key := expr.ColID{Rel: get.Rel, Ord: keyOrd}
			if src, ok := expr.KeyEqualitySource(key, j.Pred); ok && sourcedFrom(src, leftRels) {
				// Prep plan: gather the distinct source values from an
				// independent copy of the build side.
				prepChild, prepRepl, err := p.planNode(ctx, j.Left, nil)
				if err != nil {
					return nil, false, err
				}
				prepGather := plan.NewMotion(plan.GatherMotion, nil, prepChild)
				if prepRepl {
					prepGather.FromSegment = 0
				}
				prep := plan.NewProject([]plan.ProjCol{{
					E: src, Name: "part_key", Out: expr.ColID{Rel: -10, Ord: 0},
				}}, prepGather)
				oidParam = ctx.nextParam
				ctx.nextParam++
				ctx.preps = append(ctx.preps, &PrepStep{
					Plan:    prep,
					ParamID: oidParam,
					Table:   get.Table,
					Level:   0,
				})
				_ = sel
			}
		}
	}

	var probe plan.Node
	var probeRepl bool
	if oidParam >= 0 {
		get, sel := probeGet(j.Right)
		inner := p.planGet(get, expr.Conj(pushedPred, selPred(sel)), oidParam)
		if sel != nil {
			inner = plan.NewFilter(sel.Pred, inner)
		}
		probe = inner
		probeRepl = get.Table.Dist.Kind == catalog.DistReplicated
	} else {
		probe, probeRepl, err = p.planNode(ctx, j.Right, pushedPred)
		if err != nil {
			return nil, false, err
		}
	}

	node := plan.NewHashJoin(j.Type, buildKeys, probeKeys, residual, build, probe, j.Pred)
	return node, buildRepl && probeRepl, nil
}

func selPred(s *logical.Select) expr.Expr {
	if s == nil {
		return nil
	}
	return s.Pred
}

// probeGet matches the probe shapes the legacy dynamic elimination
// supports: Get, or Select(Get).
func probeGet(n logical.Node) (*logical.Get, *logical.Select) {
	if g, ok := n.(*logical.Get); ok {
		return g, nil
	}
	if s, ok := n.(*logical.Select); ok {
		if g, ok := s.Child.(*logical.Get); ok {
			return g, s
		}
	}
	return nil, nil
}

func sourcedFrom(e expr.Expr, rels map[int]bool) bool {
	for id := range expr.ColsUsed(e) {
		if !rels[id.Rel] {
			return false
		}
	}
	return true
}

// planDML lowers an update or delete. The legacy planner expands DML over
// inheritance children: one row-source branch per target leaf, each
// carrying its own copy of the source subtree — the quadratic growth of
// paper Fig. 18(c). A single DML node sits above the Append of branches so
// that targets are collected before any are modified; per-branch DML nodes
// would re-match rows that an earlier branch moved across partitions (the
// Halloween problem, caught by the cross-optimizer DML fuzzer).
func (p *Planner) planDML(ctx *planCtx, child logical.Node, table *catalog.Table, rel int, wrap func(plan.Node) plan.Node) (plan.Node, error) {
	join, ok := child.(*logical.Join)
	if !ok {
		// Plain DML ... WHERE: one branch per surviving leaf.
		return p.planSimpleDML(child, rel, wrap)
	}
	// DML ... FROM/USING: a join per target leaf.
	get, sel := probeGet(join.Right)
	if get == nil || get.Rel != rel {
		return nil, fmt.Errorf("legacy: DML expects the target table on the join's probe side")
	}
	leftRels, rightRels := join.Left.Rels(), join.Right.Rels()
	buildKeys, probeKeys, residual := expr.SplitJoinPred(join.Pred, leftRels, rightRels)

	var leaves []part.OID
	if get.Table.IsPartitioned() {
		leaves = get.Table.Part.Expansion()
	} else {
		leaves = []part.OID{get.Table.OID}
	}
	var branches []plan.Node
	for _, leaf := range leaves {
		build, buildRepl, err := p.planNode(ctx, join.Left, nil)
		if err != nil {
			return nil, err
		}
		if !buildRepl {
			build = plan.NewMotion(plan.BroadcastMotion, nil, build)
		}
		leafScan := plan.NewLeafScan(get.Table, get.Rel, leaf)
		leafScan.WithRowID = true
		var probe plan.Node = leafScan
		if sel != nil {
			probe = plan.NewFilter(sel.Pred, probe)
		}
		branches = append(branches, plan.NewHashJoin(join.Type, buildKeys, probeKeys, residual, build, probe, join.Pred))
	}
	return plan.NewMotion(plan.GatherMotion, nil, wrap(plan.NewAppend(branches...))), nil
}

func (p *Planner) planSimpleDML(child logical.Node, rel int, wrap func(plan.Node) plan.Node) (plan.Node, error) {
	get, sel := probeGet(child)
	if get == nil || get.Rel != rel {
		return nil, fmt.Errorf("legacy: unsupported DML shape %T", child)
	}
	var leaves []part.OID
	if get.Table.IsPartitioned() {
		leaves = p.eliminateStatic(get, get.Table.Part, selPred(sel))
	} else {
		leaves = []part.OID{get.Table.OID}
	}
	var branches []plan.Node
	for _, leaf := range leaves {
		leafScan := plan.NewLeafScan(get.Table, get.Rel, leaf)
		leafScan.WithRowID = true
		var probe plan.Node = leafScan
		if sel != nil {
			probe = plan.NewFilter(sel.Pred, probe)
		}
		branches = append(branches, probe)
	}
	return plan.NewMotion(plan.GatherMotion, nil, wrap(plan.NewAppend(branches...))), nil
}
