package sql

import (
	"fmt"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// Bound is the result of semantic analysis: a logical tree plus result
// metadata.
type Bound struct {
	Root      logical.Node
	Columns   []string // output column names (empty for DML)
	NumParams int
	IsUpdate  bool

	// Presentation shell, applied above the optimized plan on the
	// coordinator: ORDER BY keys over the output columns, and LIMIT
	// (-1 when absent).
	OrderBy []plan.SortKey
	Limit   int64
}

// Bind resolves names against the catalog and lowers a parsed statement to
// the logical algebra. IN-subqueries become semi joins with the subquery on
// the build (first-executed) side — the shape that enables dynamic
// partition elimination (paper Fig. 4).
func Bind(cat *catalog.Catalog, stmt Statement) (*Bound, error) {
	b := &binder{cat: cat, nextRel: 1}
	switch s := stmt.(type) {
	case *SelectStmt:
		root, cols, err := b.bindSelect(s)
		if err != nil {
			return nil, err
		}
		order, err := resolveOrderBy(s.OrderBy, cols)
		if err != nil {
			return nil, err
		}
		return &Bound{Root: root, Columns: cols, NumParams: b.numParams, OrderBy: order, Limit: s.Limit}, nil
	case *UpdateStmt:
		root, err := b.bindUpdate(s)
		if err != nil {
			return nil, err
		}
		return &Bound{Root: root, Columns: []string{"updated"}, NumParams: b.numParams, IsUpdate: true, Limit: -1}, nil
	case *DeleteStmt:
		root, err := b.bindDelete(s)
		if err != nil {
			return nil, err
		}
		return &Bound{Root: root, Columns: []string{"deleted"}, NumParams: b.numParams, IsUpdate: true, Limit: -1}, nil
	default:
		return nil, fmt.Errorf("sql: cannot bind %T", stmt)
	}
}

// relRef is one in-scope relation.
type relRef struct {
	alias string
	tab   *catalog.Table
	rel   int
}

type binder struct {
	cat       *catalog.Catalog
	nextRel   int
	numParams int
	colKinds  map[expr.ColID]types.Kind
}

type scope struct {
	rels []relRef
}

func (s *scope) lookup(qual, name string) (relRef, int, error) {
	var found []relRef
	var ord int
	for _, r := range s.rels {
		if qual != "" && r.alias != qual {
			continue
		}
		if o, ok := r.tab.ColOrd(name); ok {
			found = append(found, r)
			ord = o
		} else if qual != "" {
			return relRef{}, 0, fmt.Errorf("sql: column %q not found in %s", name, qual)
		}
	}
	switch len(found) {
	case 0:
		if qual != "" {
			return relRef{}, 0, fmt.Errorf("sql: unknown table or alias %q", qual)
		}
		return relRef{}, 0, fmt.Errorf("sql: unknown column %q", name)
	case 1:
		return found[0], ord, nil
	default:
		return relRef{}, 0, fmt.Errorf("sql: ambiguous column %q", name)
	}
}

func (b *binder) addTables(sc *scope, refs []TableRef) error {
	for _, ref := range refs {
		tab, ok := b.cat.Table(ref.Name)
		if !ok {
			return fmt.Errorf("sql: unknown table %q", ref.Name)
		}
		for _, r := range sc.rels {
			if r.alias == ref.Alias {
				return fmt.Errorf("sql: duplicate table alias %q", ref.Alias)
			}
		}
		rel := b.nextRel
		b.nextRel++
		sc.rels = append(sc.rels, relRef{alias: ref.Alias, tab: tab, rel: rel})
		if b.colKinds == nil {
			b.colKinds = map[expr.ColID]types.Kind{}
		}
		for ord, col := range tab.Cols {
			b.colKinds[expr.ColID{Rel: rel, Ord: ord}] = col.Kind
		}
	}
	return nil
}

// semiJoinSpec records one IN-subquery lifted out of the WHERE clause.
type semiJoinSpec struct {
	probe expr.Expr    // the outer expression
	sub   logical.Node // the bound subquery core
	subE  expr.Expr    // the subquery's single output expression
}

func (b *binder) bindSelect(s *SelectStmt) (logical.Node, []string, error) {
	sc := &scope{}
	if err := b.addTables(sc, s.From); err != nil {
		return nil, nil, err
	}

	// Split WHERE into conjuncts; lift IN-subqueries into semi joins.
	var conjuncts []expr.Expr
	var semis []semiJoinSpec
	for _, c := range splitAnd(s.Where) {
		if in, ok := c.(*InExpr); ok && in.Sub != nil {
			spec, err := b.bindSubquery(sc, in)
			if err != nil {
				return nil, nil, err
			}
			semis = append(semis, *spec)
			continue
		}
		e, err := b.bindExpr(sc, c)
		if err != nil {
			return nil, nil, err
		}
		conjuncts = append(conjuncts, e)
	}

	tree, rest, err := b.buildJoinTree(sc, s.From, conjuncts)
	if err != nil {
		return nil, nil, err
	}
	// Semi joins: subquery on the build side, current tree as probe.
	for _, semi := range semis {
		tree = &logical.Join{
			Type:  plan.SemiJoin,
			Pred:  expr.NewCmp(expr.EQ, semi.probe, semi.subE),
			Left:  semi.sub,
			Right: tree,
		}
	}
	if rest != nil {
		tree = &logical.Select{Pred: rest, Child: tree}
	}

	return b.bindSelectList(sc, s, tree)
}

// buildJoinTree joins the scope's tables left-deep in FROM order,
// attaching each conjunct at the lowest point all its relations are
// available. It returns the tree and any leftover predicate.
//
// refs parallels sc.rels and carries the FROM clause's explicit join
// structure; outer-join steps keep their ON predicate on the join node.
// WHERE conjuncts that touch a relation exposed on the null-producing side
// of any outer join are never pushed into the tree — SQL applies WHERE
// after the joins, and below the join such a conjunct would see pre-NULL-
// extension rows — so they surface in the leftover predicate instead.
// A nil refs (DML sources) means every step is a plain inner join.
func (b *binder) buildJoinTree(sc *scope, refs []TableRef, conjuncts []expr.Expr) (logical.Node, expr.Expr, error) {
	if len(sc.rels) == 0 {
		return nil, nil, fmt.Errorf("sql: empty FROM clause")
	}
	joinOf := func(i int) JoinKind {
		if i < len(refs) {
			return refs[i].Join
		}
		return JoinNone
	}
	// Relations that can be NULL-extended by some outer join in the chain:
	// a LEFT JOIN nullifies the newly joined table, a RIGHT JOIN nullifies
	// everything joined before it.
	nullable := map[int]bool{}
	for i, r := range sc.rels {
		switch joinOf(i) {
		case JoinLeft:
			nullable[r.rel] = true
		case JoinRight:
			for _, prev := range sc.rels[:i] {
				nullable[prev.rel] = true
			}
		}
	}
	blocked := func(c expr.Expr) bool {
		for id := range expr.ColsUsed(c) {
			if nullable[id.Rel] {
				return true
			}
		}
		return false
	}
	used := make([]bool, len(conjuncts))
	avail := map[int]bool{}

	attach := func(node logical.Node, newRel int) logical.Node {
		avail[newRel] = true
		var preds []expr.Expr
		for i, c := range conjuncts {
			if used[i] || blocked(c) {
				continue
			}
			ok := true
			touchesNew := false
			for id := range expr.ColsUsed(c) {
				if !avail[id.Rel] {
					ok = false
					break
				}
				if id.Rel == newRel {
					touchesNew = true
				}
			}
			if ok && touchesNew {
				used[i] = true
				preds = append(preds, c)
			}
		}
		if p := expr.Conj(preds...); p != nil {
			return &logical.Select{Pred: p, Child: node}
		}
		return node
	}

	first := sc.rels[0]
	var tree logical.Node = &logical.Get{Table: first.tab, Rel: first.rel, Alias: first.alias}
	tree = attach(tree, first.rel)
	for ri := 1; ri < len(sc.rels); ri++ {
		r := sc.rels[ri]
		right := logical.Node(&logical.Get{Table: r.tab, Rel: r.rel, Alias: r.alias})
		if kind := joinOf(ri); kind == JoinLeft || kind == JoinRight {
			// WHERE conjuncts on the new relation go above its Get when no
			// outer join NULL-extends it (a RIGHT JOIN's preserved side),
			// as they do for the first relation of a LEFT JOIN.
			node, err := b.bindOuterJoin(sc, refs[ri], tree, attach(right, r.rel), r, avail)
			if err != nil {
				return nil, nil, err
			}
			avail[r.rel] = true
			tree = node
			continue
		}
		// Single-relation predicates go directly above the Get.
		var joinPreds, rightPreds []expr.Expr
		avail[r.rel] = true
		for i, c := range conjuncts {
			if used[i] || blocked(c) {
				continue
			}
			onlyRight := true
			allAvail := true
			touches := false
			for id := range expr.ColsUsed(c) {
				if id.Rel != r.rel {
					onlyRight = false
				} else {
					touches = true
				}
				if !avail[id.Rel] {
					allAvail = false
				}
			}
			if !touches || !allAvail {
				continue
			}
			used[i] = true
			if onlyRight {
				rightPreds = append(rightPreds, c)
			} else {
				joinPreds = append(joinPreds, c)
			}
		}
		if p := expr.Conj(rightPreds...); p != nil {
			right = &logical.Select{Pred: p, Child: right}
		}
		tree = &logical.Join{
			Type:  plan.InnerJoin,
			Pred:  expr.Conj(joinPreds...),
			Left:  tree,
			Right: right,
		}
	}
	var rest []expr.Expr
	for i, c := range conjuncts {
		if !used[i] {
			rest = append(rest, c)
		}
	}
	return tree, expr.Conj(rest...), nil
}

// bindOuterJoin lowers one LEFT/RIGHT OUTER JOIN step onto the tree built
// so far. ON conjuncts that reference only the null-producing side are
// pushed into that side (they filter match candidates, which is exactly
// what pushing achieves); every other conjunct stays on the join node,
// where a failed match NULL-extends the preserved row instead of
// discarding it.
func (b *binder) bindOuterJoin(sc *scope, ref TableRef, tree, right logical.Node, r relRef, avail map[int]bool) (logical.Node, error) {
	if ref.On == nil {
		return nil, fmt.Errorf("sql: outer join with %q needs an ON clause", ref.Name)
	}
	var joinPreds, nullSidePreds []expr.Expr
	for _, c := range splitAnd(ref.On) {
		e, err := b.bindExpr(sc, c)
		if err != nil {
			return nil, err
		}
		onlyNew, onlyTree := true, true
		for id := range expr.ColsUsed(e) {
			if id.Rel == r.rel {
				onlyTree = false
			} else if avail[id.Rel] {
				onlyNew = false
			} else {
				return nil, fmt.Errorf("sql: ON predicate %s references a relation joined later", e)
			}
		}
		nullSideOnly := (ref.Join == JoinLeft && onlyNew) || (ref.Join == JoinRight && onlyTree)
		if nullSideOnly {
			nullSidePreds = append(nullSidePreds, e)
		} else {
			joinPreds = append(joinPreds, e)
		}
	}
	if p := expr.Conj(nullSidePreds...); p != nil {
		if ref.Join == JoinLeft {
			right = &logical.Select{Pred: p, Child: right}
		} else {
			tree = &logical.Select{Pred: p, Child: tree}
		}
	}
	// Positional mapping: the tree built so far is the first (build) child,
	// so LEFT preserves the build side and RIGHT preserves the probe side.
	jt := plan.LeftOuterJoin
	if ref.Join == JoinRight {
		jt = plan.RightOuterJoin
	}
	return &logical.Join{Type: jt, Pred: expr.Conj(joinPreds...), Left: tree, Right: right}, nil
}

// bindSubquery binds an uncorrelated IN-subquery.
func (b *binder) bindSubquery(outer *scope, in *InExpr) (*semiJoinSpec, error) {
	sub := in.Sub
	if sub.Star || len(sub.Items) != 1 {
		return nil, fmt.Errorf("sql: IN subquery must select exactly one expression")
	}
	if len(sub.GroupBy) > 0 || hasAggregates(sub.Items) {
		return nil, fmt.Errorf("sql: aggregates in IN subqueries are not supported")
	}
	if len(sub.OrderBy) > 0 || sub.Limit >= 0 {
		return nil, fmt.Errorf("sql: ORDER BY/LIMIT in IN subqueries are not supported")
	}
	sc := &scope{}
	if err := b.addTables(sc, sub.From); err != nil {
		return nil, err
	}
	var conjuncts []expr.Expr
	for _, c := range splitAnd(sub.Where) {
		if inner, ok := c.(*InExpr); ok && inner.Sub != nil {
			return nil, fmt.Errorf("sql: nested IN subqueries are not supported")
		}
		e, err := b.bindExpr(sc, c)
		if err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, e)
	}
	tree, rest, err := b.buildJoinTree(sc, sub.From, conjuncts)
	if err != nil {
		return nil, err
	}
	if rest != nil {
		tree = &logical.Select{Pred: rest, Child: tree}
	}
	subE, err := b.bindExpr(sc, sub.Items[0].E)
	if err != nil {
		return nil, err
	}
	probe, err := b.bindExpr(outer, in.E)
	if err != nil {
		return nil, err
	}
	probe, subE = b.coercePair(probe, subE)
	return &semiJoinSpec{probe: probe, sub: tree, subE: subE}, nil
}

func hasAggregates(items []SelectItem) bool {
	for _, it := range items {
		if _, ok := it.E.(*FuncCall); ok {
			return true
		}
	}
	return false
}

// bindSelectList attaches GroupBy and Project shells for the SELECT list.
func (b *binder) bindSelectList(sc *scope, s *SelectStmt, tree logical.Node) (logical.Node, []string, error) {
	if s.Star {
		if len(s.GroupBy) > 0 {
			return nil, nil, fmt.Errorf("sql: SELECT * with GROUP BY is not supported")
		}
		projRel := b.nextRel
		b.nextRel++
		var cols []plan.ProjCol
		var names []string
		for _, r := range sc.rels {
			for ord, c := range r.tab.Cols {
				id := expr.ColID{Rel: r.rel, Ord: ord}
				name := c.Name
				if len(sc.rels) > 1 {
					name = r.alias + "." + c.Name
				}
				cols = append(cols, plan.ProjCol{
					E:    expr.NewCol(id, name),
					Name: name,
					Out:  expr.ColID{Rel: projRel, Ord: len(cols)},
				})
				names = append(names, name)
			}
		}
		return &logical.Project{Cols: cols, Child: tree}, names, nil
	}

	// Classify items into aggregates and plain expressions.
	hasAgg := false
	for _, it := range s.Items {
		if _, ok := it.E.(*FuncCall); ok {
			hasAgg = true
		}
	}
	if !hasAgg && len(s.GroupBy) == 0 {
		projRel := b.nextRel
		b.nextRel++
		var cols []plan.ProjCol
		var names []string
		for i, it := range s.Items {
			e, err := b.bindExpr(sc, it.E)
			if err != nil {
				return nil, nil, err
			}
			name := outputName(it, e)
			cols = append(cols, plan.ProjCol{E: e, Name: name, Out: expr.ColID{Rel: projRel, Ord: i}})
			names = append(names, name)
		}
		return &logical.Project{Cols: cols, Child: tree}, names, nil
	}

	// Aggregation query: GROUP BY expressions plus aggregate items.
	aggRel := b.nextRel
	b.nextRel++
	var groups []plan.GroupCol
	groupOut := map[string]expr.ColID{} // bound expr string → output col
	for _, ge := range s.GroupBy {
		e, err := b.bindExpr(sc, ge)
		if err != nil {
			return nil, nil, err
		}
		out := expr.ColID{Rel: aggRel, Ord: len(groups)}
		groups = append(groups, plan.GroupCol{E: e, Name: e.String(), Out: out})
		groupOut[e.String()] = out
	}
	var aggs []plan.AggSpec
	projRel := b.nextRel
	b.nextRel++
	var cols []plan.ProjCol
	var names []string
	for i, it := range s.Items {
		name := it.Alias
		if fc, ok := it.E.(*FuncCall); ok {
			spec := plan.AggSpec{Out: expr.ColID{Rel: aggRel, Ord: len(groups) + len(aggs)}}
			switch fc.Name {
			case "COUNT":
				spec.Kind = plan.AggCount
			case "SUM":
				spec.Kind = plan.AggSum
			case "AVG":
				spec.Kind = plan.AggAvg
			case "MIN":
				spec.Kind = plan.AggMin
			case "MAX":
				spec.Kind = plan.AggMax
			default:
				return nil, nil, fmt.Errorf("sql: unknown aggregate %q", fc.Name)
			}
			if !fc.Star {
				arg, err := b.bindExpr(sc, fc.Arg)
				if err != nil {
					return nil, nil, err
				}
				spec.Arg = arg
			}
			if name == "" {
				name = fmt.Sprintf("%s_%d", plan.AggKind(spec.Kind).String(), i+1)
			}
			spec.Name = name
			aggs = append(aggs, spec)
			cols = append(cols, plan.ProjCol{
				E: expr.NewCol(spec.Out, name), Name: name, Out: expr.ColID{Rel: projRel, Ord: i},
			})
			names = append(names, name)
			continue
		}
		e, err := b.bindExpr(sc, it.E)
		if err != nil {
			return nil, nil, err
		}
		out, ok := groupOut[e.String()]
		if !ok {
			return nil, nil, fmt.Errorf("sql: %s must appear in GROUP BY", e)
		}
		if name == "" {
			name = outputName(it, e)
		}
		cols = append(cols, plan.ProjCol{E: expr.NewCol(out, name), Name: name, Out: expr.ColID{Rel: projRel, Ord: i}})
		names = append(names, name)
	}
	gb := &logical.GroupBy{Groups: groups, Aggs: aggs, Child: tree}
	return &logical.Project{Cols: cols, Child: gb}, names, nil
}

func (b *binder) bindUpdate(s *UpdateStmt) (logical.Node, error) {
	sc := &scope{}
	// FROM tables first (they form the build side), then the target.
	if err := b.addTables(sc, s.From); err != nil {
		return nil, err
	}
	if err := b.addTables(sc, []TableRef{s.Table}); err != nil {
		return nil, err
	}
	target := sc.rels[len(sc.rels)-1]

	var conjuncts []expr.Expr
	for _, c := range splitAnd(s.Where) {
		if in, ok := c.(*InExpr); ok && in.Sub != nil {
			return nil, fmt.Errorf("sql: IN subqueries in UPDATE are not supported")
		}
		e, err := b.bindExpr(sc, c)
		if err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, e)
	}

	var sets []plan.SetClause
	for _, item := range s.Sets {
		ord, ok := target.tab.ColOrd(item.Col)
		if !ok {
			return nil, fmt.Errorf("sql: table %q has no column %q", target.tab.Name, item.Col)
		}
		e, err := b.bindExpr(sc, item.E)
		if err != nil {
			return nil, err
		}
		sets = append(sets, plan.SetClause{Ord: ord, Value: e})
	}

	child, err := b.buildDMLChild(sc, len(s.From) > 0, target, conjuncts)
	if err != nil {
		return nil, err
	}
	return &logical.Update{Table: target.tab, Rel: target.rel, Sets: sets, Child: child}, nil
}

func (b *binder) bindDelete(s *DeleteStmt) (logical.Node, error) {
	sc := &scope{}
	if err := b.addTables(sc, s.Using); err != nil {
		return nil, err
	}
	if err := b.addTables(sc, []TableRef{s.Table}); err != nil {
		return nil, err
	}
	target := sc.rels[len(sc.rels)-1]

	var conjuncts []expr.Expr
	for _, c := range splitAnd(s.Where) {
		if in, ok := c.(*InExpr); ok && in.Sub != nil {
			return nil, fmt.Errorf("sql: IN subqueries in DELETE are not supported")
		}
		e, err := b.bindExpr(sc, c)
		if err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, e)
	}
	child, err := b.buildDMLChild(sc, len(s.Using) > 0, target, conjuncts)
	if err != nil {
		return nil, err
	}
	return &logical.Delete{Table: target.tab, Rel: target.rel, Child: child}, nil
}

// buildDMLChild constructs a DML statement's row source: the target alone
// under its predicates, or the source tables joined to the target, which is
// the probe side so its rows keep their storage identity.
func (b *binder) buildDMLChild(sc *scope, hasSources bool, target relRef, conjuncts []expr.Expr) (logical.Node, error) {
	if !hasSources {
		var targetOnly logical.Node = &logical.Get{Table: target.tab, Rel: target.rel, Alias: target.alias}
		if p := expr.Conj(conjuncts...); p != nil {
			targetOnly = &logical.Select{Pred: p, Child: targetOnly}
		}
		return targetOnly, nil
	}
	fromScope := &scope{rels: sc.rels[:len(sc.rels)-1]}
	var fromPreds, joinPreds, targetPreds []expr.Expr
	for _, c := range conjuncts {
		usesTarget, usesFrom := false, false
		for id := range expr.ColsUsed(c) {
			if id.Rel == target.rel {
				usesTarget = true
			} else {
				usesFrom = true
			}
		}
		switch {
		case usesTarget && usesFrom:
			joinPreds = append(joinPreds, c)
		case usesTarget:
			targetPreds = append(targetPreds, c)
		default:
			fromPreds = append(fromPreds, c)
		}
	}
	buildTree, rest, err := b.buildJoinTree(fromScope, nil, fromPreds)
	if err != nil {
		return nil, err
	}
	if rest != nil {
		buildTree = &logical.Select{Pred: rest, Child: buildTree}
	}
	var probe logical.Node = &logical.Get{Table: target.tab, Rel: target.rel, Alias: target.alias}
	if p := expr.Conj(targetPreds...); p != nil {
		probe = &logical.Select{Pred: p, Child: probe}
	}
	return &logical.Join{
		Type:  plan.InnerJoin,
		Pred:  expr.Conj(joinPreds...),
		Left:  buildTree,
		Right: probe,
	}, nil
}

// outputName picks a select item's output column name: the explicit alias,
// a bare column's base name, or the expression's rendering.
func outputName(it SelectItem, bound expr.Expr) string {
	if it.Alias != "" {
		return it.Alias
	}
	if id, ok := it.E.(*Ident); ok {
		return id.Name
	}
	return bound.String()
}

// resolveOrderBy maps ORDER BY items to output-column positions: a 1-based
// integer literal ordinal, or the name/alias of an output column.
func resolveOrderBy(items []OrderItem, cols []string) ([]plan.SortKey, error) {
	var keys []plan.SortKey
	for _, item := range items {
		switch x := item.E.(type) {
		case *Lit:
			if x.Val.Kind() != types.KindInt {
				return nil, fmt.Errorf("sql: ORDER BY literal must be an integer ordinal")
			}
			ord := x.Val.Int()
			if ord < 1 || ord > int64(len(cols)) {
				return nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range 1..%d", ord, len(cols))
			}
			keys = append(keys, plan.SortKey{Pos: int(ord - 1), Desc: item.Desc})
		case *Ident:
			if x.Qual != "" {
				return nil, fmt.Errorf("sql: ORDER BY must reference an output column name or ordinal")
			}
			pos := -1
			for i, name := range cols {
				if name == x.Name {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("sql: ORDER BY column %q is not in the output", x.Name)
			}
			keys = append(keys, plan.SortKey{Pos: pos, Desc: item.Desc})
		default:
			return nil, fmt.Errorf("sql: ORDER BY supports output columns and ordinals only")
		}
	}
	return keys, nil
}

// splitAnd flattens the AST's AND chain.
func splitAnd(n Node) []Node {
	if n == nil {
		return nil
	}
	if b, ok := n.(*BinOp); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Node{n}
}

// bindExpr lowers one scalar AST node.
func (b *binder) bindExpr(sc *scope, n Node) (expr.Expr, error) {
	switch x := n.(type) {
	case *Ident:
		r, ord, err := sc.lookup(x.Qual, x.Name)
		if err != nil {
			return nil, err
		}
		return expr.NewCol(expr.ColID{Rel: r.rel, Ord: ord}, r.alias+"."+x.Name), nil
	case *Lit:
		return expr.NewConst(x.Val), nil
	case *ParamRef:
		if x.Idx+1 > b.numParams {
			b.numParams = x.Idx + 1
		}
		return &expr.Param{Idx: x.Idx}, nil
	case *BinOp:
		l, err := b.bindExpr(sc, x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(sc, x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "AND":
			return expr.Conj(l, r), nil
		case "OR":
			return expr.Disj(l, r), nil
		case "=", "<>", "<", "<=", ">", ">=":
			l, r = b.coercePair(l, r)
			return expr.NewCmp(cmpOp(x.Op), l, r), nil
		case "+", "-", "*", "/", "%":
			return &expr.Arith{Op: arithOp(x.Op), L: l, R: r}, nil
		}
		return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
	case *NotExpr:
		arg, err := b.bindExpr(sc, x.Arg)
		if err != nil {
			return nil, err
		}
		return &expr.Not{Arg: arg}, nil
	case *BetweenExpr:
		e, err := b.bindExpr(sc, x.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(sc, x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(sc, x.Hi)
		if err != nil {
			return nil, err
		}
		_, lo = b.coercePair(e, lo)
		_, hi = b.coercePair(e, hi)
		return expr.Between(e, lo, hi), nil
	case *InExpr:
		if x.Sub != nil {
			return nil, fmt.Errorf("sql: IN subquery allowed only as a top-level WHERE conjunct")
		}
		e, err := b.bindExpr(sc, x.E)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(x.List))
		for i, item := range x.List {
			le, err := b.bindExpr(sc, item)
			if err != nil {
				return nil, err
			}
			_, le = b.coercePair(e, le)
			list[i] = le
		}
		return &expr.InList{Arg: e, List: list}, nil
	case *IsNullExpr:
		e, err := b.bindExpr(sc, x.E)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Arg: e, Negate: x.Negate}, nil
	case *FuncCall:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", x.Name)
	}
	return nil, fmt.Errorf("sql: cannot bind %T", n)
}

func cmpOp(op string) expr.CmpOp {
	switch op {
	case "=":
		return expr.EQ
	case "<>":
		return expr.NE
	case "<":
		return expr.LT
	case "<=":
		return expr.LE
	case ">":
		return expr.GT
	}
	return expr.GE
}

func arithOp(op string) expr.ArithOp {
	switch op {
	case "+":
		return expr.Add
	case "-":
		return expr.Sub
	case "*":
		return expr.Mul
	case "/":
		return expr.Div
	}
	return expr.Mod
}

// coercePair converts a string literal to a date when compared with a
// date-kinded expression, so `date BETWEEN '2013-10-01' AND ...` works as
// it does in SQL.
func (b *binder) coercePair(l, r expr.Expr) (expr.Expr, expr.Expr) {
	lk, rk := b.kindOf(l), b.kindOf(r)
	if lk == types.KindDate && rk == types.KindString {
		if c, ok := r.(*expr.Const); ok {
			if d, err := types.ParseDate(c.Val.Str()); err == nil {
				return l, expr.NewConst(d)
			}
		}
	}
	if rk == types.KindDate && lk == types.KindString {
		if c, ok := l.(*expr.Const); ok {
			if d, err := types.ParseDate(c.Val.Str()); err == nil {
				return expr.NewConst(d), r
			}
		}
	}
	return l, r
}

// kindOf infers a coarse type for coercion decisions. Column kinds come
// from the catalog via the binder's reverse map; since layouts carry no
// types at this point, we track them on the expression itself.
func (b *binder) kindOf(e expr.Expr) types.Kind {
	switch x := e.(type) {
	case *expr.Const:
		return x.Val.Kind()
	case *expr.Col:
		if k, ok := b.colKinds[x.ID]; ok {
			return k
		}
		return types.KindNull
	case *expr.Arith:
		return types.KindFloat
	}
	return types.KindNull
}

// BindInsert resolves an INSERT statement to concrete rows: expressions
// must be constant (literals, parameters, arithmetic over them), string
// literals coerce to dates for date columns, and an explicit column list
// reorders values with NULLs for the unnamed columns.
func BindInsert(cat *catalog.Catalog, s *InsertStmt, params []types.Datum) (*catalog.Table, []types.Row, error) {
	tab, ok := cat.Table(s.Table)
	if !ok {
		return nil, nil, fmt.Errorf("sql: unknown table %q", s.Table)
	}
	// Map value positions to column ordinals.
	ords := make([]int, 0, len(tab.Cols))
	if len(s.Cols) == 0 {
		for i := range tab.Cols {
			ords = append(ords, i)
		}
	} else {
		seen := map[int]bool{}
		for _, name := range s.Cols {
			ord, ok := tab.ColOrd(name)
			if !ok {
				return nil, nil, fmt.Errorf("sql: table %q has no column %q", s.Table, name)
			}
			if seen[ord] {
				return nil, nil, fmt.Errorf("sql: column %q named twice", name)
			}
			seen[ord] = true
			ords = append(ords, ord)
		}
	}

	b := &binder{cat: cat, nextRel: 1}
	sc := &scope{}
	var rows []types.Row
	for ri, astRow := range s.Rows {
		if len(astRow) != len(ords) {
			return nil, nil, fmt.Errorf("sql: row %d has %d values, want %d", ri+1, len(astRow), len(ords))
		}
		row := make(types.Row, len(tab.Cols)) // unnamed columns default to NULL
		for vi, node := range astRow {
			e, err := b.bindExpr(sc, node)
			if err != nil {
				return nil, nil, err
			}
			v, ok, err := expr.EvalConst(e, params)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				return nil, nil, fmt.Errorf("sql: INSERT values must be constant expressions")
			}
			ord := ords[vi]
			if tab.Cols[ord].Kind == types.KindDate && v.Kind() == types.KindString {
				d, err := types.ParseDate(v.Str())
				if err != nil {
					return nil, nil, err
				}
				v = d
			}
			row[ord] = v
		}
		rows = append(rows, row)
	}
	return tab, rows, nil
}
