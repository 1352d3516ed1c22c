package orca

import (
	"fmt"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// starCatalog builds a star schema for enumeration tests: a fact table
// range-partitioned on date_id with one join key per dimension, and dims
// small replicated key/value tables. No storage is attached — these tests
// exercise search structure and determinism, not execution.
func starCatalog(t testing.TB, dims int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	cols := []catalog.Column{{Name: "date_id", Kind: types.KindInt}}
	for i := 1; i <= dims; i++ {
		cols = append(cols, catalog.Column{Name: fmt.Sprintf("k%d", i), Kind: types.KindInt})
	}
	if _, err := cat.CreateTable("fact", cols,
		catalog.Hashed(1),
		part.RangeLevel(0, part.IntBounds(0, 240, 24)...),
	); err != nil {
		t.Fatalf("create fact: %v", err)
	}
	for i := 1; i <= dims; i++ {
		if _, err := cat.CreateTable(fmt.Sprintf("d%d", i),
			[]catalog.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}},
			catalog.Replicated(),
		); err != nil {
			t.Fatalf("create d%d: %v", i, err)
		}
	}
	return cat
}

// starQuery joins the fact (rel 1) to each dimension (rels 2..dims+1) in a
// left-deep chain, as a binder would emit it.
func starQuery(cat *catalog.Catalog, dims int) logical.Node {
	var n logical.Node = &logical.Get{Table: cat.MustTable("fact"), Rel: 1, Alias: "f"}
	for i := 1; i <= dims; i++ {
		d := &logical.Get{Table: cat.MustTable(fmt.Sprintf("d%d", i)), Rel: i + 1, Alias: fmt.Sprintf("d%d", i)}
		pred := expr.NewCmp(expr.EQ,
			col(1, i, fmt.Sprintf("f.k%d", i)),
			col(i+1, 0, fmt.Sprintf("d%d.k", i)))
		n = &logical.Join{Type: plan.InnerJoin, Pred: pred, Left: n, Right: d}
	}
	return n
}

// chainQuery joins t1-t2-...-tN on neighbouring keys.
func chainQuery(cat *catalog.Catalog, dims int) logical.Node {
	// Reuse the star tables but chain the dimensions: f-d1-d2-...; each
	// link's predicate touches only the two neighbours.
	var n logical.Node = &logical.Get{Table: cat.MustTable("fact"), Rel: 1, Alias: "f"}
	prevRel, prevName := 1, "f.k1"
	prevOrd := 1
	for i := 1; i <= dims; i++ {
		d := &logical.Get{Table: cat.MustTable(fmt.Sprintf("d%d", i)), Rel: i + 1, Alias: fmt.Sprintf("d%d", i)}
		pred := expr.NewCmp(expr.EQ,
			col(prevRel, prevOrd, prevName),
			col(i+1, 0, fmt.Sprintf("d%d.k", i)))
		n = &logical.Join{Type: plan.InnerJoin, Pred: pred, Left: n, Right: d}
		prevRel, prevOrd, prevName = i+1, 1, fmt.Sprintf("d%d.v", i)
	}
	return n
}

// noCrossJoins fails the test if any hash join in the plan has neither
// equi-keys nor a residual predicate.
func noCrossJoins(t *testing.T, p plan.Node) {
	t.Helper()
	plan.Walk(p, func(n plan.Node) bool {
		if hj, ok := n.(*plan.HashJoin); ok {
			if len(hj.BuildKeys) == 0 && hj.Residual == nil && hj.Cond == nil {
				t.Errorf("cross join in plan:\n%s", plan.Explain(p))
			}
		}
		return true
	})
}

// TestPlanDeterminism is the orca-level run-to-run determinism check: star
// and chain shapes compiled five times each must give byte-identical EXPLAIN
// text, the same root cost and the same search statistics. Map iteration is
// the one source of run-to-run variance a single-goroutine search has.
func TestPlanDeterminism(t *testing.T) {
	const dims = 8
	cat := starCatalog(t, dims)
	for name, q := range map[string]logical.Node{
		"star":  starQuery(cat, dims),
		"chain": chainQuery(cat, dims),
	} {
		base := &Optimizer{Segments: 4}
		want, err := base.Optimize(q)
		if err != nil {
			t.Fatalf("%s Optimize: %v", name, err)
		}
		wantText := plan.Explain(want)
		wantCost := rootCost(t, want)
		noCrossJoins(t, want)
		for rep := 1; rep < 5; rep++ {
			o := &Optimizer{Segments: 4}
			got, err := o.Optimize(q)
			if err != nil {
				t.Fatalf("%s run %d Optimize: %v", name, rep, err)
			}
			if gotText := plan.Explain(got); gotText != wantText {
				t.Fatalf("%s run %d plan differs:\n--- first ---\n%s--- run %d ---\n%s",
					name, rep, wantText, rep, gotText)
			}
			if c := rootCost(t, got); c != wantCost {
				t.Errorf("%s run %d cost %v != first run's %v", name, rep, c, wantCost)
			}
			if o.Stats.Groups != base.Stats.Groups || o.Stats.Entries != base.Stats.Entries {
				t.Errorf("%s run %d explored groups=%d entries=%d, first run groups=%d entries=%d",
					name, rep, o.Stats.Groups, o.Stats.Entries, base.Stats.Groups, base.Stats.Entries)
			}
		}
	}
}

func rootCost(t testing.TB, p plan.Node) float64 {
	t.Helper()
	if !plan.HasEstimates(p) {
		// The gather shell is unannotated; its child carries the cost.
		for _, c := range p.Children() {
			if plan.HasEstimates(c) {
				_, cost := plan.Estimates(c)
				return cost
			}
		}
		return 0
	}
	_, cost := plan.Estimates(p)
	return cost
}

// TestGreedyCutoff: above MaxDPLeaves the enumerator must switch to the
// greedy path — far fewer groups, still valid, still no cross joins.
func TestGreedyCutoff(t *testing.T) {
	const dims = 12
	cat := starCatalog(t, dims)
	q := starQuery(cat, dims)

	dp := &Optimizer{Segments: 4, MaxDPLeaves: 13}
	pDP, err := dp.Optimize(q)
	if err != nil {
		t.Fatalf("DP Optimize: %v", err)
	}
	greedy := &Optimizer{Segments: 4, MaxDPLeaves: 6}
	pG, err := greedy.Optimize(q)
	if err != nil {
		t.Fatalf("greedy Optimize: %v", err)
	}
	if dp.Stats.Groups <= greedy.Stats.Groups {
		t.Errorf("DP groups %d <= greedy groups %d — cutoff did not engage",
			dp.Stats.Groups, greedy.Stats.Groups)
	}
	noCrossJoins(t, pDP)
	noCrossJoins(t, pG)
}

// TestEnumerationPreservesTwoLeafShape: two-leaf joins take the pairwise
// path, keeping the seed optimizer's plans (the paper's Fig. 14 example is
// asserted in detail elsewhere; this guards the routing).
func TestEnumerationPreservesTwoLeafShape(t *testing.T) {
	cat, _, _ := paperSchema(t, 4)
	m := &memo{o: &Optimizer{Segments: 4}}
	g, err := m.insert(paperQuery(cat))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if len(m.groups) != 3 {
		t.Errorf("two-leaf insert built %d groups, want 3", len(m.groups))
	}
	if len(g.lexprs) != 2 {
		t.Errorf("join group has %d lexprs, want the commuted pair", len(g.lexprs))
	}
}

// TestEnumerationBuildsBushyGroups: a three-leaf chain must contain the
// subset group the as-written tree lacks ({d1, d2} for f-d1-d2 means
// {middle, right}), proving the search space actually grew.
func TestEnumerationBuildsBushyGroups(t *testing.T) {
	cat := starCatalog(t, 2)
	m := &memo{o: &Optimizer{Segments: 4}}
	if _, err := m.insert(chainQuery(cat, 2)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Leaves f, d1, d2 plus connected pairs {f,d1}, {d1,d2} and the full
	// set: 6 groups. The as-written tree only has 5.
	if len(m.groups) != 6 {
		t.Errorf("chain-3 enumeration built %d groups, want 6", len(m.groups))
	}
	found := false
	for _, g := range m.groups {
		if len(g.rels) == 2 && g.rels[2] && g.rels[3] {
			found = true
		}
	}
	if !found {
		t.Errorf("no {d1,d2} group — bushy alternative missing")
	}
}
