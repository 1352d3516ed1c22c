package orca

import (
	"fmt"
	"math/rand"
	"testing"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/logical"
	"partopt/internal/part"
	"partopt/internal/plan"
	"partopt/internal/types"
)

// Property fuzz for the join-order enumerator: on random connected join
// graphs (random topology, random partitioning and distribution layouts),
// the optimizer must never emit a cross join — a connecting predicate
// always exists, so the enumerator may not lose it.
func TestFuzzJoinGraphsNoCrossJoin(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	for iter := 0; iter < 40; iter++ {
		n := 3 + rnd.Intn(5) // 3..7 leaves
		cat := catalog.New()
		var leaves []*logical.Get
		for i := 0; i < n; i++ {
			dist := catalog.Hashed(rnd.Intn(3))
			if rnd.Intn(2) == 0 {
				dist = catalog.Replicated()
			}
			var levels []part.LevelSpec
			if rnd.Intn(2) == 0 {
				levels = append(levels, part.RangeLevel(rnd.Intn(3), part.IntBounds(0, 120, 12)...))
			}
			tab, err := cat.CreateTable(fmt.Sprintf("r%d", i),
				[]catalog.Column{
					{Name: "a", Kind: types.KindInt},
					{Name: "b", Kind: types.KindInt},
					{Name: "c", Kind: types.KindInt},
				}, dist, levels...)
			if err != nil {
				t.Fatalf("iter %d CreateTable: %v", iter, err)
			}
			leaves = append(leaves, &logical.Get{Table: tab, Rel: i + 1, Alias: fmt.Sprintf("r%d", i)})
		}

		// Random connected topology: each new leaf joins a random earlier
		// relation on random columns, so every split has a predicate.
		var q logical.Node = leaves[0]
		for i := 1; i < n; i++ {
			other := 1 + rnd.Intn(i) // rel id of an earlier leaf
			pred := expr.NewCmp(expr.EQ,
				col(other, rnd.Intn(3), "x"),
				col(i+1, rnd.Intn(3), "y"))
			q = &logical.Join{Type: plan.InnerJoin, Pred: pred, Left: q, Right: leaves[i]}
		}

		p, err := (&Optimizer{Segments: 3}).Optimize(q)
		if err != nil {
			t.Fatalf("iter %d Optimize: %v", iter, err)
		}
		noCrossJoins(t, p)
	}
}

// Regression (latent single-run assumption): Optimizer.Stats must describe
// exactly the last Optimize call, not accumulate across calls — noteSearch
// adds into the struct, so a missing reset would double the figures on
// reuse.
func TestOptimizerStatsResetPerRun(t *testing.T) {
	const dims = 4
	cat := starCatalog(t, dims)
	o := &Optimizer{Segments: 4}
	if _, err := o.Optimize(starQuery(cat, dims)); err != nil {
		t.Fatalf("first Optimize: %v", err)
	}
	first := o.Stats
	if _, err := o.Optimize(starQuery(cat, dims)); err != nil {
		t.Fatalf("second Optimize: %v", err)
	}
	if o.Stats.Groups != first.Groups || o.Stats.Entries != first.Entries {
		t.Errorf("Stats accumulated across runs: first %+v, second %+v", first, o.Stats)
	}
}

// Regression (shared-spec mutation contract): a spec's memoized request key
// must be computed from its final predicates. clone() starts a fresh cell,
// so augmenting the clone's Preds — as dynamic elimination does — yields a
// distinct key while the parent's stays stable.
func TestSpecKeyCloneIsolation(t *testing.T) {
	cat := starCatalog(t, 1)
	fact := cat.MustTable("fact")
	s := &SpecReq{
		ScanRel: 1,
		Table:   fact,
		Keys:    []expr.ColID{{Rel: 1, Ord: 0}},
		Preds:   make([]expr.Expr, 1),
	}
	base := s.key()
	if again := s.key(); again != base {
		t.Fatalf("key not stable: %q then %q", base, again)
	}
	ns := s.clone()
	ns.Preds[0] = expr.NewCmp(expr.LT, col(1, 0, "f.date_id"), expr.NewConst(types.NewInt(7)))
	if ns.key() == base {
		t.Errorf("clone with augmented Preds kept the parent key %q", base)
	}
	if s.key() != base {
		t.Errorf("parent key changed after clone mutation: %q != %q", s.key(), base)
	}
}
