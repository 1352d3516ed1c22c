package orca

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"partopt/internal/expr"
	"partopt/internal/types"
)

// refDistKey and refRequestKey are the string rendering the memo keyed
// g.best with before requests were interned. They are the reference the
// interned key must split requests exactly as.
func refDistKey(d DistSpec) string {
	if d.Kind != HashedDist {
		return d.Kind.String()
	}
	var b strings.Builder
	b.WriteString("hashed(")
	for i, c := range d.Cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('t')
		b.WriteString(strconv.Itoa(c.Rel))
		b.WriteString(".c")
		b.WriteString(strconv.Itoa(c.Ord))
	}
	b.WriteByte(')')
	return b.String()
}

func refRequestKey(r request) string {
	var b strings.Builder
	b.WriteString(refDistKey(r.dist))
	// Order-insensitive across scans: a stable sort by ScanRel.
	specs := append([]*SpecReq(nil), r.specs...)
	for i := 1; i < len(specs); i++ {
		for j := i; j > 0 && specs[j-1].ScanRel > specs[j].ScanRel; j-- {
			specs[j-1], specs[j] = specs[j], specs[j-1]
		}
	}
	for _, s := range specs {
		b.WriteByte('|')
		b.WriteString(s.key())
	}
	return b.String()
}

// keyCases builds the requests of the key-equivalence tests: every
// distribution shape crossed with spec lists that reorder, clone and
// re-predicate specs.
func keyCases(t *testing.T) []request {
	cat := starCatalog(t, 1)
	fact := cat.MustTable("fact")
	spec := func(rel int, bound int64) *SpecReq {
		s := &SpecReq{
			ScanRel: rel,
			Table:   fact,
			Keys:    []expr.ColID{{Rel: rel, Ord: 0}},
			Preds:   make([]expr.Expr, 1),
		}
		if bound >= 0 {
			s.Preds[0] = expr.NewCmp(expr.LT, col(rel, 0, fmt.Sprintf("r%d.date_id", rel)), expr.NewConst(types.NewInt(bound)))
		}
		return s
	}
	a, b, c := spec(1, -1), spec(1, 7), spec(1, 9) // one scan, three predicates
	a2, b2 := a.clone(), b.clone()                 // equal predicates, new specs
	var others []*SpecReq                          // scans 2..7
	for rel := 2; rel <= 7; rel++ {
		others = append(others, spec(rel, int64(rel)))
	}
	seven := append([]*SpecReq{b}, others...)
	sevenRev := make([]*SpecReq, len(seven))
	for i, s := range seven {
		sevenRev[len(seven)-1-i] = s
	}
	sevenMixed := []*SpecReq{others[3], b2, others[0], others[5], others[1], others[4], others[2]}
	specLists := [][]*SpecReq{
		nil,
		{a}, {a2}, {b}, {b2}, {c}, {others[0]},
		{a, b}, {b, a}, {b, b2}, {b2, b},
		{a, others[0]}, {others[0], a},
		{b, others[0], c}, {c, others[0], b}, {others[0], b, c},
		seven, sevenRev, sevenMixed,
	}

	c1 := expr.ColID{Rel: 1, Ord: 1}
	c2 := expr.ColID{Rel: 2, Ord: 0}
	cid := func(rel, ord int) expr.ColID { return expr.ColID{Rel: rel, Ord: ord} }
	six := []expr.ColID{cid(1, 1), cid(1, 2), cid(2, 0), cid(3, 0), cid(4, 0), cid(5, 3)}
	sixPerm := []expr.ColID{cid(1, 2), cid(1, 1), cid(2, 0), cid(3, 0), cid(4, 0), cid(5, 3)}
	dists := []DistSpec{
		AnySpec(), Replicated(), Singleton(),
		{Kind: ReplicatedDist, Cols: []expr.ColID{c1}}, // columns ignored
		HashedOn(), HashedOn(c1), HashedOn(c2),
		HashedOn(c1, c2), HashedOn(c2, c1), HashedOn(append([]expr.ColID(nil), c1, c2)...),
		HashedOn(six...), HashedOn(sixPerm...), HashedOn(append([]expr.ColID(nil), six...)...),
	}

	var reqs []request
	for _, d := range dists {
		for _, specs := range specLists {
			reqs = append(reqs, request{dist: d, specs: specs})
		}
	}
	return reqs
}

// TestRequestKeyMatchesReference: two requests share a memo entry exactly
// when their reference strings are equal.
func TestRequestKeyMatchesReference(t *testing.T) {
	reqs := keyCases(t)
	m := &memo{o: &Optimizer{Segments: 4}}
	g := m.newGroup(map[int]bool{})
	entries := make([]*bestEntry, len(reqs))
	refs := make([]string, len(reqs))
	for i, r := range reqs {
		refs[i] = refRequestKey(r)
		entries[i], _ = m.entry(g, r)
	}
	distinct := map[string]bool{}
	for i := range reqs {
		distinct[refs[i]] = true
		for j := range reqs {
			if same := entries[i] == entries[j]; same != (refs[i] == refs[j]) {
				t.Errorf("requests %q and %q: shared entry %v, equal reference keys %v",
					refs[i], refs[j], same, refs[i] == refs[j])
			}
		}
	}
	// A second pass hits every entry the first pass added.
	for i, r := range reqs {
		if e, hit := m.entry(g, r); !hit || e != entries[i] {
			t.Errorf("request %q: second lookup hit=%v, same entry %v", refs[i], hit, e == entries[i])
		}
	}
	// 10 distinct distributions (Replicated with columns is Replicated; a
	// copied column list is the list) times 12 distinct spec lists (clones
	// with equal predicates merge, as do reorders across scans).
	if len(distinct) != 120 {
		t.Errorf("%d distinct requests among %d cases, want 120", len(distinct), len(reqs))
	}
}

// TestRequestKeyForcedCollision: distinct requests under one hash value get
// separate entries, and each lookup finds its own.
func TestRequestKeyForcedCollision(t *testing.T) {
	g := &group{best: map[uint64]*bestEntry{}}
	const h = 42
	c1, c2 := expr.ColID{Rel: 1, Ord: 1}, expr.ColID{Rel: 2, Ord: 0}
	type identity struct {
		dist DistSpec
		ids  []int32
	}
	ids := []identity{
		{AnySpec(), nil},
		{AnySpec(), []int32{0}},
		{AnySpec(), []int32{0, 1}},
		{AnySpec(), []int32{1, 0}},
		{Replicated(), []int32{0, 1}},
		{HashedOn(c1, c2), []int32{0, 1}},
		{HashedOn(c2, c1), []int32{0, 1}},
	}
	added := make([]*bestEntry, len(ids))
	for i, id := range ids {
		if g.lookup(h, id.dist, id.ids) != nil {
			t.Fatalf("identity %d found before it was added", i)
		}
		added[i] = g.add(h, id.dist, id.ids)
	}
	for i, id := range ids {
		if e := g.lookup(h, id.dist, id.ids); e != added[i] {
			t.Errorf("identity %d: lookup returned another request's entry", i)
		}
	}
	if g.lookup(h, Singleton(), nil) != nil {
		t.Errorf("an identity never added was found under the shared hash")
	}
	if len(g.best) != 1 {
		t.Errorf("forced collision used %d map slots, want 1", len(g.best))
	}
}

// TestSpecIDsAreMemoScoped: a spec interned by one memo is interned afresh
// by the next, never read with the first memo's id.
func TestSpecIDsAreMemoScoped(t *testing.T) {
	reqs := keyCases(t)
	seven := reqs[len(reqs)-3].specs // seven specs, scans 1..7
	m1 := &memo{}
	m1.specKey(seven, nil)
	m2 := &memo{}
	rev := seven[len(seven)-1]
	if id := m2.specID(rev); id != 0 {
		t.Fatalf("first spec interned by a fresh memo got id %d, want 0", id)
	}
	for i, s := range seven {
		if got, want := m2.specID(s), m2.specIDs[s.key()]; got != want {
			t.Errorf("spec %d: id %d in the second memo, which interned it as %d", i, got, want)
		}
	}
}

// TestRequestKeyHitAllocs: a memo hit allocates nothing.
func TestRequestKeyHitAllocs(t *testing.T) {
	reqs := keyCases(t)
	r := reqs[len(reqs)-1] // six hash columns, seven specs
	m := &memo{}
	g := m.newGroup(map[int]bool{})
	m.entry(g, r)
	if n := testing.AllocsPerRun(100, func() { m.entry(g, r) }); n != 0 {
		t.Errorf("memo hit allocates %v times, want 0", n)
	}
}

// TestSearchEffortPinned pins the search effort of TestPlanDeterminism's
// eight-dimension shapes. A request key that merged or split requests the
// string key kept apart or together changes these counts.
func TestSearchEffortPinned(t *testing.T) {
	const dims = 8
	cat := starCatalog(t, dims)
	for _, tc := range []struct {
		name            string
		star            bool
		groups, entries int
	}{
		{"star", true, 264, 1570},
		{"chain", false, 45, 165},
	} {
		q := chainQuery(cat, dims)
		if tc.star {
			q = starQuery(cat, dims)
		}
		o := &Optimizer{Segments: 4}
		if _, err := o.Optimize(q); err != nil {
			t.Fatalf("%s Optimize: %v", tc.name, err)
		}
		if o.Stats.Groups != tc.groups || o.Stats.Entries != tc.entries {
			t.Errorf("%s: groups=%d entries=%d, want groups=%d entries=%d",
				tc.name, o.Stats.Groups, o.Stats.Entries, tc.groups, tc.entries)
		}
	}
}

// BenchmarkOptimizeStar times a full memo search of a star join and checks
// the plan's root cost on every iteration.
func BenchmarkOptimizeStar(b *testing.B) {
	for _, dims := range []int{6, 8} {
		b.Run(fmt.Sprintf("dims=%d", dims), func(b *testing.B) {
			cat := starCatalog(b, dims)
			q := starQuery(cat, dims)
			first, err := (&Optimizer{Segments: 4}).Optimize(q)
			if err != nil {
				b.Fatalf("Optimize: %v", err)
			}
			want := rootCost(b, first)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := (&Optimizer{Segments: 4}).Optimize(q)
				if err != nil {
					b.Fatalf("Optimize: %v", err)
				}
				if c := rootCost(b, p); c != want {
					b.Fatalf("iteration %d: root cost %v, want %v", i, c, want)
				}
			}
		})
	}
}
