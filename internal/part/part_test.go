package part

import (
	"math/rand"
	"testing"

	"partopt/internal/types"
)

func newAlloc() func() OID {
	next := OID(100)
	return func() OID {
		next++
		return next
	}
}

// buildT builds the paper's §2.2 example: table T with partitions T1..T100,
// Ti holding pk ∈ [(i-1)*10+1, i*10+1) — i.e. values 1..1000 in ranges of 10.
func buildT(t *testing.T) *Desc {
	t.Helper()
	bounds := make([]types.Datum, 0, 101)
	for i := 0; i <= 100; i++ {
		bounds = append(bounds, types.NewInt(int64(i*10+1)))
	}
	return Build(1, newAlloc(), RangeLevel(0, bounds...))
}

func TestBuildSingleLevel(t *testing.T) {
	d := buildT(t)
	if d.NumLevels() != 1 || d.NumLeaves() != 100 {
		t.Fatalf("levels=%d leaves=%d, want 1/100", d.NumLevels(), d.NumLeaves())
	}
	if got := len(d.Expansion()); got != 100 {
		t.Errorf("Expansion() = %d OIDs", got)
	}
	if ords := d.KeyOrds(); len(ords) != 1 || ords[0] != 0 {
		t.Errorf("KeyOrds = %v", ords)
	}
	// All OIDs distinct.
	seen := map[OID]bool{}
	for _, oid := range d.Expansion() {
		if seen[oid] {
			t.Fatalf("duplicate OID %d", oid)
		}
		seen[oid] = true
	}
}

func TestRouteAndSelection(t *testing.T) {
	d := buildT(t)
	exp := d.Expansion()
	// Value 1 → first partition, value 10 → first ([1,11)), 11 → second.
	if got := d.Route([]types.Datum{types.NewInt(1)}); got != exp[0] {
		t.Errorf("Route(1) = %d, want %d", got, exp[0])
	}
	if got := d.Route([]types.Datum{types.NewInt(10)}); got != exp[0] {
		t.Errorf("Route(10) = %d, want %d", got, exp[0])
	}
	if got := d.Route([]types.Datum{types.NewInt(11)}); got != exp[1] {
		t.Errorf("Route(11) = %d, want %d", got, exp[1])
	}
	// Out of range → ⊥.
	if got := d.Route([]types.Datum{types.NewInt(0)}); got != InvalidOID {
		t.Errorf("Route(0) = %d, want InvalidOID", got)
	}
	if got := d.Route([]types.Datum{types.NewInt(1001)}); got != InvalidOID {
		t.Errorf("Route(1001) = %d, want InvalidOID", got)
	}
	// NULL key → ⊥ (no partition contains NULL).
	if got := d.Route([]types.Datum{types.Null}); got != InvalidOID {
		t.Errorf("Route(NULL) = %d, want InvalidOID", got)
	}
	if got := d.Route([]types.Datum{types.NewInt(55)}); got != exp[5] {
		t.Errorf("Route(55) = %d, want %d", got, exp[5])
	}
}

func TestSelectEquality(t *testing.T) {
	// Paper Fig. 5(b): equality selection pk=35 hits exactly one partition.
	d := buildT(t)
	got := d.Select([]types.IntervalSet{types.SetOf(types.PointInterval(types.NewInt(35)))})
	if len(got) != 1 {
		t.Fatalf("equality selection hit %d partitions, want 1", len(got))
	}
	if got[0] != d.Route([]types.Datum{types.NewInt(35)}) {
		t.Errorf("Select and Route disagree")
	}
}

func TestSelectRange(t *testing.T) {
	// Paper Fig. 5(c): pk < 35 hits partitions T1..T4 ([1,11),[11,21),[21,31),[31,41)).
	d := buildT(t)
	got := d.Select([]types.IntervalSet{types.SetOf(types.Below(types.NewInt(35), false))})
	if len(got) != 4 {
		t.Fatalf("range selection hit %d partitions, want 4 (got %v)", len(got), got)
	}
	// Full scan: no predicate → all 100 (paper Fig. 5(a)).
	all := d.Select([]types.IntervalSet{types.WholeDomain()})
	if len(all) != 100 {
		t.Errorf("unconstrained Select = %d leaves", len(all))
	}
	// Empty set → no partitions.
	none := d.Select([]types.IntervalSet{types.SetOf()})
	if len(none) != 0 {
		t.Errorf("empty-set Select = %v", none)
	}
}

func buildOrders(t *testing.T) *Desc {
	t.Helper()
	// Paper Fig. 9: orders partitioned by date (24 months of 2012-2013)
	// and subpartitioned by region (2 regions).
	dateBounds := MonthlyBounds(2012, 1, 24, 1)
	return Build(50, newAlloc(),
		RangeLevel(2, dateBounds...),
		ListLevel(3,
			[]string{"region1", "region2"},
			[][]types.Datum{
				{types.NewString("Region 1")},
				{types.NewString("Region 2")},
			}),
	)
}

func TestMultiLevelBuild(t *testing.T) {
	d := buildOrders(t)
	if d.NumLevels() != 2 {
		t.Fatalf("levels = %d", d.NumLevels())
	}
	if d.NumLeaves() != 48 {
		t.Fatalf("leaves = %d, want 24×2", d.NumLeaves())
	}
	if len(d.Roots) != 24 {
		t.Errorf("roots = %d, want 24", len(d.Roots))
	}
	for _, r := range d.Roots {
		if len(r.Children) != 2 {
			t.Errorf("root %q has %d children", r.Name, len(r.Children))
		}
	}
}

func TestMultiLevelSelect(t *testing.T) {
	d := buildOrders(t)
	jan2012 := types.SetOf(types.PointInterval(types.DateFromYMD(2012, 1, 15)))
	region1 := types.SetOf(types.PointInterval(types.NewString("Region 1")))
	all := types.WholeDomain()

	// Paper Fig. 10 row 1: date='Jan-2012' → T1,1 .. T1,n (all regions of month 1).
	got := d.Select([]types.IntervalSet{jan2012, all})
	if len(got) != 2 {
		t.Errorf("date-only selection = %d leaves, want 2", len(got))
	}
	// Row 2: region='Region 1' → T1,1, T2,1, ..., T24,1.
	got = d.Select([]types.IntervalSet{all, region1})
	if len(got) != 24 {
		t.Errorf("region-only selection = %d leaves, want 24", len(got))
	}
	// Row 3: both predicates → exactly T1,1.
	got = d.Select([]types.IntervalSet{jan2012, region1})
	if len(got) != 1 {
		t.Errorf("combined selection = %d leaves, want 1", len(got))
	}
	// Row 4: φ → all leaf OIDs.
	got = d.Select([]types.IntervalSet{all, all})
	if len(got) != 48 {
		t.Errorf("no-predicate selection = %d leaves, want 48", len(got))
	}
}

func TestMultiLevelRoute(t *testing.T) {
	d := buildOrders(t)
	oid := d.Route([]types.Datum{types.DateFromYMD(2013, 12, 31), types.NewString("Region 2")})
	if oid == InvalidOID {
		t.Fatalf("Route returned ⊥ for valid keys")
	}
	n, ok := d.Node(oid)
	if !ok || n.Name != "r24/region2" {
		t.Errorf("routed to %q", n.Name)
	}
	// Unknown region → ⊥.
	if d.Route([]types.Datum{types.DateFromYMD(2013, 12, 31), types.NewString("Region 9")}) != InvalidOID {
		t.Errorf("unknown region should route to ⊥")
	}
	// Date outside range → ⊥.
	if d.Route([]types.Datum{types.DateFromYMD(2014, 1, 1), types.NewString("Region 1")}) != InvalidOID {
		t.Errorf("out-of-range date should route to ⊥")
	}
}

func TestConstraintsAndLeafPath(t *testing.T) {
	d := buildOrders(t)
	cons := d.Constraints()
	if len(cons) != 48 {
		t.Fatalf("constraints rows = %d", len(cons))
	}
	for _, lc := range cons {
		if len(lc.Constraints) != 2 {
			t.Errorf("leaf %d has %d constraint levels", lc.OID, len(lc.Constraints))
		}
		p, ok := d.LeafPath(lc.OID)
		if !ok || len(p) != 2 {
			t.Errorf("LeafPath(%d) missing", lc.OID)
		}
	}
	if _, ok := d.LeafPath(99999); ok {
		t.Errorf("LeafPath of unknown OID should fail")
	}
}

func TestRouteSelectAgreement(t *testing.T) {
	// Property: for random key values, Route(v) is always among
	// Select(point(v)), and Select of a range covers every routed value
	// inside the range.
	d := buildT(t)
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		v := rnd.Int63n(1100) - 50
		oid := d.Route([]types.Datum{types.NewInt(v)})
		sel := d.Select([]types.IntervalSet{types.SetOf(types.PointInterval(types.NewInt(v)))})
		if oid == InvalidOID {
			if len(sel) != 0 {
				t.Fatalf("v=%d: Route says ⊥ but Select found %v", v, sel)
			}
			continue
		}
		if len(sel) != 1 || sel[0] != oid {
			t.Fatalf("v=%d: Route=%d but Select=%v", v, oid, sel)
		}
	}
	for i := 0; i < 200; i++ {
		lo := rnd.Int63n(1000)
		hi := lo + rnd.Int63n(200)
		set := types.SetOf(types.RangeInterval(types.NewInt(lo), types.NewInt(hi)))
		sel := map[OID]bool{}
		for _, oid := range d.Select([]types.IntervalSet{set}) {
			sel[oid] = true
		}
		for v := lo; v < hi; v += 7 {
			oid := d.Route([]types.Datum{types.NewInt(v)})
			if oid != InvalidOID && !sel[oid] {
				t.Fatalf("range [%d,%d): value %d routes to %d not selected", lo, hi, v, oid)
			}
		}
	}
}

func TestBuilderHelpers(t *testing.T) {
	mb := MonthlyBounds(2012, 1, 24, 1)
	if len(mb) != 25 {
		t.Errorf("MonthlyBounds(24,1) = %d bounds, want 25", len(mb))
	}
	mb2 := MonthlyBounds(2012, 1, 84, 2)
	if len(mb2) != 43 {
		t.Errorf("MonthlyBounds(84,2) = %d bounds, want 43", len(mb2))
	}
	db := DayBounds(2012, 1, 1, 28, 14)
	if len(db) != 3 {
		t.Errorf("DayBounds(28,14) = %d bounds, want 3", len(db))
	}
	ib := IntBounds(0, 100, 4)
	if len(ib) != 5 || ib[0].Int() != 0 || ib[4].Int() != 100 {
		t.Errorf("IntBounds = %v", ib)
	}
	// Remainder absorption: 100 into 3.
	ib = IntBounds(0, 100, 3)
	if ib[len(ib)-1].Int() != 100 {
		t.Errorf("IntBounds remainder wrong: %v", ib)
	}
}

func TestBuildPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no levels", func() { Build(1, newAlloc()) })
	mustPanic("one bound", func() { RangeLevel(0, types.NewInt(1)) })
	mustPanic("list mismatch", func() { ListLevel(0, []string{"a"}, nil) })
	d := buildT(t)
	mustPanic("wrong key count", func() { d.Route(nil) })
	mustPanic("wrong set count", func() { d.Select(nil) })
}

// TestRouteLevelSortedLinearNullDifferential pits the sorted-sibling
// binary-search fast path of routeLevel against the linear scan over the
// same sibling group, on a probe batch heavy in NULLs and boundary values.
// The two paths must agree on every probe — in particular a NULL key must
// route to ⊥ on both (no range or list constraint contains NULL), not fall
// into whichever partition the binary search lands on.
func TestRouteLevelSortedLinearNullDifferential(t *testing.T) {
	d := buildT(t) // 100 range siblings → the sorted fast path engages
	if !d.sortedRoots {
		t.Fatalf("fixture's roots are not a sorted group; fast path untested")
	}
	probes := []types.Datum{
		types.Null,
		types.NewInt(0), types.NewInt(1), types.NewInt(10), types.NewInt(11),
		types.NewInt(500), types.NewInt(1000), types.NewInt(1001), types.NewInt(-7),
	}
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		if i%5 == 0 {
			probes = append(probes, types.Null)
			continue
		}
		probes = append(probes, types.NewInt(rnd.Int63n(1200)-100))
	}
	for _, v := range probes {
		fast := routeLevel(d.Roots, true, v)
		slow := routeLevel(d.Roots, false, v)
		if fast != slow {
			t.Errorf("probe %v: sorted path → %v, linear path → %v", v, fast, slow)
		}
		if v.IsNull() && fast != nil {
			t.Errorf("NULL probe routed to partition %d; want ⊥", fast.OID)
		}
	}
	// End to end: a NULL anywhere in the key vector routes the tuple to ⊥.
	if oid := d.Route([]types.Datum{types.Null}); oid != InvalidOID {
		t.Errorf("Route(NULL) = %d, want InvalidOID", oid)
	}
}

// TestSelectSortedLinearDifferential compares Select's sorted-run binary
// search against a brute-force overlap scan of the leaf constraint table,
// over interval sets that include NULL bounds and point-NULL probes (the
// shapes a predicate like `k = NULL` or a broken deriver could produce).
func TestSelectSortedLinearDifferential(t *testing.T) {
	d := buildT(t)
	ref := func(set types.IntervalSet) []OID {
		var out []OID
		for _, lc := range d.Constraints() {
			if lc.Constraints[0].Overlaps(set) {
				out = append(out, lc.OID)
			}
		}
		return out
	}
	sets := []types.IntervalSet{
		types.SetOf(types.PointInterval(types.Null)),
		types.SetOf(types.RangeInterval(types.Null, types.NewInt(25))),
		types.SetOf(types.PointInterval(types.NewInt(1))),
		types.SetOf(types.RangeInterval(types.NewInt(995), types.NewInt(2000))),
		types.SetOf(types.Unbounded()),
	}
	rnd := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		lo := rnd.Int63n(1100) - 50
		sets = append(sets, types.SetOf(types.RangeInterval(types.NewInt(lo), types.NewInt(lo+rnd.Int63n(100)))))
	}
	for _, set := range sets {
		got := d.Select([]types.IntervalSet{set})
		want := ref(set)
		if len(got) != len(want) {
			t.Fatalf("set %v: Select → %v, reference → %v", set, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("set %v: Select → %v, reference → %v", set, got, want)
			}
		}
	}
}
