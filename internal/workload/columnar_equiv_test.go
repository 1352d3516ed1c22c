package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"partopt"
)

// Ground truth for the vectorized kernels. A fact's rows are read once with
// an unfiltered SELECT; the expected answer of each filtered or aggregated
// query is then computed in Go from those rows, so the check does not rest
// on a second execution path that shares the planner, storage, Motion and
// aggregation with the first. Filters use SQL's three-valued logic: a row
// qualifies only where the predicate is TRUE, never where it is NULL.

// factRow is one fact row as the ground-truth reads see it.
type factRow struct{ dateID, quantity, amount, custID partopt.Value }

// readFacts returns every row of fact, read with an unfiltered SELECT.
func readFacts(t *testing.T, eng *partopt.Engine, fact string) []factRow {
	t.Helper()
	rows, err := eng.Query("SELECT date_id, quantity, amount, cust_id FROM " + fact)
	if err != nil {
		t.Fatalf("read %s: %v", fact, err)
	}
	out := make([]factRow, len(rows.Data))
	for i, r := range rows.Data {
		out[i] = factRow{r[0], r[1], r[2], r[3]}
	}
	return out
}

// tri is a SQL truth value: FALSE, TRUE or NULL (unknown).
type tri int8

const (
	triFalse tri = iota
	triTrue
	triNull
)

func and3(a, b tri) tri {
	switch {
	case a == triFalse || b == triFalse:
		return triFalse
	case a == triNull || b == triNull:
		return triNull
	}
	return triTrue
}

func or3(a, b tri) tri {
	switch {
	case a == triTrue || b == triTrue:
		return triTrue
	case a == triNull || b == triNull:
		return triNull
	}
	return triFalse
}

func not3(a tri) tri {
	switch a {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triNull
}

func truth(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// cmp3 compares a numeric value with k under op; a NULL value is unknown.
func cmp3(v partopt.Value, op string, k float64) tri {
	if v.IsNull() {
		return triNull
	}
	x := v.Float()
	switch op {
	case "<":
		return truth(x < k)
	case "<=":
		return truth(x <= k)
	case ">":
		return truth(x > k)
	case ">=":
		return truth(x >= k)
	}
	panic("cmp3: operator " + op)
}

// in3 is v IN (items), a nil item being a NULL: TRUE on a match, otherwise
// NULL when v or any item is NULL, otherwise FALSE.
func in3(v partopt.Value, items ...*int64) tri {
	if v.IsNull() {
		return triNull
	}
	res := triFalse
	for _, it := range items {
		switch {
		case it == nil:
			res = triNull
		case v.Int() == *it:
			return triTrue
		}
	}
	return res
}

func isNull3(v partopt.Value) tri { return truth(v.IsNull()) }

// factFilter is one generated WHERE clause and its Go twin.
type factFilter struct {
	sql  string
	pred func(r factRow) tri
}

// genFactFilter draws a date range and, by variant (0..7), the extra
// conjunct or disjunct: > ; OR ; NOT(AND) ; NOT IN ; IN with a NULL item ;
// NOT IN with a NULL item under OR ; IS [NOT] NULL (sub picks which).
func genFactFilter(rnd *rand.Rand, days, variant, sub int) factFilter {
	lo := rnd.Intn(days)
	hi := lo + rnd.Intn(days-lo)
	k := int64(rnd.Intn(10))
	fk, amt := float64(k), float64(40*k)
	k2, k3 := k+2, k+3
	base := func(r factRow) tri {
		return and3(cmp3(r.dateID, ">=", float64(lo)), cmp3(r.dateID, "<=", float64(hi)))
	}
	sql := fmt.Sprintf("date_id BETWEEN %d AND %d", lo, hi)
	var extra string
	var pred func(r factRow) tri
	switch variant {
	case 0, 1:
		extra = fmt.Sprintf(" AND quantity > %d", k)
		pred = func(r factRow) tri { return and3(base(r), cmp3(r.quantity, ">", fk)) }
	case 2:
		extra = fmt.Sprintf(" AND (quantity > %d OR amount < %d)", k, 40*k)
		pred = func(r factRow) tri {
			return and3(base(r), or3(cmp3(r.quantity, ">", fk), cmp3(r.amount, "<", amt)))
		}
	case 3:
		extra = fmt.Sprintf(" AND NOT (quantity < %d AND amount >= %d)", k, 40*k)
		pred = func(r factRow) tri {
			return and3(base(r), not3(and3(cmp3(r.quantity, "<", fk), cmp3(r.amount, ">=", amt))))
		}
	case 4:
		extra = fmt.Sprintf(" AND quantity NOT IN (%d, %d)", k, k2)
		pred = func(r factRow) tri { return and3(base(r), not3(in3(r.quantity, &k, &k2))) }
	case 5:
		extra = fmt.Sprintf(" AND quantity IN (%d, NULL, %d)", k, k3)
		pred = func(r factRow) tri { return and3(base(r), in3(r.quantity, &k, nil, &k3)) }
	case 6:
		extra = fmt.Sprintf(" AND (quantity NOT IN (%d, NULL) OR amount < %d)", k, 40*k)
		pred = func(r factRow) tri {
			return and3(base(r), or3(not3(in3(r.quantity, &k, nil)), cmp3(r.amount, "<", amt)))
		}
	default:
		switch sub % 3 {
		case 0:
			extra = " AND amount IS NOT NULL"
			pred = func(r factRow) tri { return and3(base(r), not3(isNull3(r.amount))) }
		case 1:
			extra = " AND NOT (quantity IS NULL)"
			pred = func(r factRow) tri { return and3(base(r), not3(isNull3(r.quantity))) }
		default: // AND binds tighter: (BETWEEN) OR cust_id IS NULL
			extra = " OR cust_id IS NULL"
			pred = func(r factRow) tri { return or3(base(r), isNull3(r.custID)) }
		}
	}
	return factFilter{sql: sql + extra, pred: pred}
}

// TestColumnarRowFuzzEquivalence runs generated filters over every fact —
// each variant of genFactFilter eight times — and requires the (date_id,
// amount) multiset the Go predicate keeps, under Orca, under Orca with
// partition selection off, and under the legacy planner. The join,
// grouped and outer-join shapes run in TestFuzzOptimizersAgree.
func TestColumnarRowFuzzEquivalence(t *testing.T) {
	eng, err := partopt.New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := DefaultStarConfig()
	cfg.SalesPerDay = 5
	cfg.Months = 12
	if err := BuildStar(eng, cfg); err != nil {
		t.Fatalf("BuildStar: %v", err)
	}
	facts := map[string][]factRow{}
	for _, fact := range FactTables {
		facts[fact] = readFacts(t, eng, fact)
	}
	configs := []struct {
		name  string
		setup func()
	}{
		{"orca", func() { eng.SetOptimizer(partopt.Orca); eng.SetPartitionSelection(true) }},
		{"orca, selection off", func() { eng.SetOptimizer(partopt.Orca); eng.SetPartitionSelection(false) }},
		{"planner", func() { eng.SetOptimizer(partopt.LegacyPlanner); eng.SetPartitionSelection(true) }},
	}
	defer configs[0].setup()

	rnd := rand.New(rand.NewSource(20140622))
	const filters = 64
	empty := 0
	for i := 0; i < filters; i++ {
		fact := FactTables[rnd.Intn(len(FactTables))]
		f := genFactFilter(rnd, cfg.Days(), i%8, i/8)
		want := &partopt.Rows{}
		for _, r := range facts[fact] {
			if f.pred(r) == triTrue {
				want.Data = append(want.Data, []partopt.Value{r.dateID, r.amount})
			}
		}
		if len(want.Data) == 0 {
			empty++
		}
		q := fmt.Sprintf("SELECT date_id, amount FROM %s WHERE %s", fact, f.sql)
		for _, c := range configs {
			c.setup()
			got, err := eng.Query(q)
			if err != nil {
				t.Fatalf("filter %d (%s): %v\n%s", i, c.name, err, q)
			}
			assertSameData(t, fmt.Sprintf("filter %d (%s): %s", i, c.name, q), want, got, false)
		}
	}
	if empty > filters/4 {
		t.Fatalf("%d of %d filters keep no row; the reference checks too little", empty, filters)
	}
}

// Prepared statements share a cached plan across executions; every binding
// of the cached shape must equal the per-date_id count and sum computed
// from the fact's rows.
func TestColumnarPreparedEquivalence(t *testing.T) {
	eng, err := partopt.New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := DefaultStarConfig()
	cfg.SalesPerDay = 5
	if err := BuildStar(eng, cfg); err != nil {
		t.Fatalf("BuildStar: %v", err)
	}
	sales := readFacts(t, eng, "store_sales")

	stmt, err := eng.Prepare("SELECT date_id, count(*), sum(amount) FROM store_sales WHERE date_id BETWEEN $1 AND $2 GROUP BY date_id")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for _, bind := range [][2]int64{{0, 30}, {10, 80}, {40, 41}, {0, 0}} {
		count, sum := map[int64]int64{}, map[int64]float64{}
		for _, r := range sales {
			if d := r.dateID.Int(); d >= bind[0] && d <= bind[1] {
				count[d]++
				sum[d] += r.amount.Float()
			}
		}
		want := &partopt.Rows{}
		for d, n := range count {
			want.Data = append(want.Data, []partopt.Value{partopt.Int(d), partopt.Int(n), partopt.Float(sum[d])})
		}
		got, err := stmt.Query(partopt.Int(bind[0]), partopt.Int(bind[1]))
		if err != nil {
			t.Fatalf("prepared %v: %v", bind, err)
		}
		if len(want.Data) == 0 {
			t.Fatalf("prepared %v: the reference holds no rows", bind)
		}
		assertSameData(t, fmt.Sprintf("prepared-%v", bind), want, got, false)
	}
}

// A budget that forces the aggregate to spill must not change its answer:
// the spilled run equals the unbudgeted one, and it did spill.
func TestColumnarSpillEquivalence(t *testing.T) {
	budget := spillBudget(t)
	eng, err := partopt.New(4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := DefaultStarConfig()
	cfg.SalesPerDay = 10
	if err := BuildStar(eng, cfg); err != nil {
		t.Fatalf("BuildStar: %v", err)
	}
	const sql = `SELECT date_id, count(*) AS n, sum(amount) AS total FROM store_sales GROUP BY date_id`

	golden, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}
	eng.SetSpillDir(t.TempDir())
	eng.SetWorkMem(budget)
	rows, err := eng.Query(sql)
	if err != nil {
		t.Fatalf("budgeted: %v", err)
	}
	if rows.SpilledBytes == 0 || rows.SpillParts == 0 {
		t.Fatalf("work_mem=%d did not spill: bytes=%d parts=%d", budget, rows.SpilledBytes, rows.SpillParts)
	}
	assertSameData(t, "spill", golden, rows, false)
}
