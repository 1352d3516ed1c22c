package partopt

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"partopt/internal/types"
)

// The semantics table of multi-stage aggregation. Orca may split a GroupBy
// into Partial and Final stages around a Motion; the legacy planner always
// aggregates once on the coordinator. Every case runs through both and
// must equal a literal expected value, so a rule both planners got wrong
// (they share the hashAggOp) would still fail.

// aggEngine builds the fixture. facts is hashed on k and range-partitioned
// on id, 12 rows:
//
//	id   1..12
//	k    id % 3                      (the distribution key)
//	g    10 for even ids, 20 for odd; NULL for ids 6 and 12
//	s    'a','b','c' by id % 3
//	d    2020-01-<id>
//	v    id*10; NULL for ids 3 and 9
//	f    id + 0.5
//	nul  always NULL
func aggEngine(t testing.TB) *Engine {
	t.Helper()
	eng, err := New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.MustCreateTable("facts",
		Columns("id", TypeInt, "k", TypeInt, "g", TypeInt, "s", TypeString, "d", TypeDate, "v", TypeInt, "f", TypeFloat, "nul", TypeInt),
		DistributedBy("k"), PartitionByRangeInt("id", 0, 16, 4))
	for id := int64(1); id <= 12; id++ {
		g, v := Int(20-10*((id+1)%2)), Int(id*10)
		if id%6 == 0 {
			g = Null
		}
		if id == 3 || id == 9 {
			v = Null
		}
		if err := eng.Insert("facts", Int(id), Int(id%3), g, String(string(rune('a'+id%3))),
			Date(2020, 1, int(id)), v, Float(float64(id)+0.5), Null); err != nil {
			t.Fatalf("insert facts: %v", err)
		}
	}
	eng.MustCreateTable("empty", Columns("id", TypeInt, "v", TypeInt, "s", TypeString),
		DistributedBy("id"), PartitionByRangeInt("id", 0, 16, 4))
	// x mixes integer and float datums in one float column: the lane
	// degrades to the mixed representation and SUM must promote.
	eng.MustCreateTable("mixed", Columns("id", TypeInt, "grp", TypeInt, "x", TypeFloat), DistributedBy("id"))
	for i, x := range []Value{Int(1), Float(2.5), Int(3), Float(0.5)} {
		if err := eng.Insert("mixed", Int(int64(i)), Int(int64(i%2)), x); err != nil {
			t.Fatalf("insert mixed: %v", err)
		}
	}
	eng.MustCreateTable("rep", Columns("id", TypeInt, "v", TypeInt), Replicated())
	eng.MustCreateTable("dim", Columns("k", TypeInt, "name", TypeString), Replicated())
	for i := int64(1); i <= 10; i++ {
		if err := eng.Insert("rep", Int(i), Int(i)); err != nil {
			t.Fatalf("insert rep: %v", err)
		}
	}
	for k := int64(0); k < 4; k++ { // k = 3 matches no fact
		if err := eng.Insert("dim", Int(k), String(fmt.Sprint("k", k))); err != nil {
			t.Fatalf("insert dim: %v", err)
		}
	}
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return eng
}

// renderTyped renders a result as sorted rows of type-tagged values, so an
// integer 66 and a float 66 differ.
func renderTyped(rows *Rows) []string {
	out := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		cells := make([]string, len(r))
		for j, v := range r {
			if v.IsNull() {
				cells[j] = "NULL"
			} else {
				cells[j] = v.Type().String() + ":" + v.String()
			}
		}
		out[i] = strings.Join(cells, " ")
	}
	sort.Strings(out)
	return out
}

func TestAggregationSplitSemantics(t *testing.T) {
	eng := aggEngine(t)
	// shape: "split" = Partial + Final stages, "single" = one HashAggregate
	// on the segments, below the Gather.
	cases := []struct {
		name, q, shape string
		want           []string
	}{
		{"empty scalar", "SELECT count(*), count(v), sum(v), min(v), max(s), avg(v) FROM empty", "split",
			[]string{"int:0 int:0 NULL NULL NULL NULL"}},
		{"empty grouped", "SELECT v, count(*) FROM empty GROUP BY v", "", nil},
		{"all-NULL argument", "SELECT count(nul), sum(nul), min(nul), max(nul), avg(nul), count(*) FROM facts", "split",
			[]string{"int:0 NULL NULL NULL NULL int:12"}},
		{"NULLs skipped", "SELECT count(v), sum(v), min(v), max(v) FROM facts", "split",
			[]string{"int:10 int:660 int:10 int:120"}},
		{"avg over ints is float", "SELECT avg(v), avg(id) FROM facts", "split",
			[]string{"float:66 float:6.5"}},
		{"float sum", "SELECT sum(f), avg(f) FROM facts", "split",
			[]string{"float:84 float:7"}},
		{"sum mixing int and float", "SELECT sum(x), count(x) FROM mixed", "split",
			[]string{"float:7 int:4"}},
		{"sum stays int per group", "SELECT grp, sum(x) FROM mixed GROUP BY grp", "",
			[]string{"int:0 int:4", "int:1 float:3"}},
		{"min/max over strings and dates", "SELECT min(s), max(s), min(d), max(d) FROM facts", "split",
			[]string{"string:'a' string:'c' date:2020-01-01 date:2020-01-12"}},
		{"NULL group key", "SELECT g, count(*), sum(v), avg(v) FROM facts GROUP BY g", "split",
			[]string{"NULL int:2 int:180 float:90", "int:10 int:4 int:240 float:60", "int:20 int:6 int:240 float:60"}},
		{"group by the distribution key", "SELECT k, count(*), sum(v) FROM facts GROUP BY k", "single",
			[]string{"int:0 int:4 int:180", "int:1 int:4 int:220", "int:2 int:4 int:260"}},
		{"group by two columns incl. the distribution key", "SELECT k, g, count(*) FROM facts GROUP BY k, g", "single",
			[]string{"int:0 NULL int:2", "int:0 int:20 int:2", "int:1 int:10 int:2", "int:1 int:20 int:2", "int:2 int:10 int:2", "int:2 int:20 int:2"}},
		{"computed group key and argument", "SELECT id + k, sum(v + 1) FROM facts WHERE id < 3 GROUP BY id + k", "split",
			[]string{"int:2 int:11", "int:4 int:21"}},
		{"replicated scalar", "SELECT count(*), sum(v) FROM rep", "single",
			[]string{"int:10 int:55"}},
		{"replicated grouped", "SELECT v, count(*) FROM rep WHERE v < 3 GROUP BY v", "single",
			[]string{"int:1 int:1", "int:2 int:1"}},
		{"NULL-extended side, grouped", "SELECT d.k, count(f.v), sum(f.v), count(*) FROM dim d LEFT JOIN facts f ON d.k = f.k GROUP BY d.k", "",
			[]string{"int:0 int:2 int:180 int:4", "int:1 int:4 int:220 int:4", "int:2 int:4 int:260 int:4", "int:3 int:0 NULL int:1"}},
		{"NULL-extended side, scalar", "SELECT count(f.id), sum(f.v), min(f.s), count(*) FROM dim d LEFT JOIN facts f ON d.k = f.k WHERE d.k = 3", "",
			[]string{"int:0 NULL NULL int:1"}},
	}
	for _, c := range cases {
		for _, opt := range []OptimizerKind{Orca, LegacyPlanner} {
			eng.SetOptimizer(opt)
			rows, err := eng.Query(c.q)
			if err != nil {
				t.Errorf("%s (%v): %v", c.name, opt, err)
				continue
			}
			if got := renderTyped(rows); fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("%s (%v):\n got %v\nwant %v\n%s", c.name, opt, got, c.want, rows.ExplainAnalyze())
			}
		}
		eng.SetOptimizer(Orca)
		plan, err := eng.Explain(c.q)
		if err != nil {
			t.Fatalf("%s: Explain: %v", c.name, err)
		}
		split := strings.Contains(plan, "Partial HashAggregate") && strings.Contains(plan, "Final HashAggregate")
		switch {
		case c.shape == "split" && !split:
			t.Errorf("%s: expected a Partial/Final split:\n%s", c.name, plan)
		case c.shape == "single" && (split || !strings.Contains(plan, "Gather Motion\n    -> HashAggregate") && !strings.Contains(plan, "Gather Motion (from seg 0)\n    -> HashAggregate")):
			t.Errorf("%s: expected one HashAggregate directly below the Gather:\n%s", c.name, plan)
		}
	}
}

// An integer SUM that leaves int64 goes on in float instead of wrapping:
// aggAcc.addInt promotes the accumulator, as a first float input does, so
// the int fold loop, the datum fold and the Final stage's combine agree. Four
// rows of v = 4e18 sum to 1.6e19. Spread over the segments at most two per
// segment, every Partial sum fits and the Final sum overflows; packed onto
// one segment, that segment's Partial sum overflows.
func TestAggregationIntSumOverflow(t *testing.T) {
	const segs = 3
	segOf := func(k int64) uint64 { return types.HashRow(types.Row{types.NewInt(k)}, nil) % segs }
	var spread, packed []int64
	perSeg := map[uint64]int{}
	for k := int64(0); len(spread) < 4; k++ {
		if s := segOf(k); perSeg[s] < 2 {
			perSeg[s]++
			spread = append(spread, k)
		}
	}
	for k := int64(100); len(packed) < 4; k++ {
		if segOf(k) == segOf(100) {
			packed = append(packed, k)
		}
	}
	for _, c := range []struct {
		name string
		keys []int64
	}{{"Final sum overflows", spread}, {"one Partial sum overflows", packed}} {
		eng, err := New(segs)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		eng.MustCreateTable("big", Columns("k", TypeInt, "v", TypeInt), DistributedBy("k"))
		for _, k := range c.keys {
			if err := eng.Insert("big", Int(k), Int(4e18)); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		const q = "SELECT sum(v), avg(v) FROM big"
		if plan, err := eng.Explain(q); err != nil || !strings.Contains(plan, "Partial HashAggregate") {
			t.Fatalf("%s: want a Partial/Final split (%v):\n%s", c.name, err, plan)
		}
		for _, opt := range []OptimizerKind{Orca, LegacyPlanner} {
			eng.SetOptimizer(opt)
			rows, err := eng.Query(q)
			if err != nil {
				t.Fatalf("%s (%v): %v", c.name, opt, err)
			}
			got := renderTyped(rows)
			if want := []string{"float:1.6e+19 float:4e+18"}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s (%v): got %v, want %v\n%s", c.name, opt, got, want, rows.ExplainAnalyze())
			}
		}
	}
}

// Integer arithmetic that leaves int64 fails the query, as in PostgreSQL,
// under both optimizers, instead of wrapping: v * 3 over v = 4e18 would
// wrap to -6446744073709551616. Results on the near side of the edge
// still come back.
func TestIntArithmeticOverflow(t *testing.T) {
	eng, err := New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.MustCreateTable("big", Columns("k", TypeInt, "v", TypeInt), DistributedBy("k"))
	for k := int64(0); k < 4; k++ {
		if err := eng.Insert("big", Int(k), Int(4e18)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	for _, opt := range []OptimizerKind{Orca, LegacyPlanner} {
		eng.SetOptimizer(opt)
		for _, q := range []string{
			"SELECT v * 3 FROM big",
			"SELECT v + v + v FROM big",
			"SELECT 0 - v - v - v FROM big",
			"SELECT count(*) FROM big WHERE v * 3 > 0",
			"SELECT k, sum(v * 3) FROM big GROUP BY k",
		} {
			if _, err := eng.Query(q); err == nil || !strings.Contains(err.Error(), "bigint out of range") {
				t.Errorf("%v: %s: err %v, want bigint out of range", opt, q, err)
			}
		}
		rows, err := eng.Query("SELECT v * 2, v + v - v FROM big WHERE k = 1")
		if err != nil {
			t.Fatalf("%v: in range: %v", opt, err)
		}
		if got, want := renderTyped(rows), []string{"int:8000000000000000000 int:4000000000000000000"}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: in range: got %v, want %v", opt, got, want)
		}
	}
}

// A 4 KiB work_mem makes the Partial stage spill; the answer, and the
// spilled stage's place in the plan, must not change.
func TestAggregationSplitSpillsInPartialStage(t *testing.T) {
	eng, err := New(3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.MustCreateTable("big", Columns("id", TypeInt, "grp", TypeInt, "v", TypeInt),
		DistributedBy("id"), PartitionByRangeInt("id", 0, 3000, 6))
	batch := make([][]Value, 3000)
	for i := range batch {
		batch[i] = []Value{Int(int64(i)), Int(int64(i % 600)), Int(int64(i))}
	}
	if err := eng.InsertRows("big", batch); err != nil {
		t.Fatalf("InsertRows: %v", err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	const q = "SELECT grp, count(*), sum(v), avg(v) FROM big GROUP BY grp"
	golden := func() []string {
		rows, err := eng.Query(q)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if rows.SpilledBytes != 0 {
			t.Fatalf("ungoverned run spilled")
		}
		return renderTyped(rows)
	}()
	if len(golden) != 600 {
		t.Fatalf("groups = %d, want 600", len(golden))
	}
	// Group 7 holds ids 7, 607, ..., 2407.
	if want := "int:7 int:5 int:6035 float:1207"; golden[sort.SearchStrings(golden, want)] != want {
		t.Fatalf("group 7 missing from %v...", golden[:3])
	}

	eng.SetSpillDir(t.TempDir())
	eng.SetWorkMem(4 << 10)
	rows, err := eng.Query(q)
	if err != nil {
		t.Fatalf("governed Query: %v", err)
	}
	if got := renderTyped(rows); fmt.Sprint(got) != fmt.Sprint(golden) {
		t.Fatalf("spilling changed the answer")
	}
	var partialSpill int64
	walkOpStats(rows.OpStats(), func(o *OpStats) {
		if strings.HasPrefix(o.Label, "Partial HashAggregate") {
			partialSpill += o.SpilledBytes
		}
	})
	if partialSpill == 0 {
		t.Fatalf("the Partial stage did not spill:\n%s", rows.ExplainAnalyze())
	}
	eng.SetOptimizer(LegacyPlanner)
	rows, err = eng.Query(q)
	if err != nil {
		t.Fatalf("legacy Query: %v", err)
	}
	if got := renderTyped(rows); fmt.Sprint(got) != fmt.Sprint(golden) {
		t.Fatalf("legacy single-stage answer differs")
	}
}

// Killing a segment mid-fleet: the split plan's retry lands on the mirror
// and returns the same answer.
func TestAggregationSplitSurvivesKilledSegment(t *testing.T) {
	eng := aggEngine(t)
	eng.EnableFaultTolerance(FTConfig{ProbeInterval: 0, DownAfter: 2})
	defer eng.StopFTS()
	const q = "SELECT g, count(*), sum(v), min(d), avg(f) FROM facts GROUP BY g"
	rows, err := eng.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	golden := renderTyped(rows)
	if err := eng.KillSegment(1); err != nil {
		t.Fatalf("KillSegment: %v", err)
	}
	rows, err = eng.Query(q)
	if err != nil {
		t.Fatalf("Query after kill: %v", err)
	}
	if got := renderTyped(rows); fmt.Sprint(got) != fmt.Sprint(golden) {
		t.Fatalf("answer changed after failover:\n got %v\nwant %v", got, golden)
	}
	if got := eng.SegmentFailovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
}

// loadStar creates and loads the benchmark's star schema at reduced scale:
// sales (4 800 rows over 24 date_id leaves), the replicated date_dim (240
// days, ten per month) and the replicated dim1 (200 keys, five tags).
func loadStar(t *testing.T, eng *Engine) {
	t.Helper()
	eng.MustCreateTable("sales", Columns("sale_id", TypeInt, "date_id", TypeInt, "k1", TypeInt, "amount", TypeFloat),
		DistributedBy("sale_id"), PartitionByRangeInt("date_id", 0, 240, 24))
	eng.MustCreateTable("date_dim", Columns("date_id", TypeInt, "month", TypeInt, "moy", TypeInt), Replicated())
	eng.MustCreateTable("dim1", Columns("k", TypeInt, "tag", TypeString), Replicated())
	sales, dates, dim := starRows()
	for table, rows := range map[string][][]Value{"sales": sales, "date_dim": dates, "dim1": dim} {
		if err := eng.InsertRows(table, rows); err != nil {
			t.Fatalf("load %s: %v", table, err)
		}
	}
}

// starRows is loadStar's data: sales (sale_id, date_id, k1, amount),
// date_dim (date_id, month, moy) and dim1 (k, tag).
func starRows() (sales, dates, dim [][]Value) {
	sales = make([][]Value, 4800)
	for i := range sales {
		sales[i] = []Value{Int(int64(i)), Int(int64(i % 240)), Int(int64(i % 200)), Float(float64(i % 97))}
	}
	dates = make([][]Value, 240)
	for i := range dates {
		dates[i] = []Value{Int(int64(i)), Int(int64(1 + i/10)), Int(int64(1 + (i/10)%12))}
	}
	dim = make([][]Value, 200)
	for i := range dim {
		dim[i] = []Value{Int(int64(i)), String(fmt.Sprintf("t%d", i%5))}
	}
	return sales, dates, dim
}

// EXPLAIN goldens for the shapes the benchmark's workloads run, at reduced
// scale: where the aggregate lands is decided by row and distinct-value
// estimates alone.
func TestAggregationPlanGoldens(t *testing.T) {
	eng, err := New(4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.MustCreateTable("lineitem",
		Columns("l_orderkey", TypeInt, "l_quantity", TypeInt, "l_extendedprice", TypeFloat, "l_shipdate", TypeDate),
		DistributedBy("l_orderkey"), PartitionByRangeDays("l_shipdate", 2007, 1, 1, 2555, 7))
	li := make([][]Value, 20000)
	for i := range li {
		li[i] = []Value{Int(int64(i / 4)), Int(int64(1 + i%25)), Float(float64(i) * 1.5), DateOfEpochDays(13514 + int64(i%2555))}
	}
	if err := eng.InsertRows("lineitem", li); err != nil {
		t.Fatalf("load lineitem: %v", err)
	}
	loadStar(t, eng)
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	goldens := []struct{ name, q, want string }{
		{"scalar", "SELECT count(*) FROM lineitem", `Project (count_1)
  -> Final HashAggregate (count(*))  (rows=1 cost=40025)
    -> Gather Motion
      -> Partial HashAggregate (count(*))  (rows=4 cost=40001)
        -> PartitionSelector(1, lineitem, φ)  (rows=20000 cost=20001)
          -> DynamicScan(1, lineitem)  (rows=20000 cost=20000)
`},
		{"grouped, 25 groups", "SELECT l_quantity, count(*), sum(l_extendedprice) FROM lineitem GROUP BY l_quantity", `Project (l_quantity, count_2, sum_3)
  -> Final HashAggregate (lineitem.l_quantity; count(*), sum(lineitem.l_extendedprice))  (rows=25 cost=40601)
    -> Gather Motion
      -> Partial HashAggregate (lineitem.l_quantity; count(*), sum(lineitem.l_extendedprice))  (rows=100 cost=40001)
        -> PartitionSelector(1, lineitem, φ)  (rows=20000 cost=20001)
          -> DynamicScan(1, lineitem)  (rows=20000 cost=20000)
`},
		{"grouped on the distribution key", "SELECT l_orderkey, count(*) FROM lineitem GROUP BY l_orderkey", `Project (l_orderkey, count_2)
  -> Gather Motion
    -> HashAggregate (lineitem.l_orderkey; count(*))  (rows=5000 cost=40001)
      -> PartitionSelector(1, lineitem, φ)  (rows=20000 cost=20001)
        -> DynamicScan(1, lineitem)  (rows=20000 cost=20000)
`},
		{"grouped, one group per row", "SELECT l_extendedprice, count(*) FROM lineitem GROUP BY l_extendedprice", `Project (l_extendedprice, count_2)
  -> Gather Motion
    -> HashAggregate (lineitem.l_extendedprice; count(*))  (rows=20000 cost=84001)
      -> Redistribute Motion (t1.c2)  (rows=20000 cost=60001)
        -> PartitionSelector(1, lineitem, φ)  (rows=20000 cost=20001)
          -> DynamicScan(1, lineitem)  (rows=20000 cost=20000)
`},
		{"star_dpe one-month join", "SELECT count(*), sum(s.amount) FROM date_dim d, sales s WHERE d.date_id = s.date_id AND d.month = 3", `Project (count_1, sum_2)
  -> Final HashAggregate (count(*), sum(s.amount))  (rows=1 cost=10142)
    -> Gather Motion
      -> Partial HashAggregate (count(*), sum(s.amount))  (rows=4 cost=10118)
        -> HashJoin (d.date_id = s.date_id)  (rows=4800 cost=5318)
          -> PartitionSelector(2, sales, d.date_id = s.date_id)  (rows=10 cost=266)
            -> Filter (d.month = $1)  (rows=10 cost=264)
              -> Scan date_dim  (rows=240 cost=240)
          -> DynamicScan(2, sales)  (rows=4800 cost=4800)
`},
	}
	for _, g := range goldens {
		got, err := eng.Explain(g.q)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got != g.want {
			t.Errorf("%s: golden mismatch:\n--- got ---\n%s--- want ---\n%s", g.name, got, g.want)
		}
	}
}

// What crossed the Motion between the stages is visible without a
// debugger: the Gather's actual rows are the group states it moved (one per
// segment for a scalar aggregate).
func TestAggregationSplitObservability(t *testing.T) {
	eng := paperEngine(t, 4)
	rows, err := eng.Query("SELECT count(*), sum(amount) FROM orders")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if rows.RowsMoved != 4 {
		t.Errorf("RowsMoved = %d, want 4 (one state row per segment)", rows.RowsMoved)
	}
	if !strings.Contains(rows.ExplainAnalyze(), "-> Gather Motion  (actual rows=4 loops=1") {
		t.Errorf("Gather between the stages does not show the moved rows:\n%s", rows.ExplainAnalyze())
	}
}

// The five star_dpe template shapes aggregate above their joins off typed
// lanes: the hash join emits column lanes, the Partial aggregates read
// them, and no batch is ever turned back into rows. The answers equal
// count(*) and sum(amount) computed in Go from loadStar's rows.
func TestStarJoinAggregatesTyped(t *testing.T) {
	eng, err := New(4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	loadStar(t, eng)
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	sales, dates, dim := starRows()
	month, moy, tag := map[int64]int64{}, map[int64]int64{}, map[int64]string{}
	for _, d := range dates {
		month[d[0].Int()], moy[d[0].Int()] = d[1].Int(), d[2].Int()
	}
	for _, a := range dim {
		tag[a[0].Int()] = a[1].Str()
	}
	// fold returns count(*) and sum(amount) over the sales rows keep
	// accepts, grouped by group's value (or once, under a nil group).
	fold := func(keep func(dateID, k1 int64) bool, group func(dateID int64) int64) [][]Value {
		type acc struct {
			n   int64
			sum float64
		}
		accs := map[int64]*acc{}
		for _, s := range sales {
			dateID := s[1].Int()
			if !keep(dateID, s[2].Int()) {
				continue
			}
			var g int64
			if group != nil {
				g = group(dateID)
			}
			if accs[g] == nil {
				accs[g] = &acc{}
			}
			accs[g].n++
			accs[g].sum += s[3].Float()
		}
		var out [][]Value
		for g, a := range accs {
			row := []Value{Int(a.n), Float(a.sum)}
			if group != nil {
				row = append([]Value{Int(g)}, row...)
			}
			out = append(out, row)
		}
		return out
	}
	// The left join preserves every March date; a date without sales adds
	// one NULL-extended row to count(*) and nothing to the sum.
	hasSales := map[int64]bool{}
	for _, s := range sales {
		hasSales[s[1].Int()] = true
	}
	leftJoin := fold(func(d, _ int64) bool { return month[d] == 3 }, nil)
	for d, m := range month {
		if m == 3 && !hasSales[d] {
			leftJoin[0][0] = Int(leftJoin[0][0].Int() + 1)
		}
	}
	templates := []struct {
		name, q string
		want    [][]Value
	}{
		{"join_month", "SELECT count(*), sum(s.amount) FROM date_dim d, sales s WHERE d.date_id = s.date_id AND d.month = 3",
			fold(func(d, _ int64) bool { return month[d] == 3 }, nil)},
		{"in_subquery", "SELECT count(*), sum(amount) FROM sales WHERE date_id IN (SELECT date_id FROM date_dim WHERE month BETWEEN 3 AND 5)",
			fold(func(d, _ int64) bool { return month[d] >= 3 && month[d] <= 5 }, nil)},
		{"two_dims", "SELECT count(*), sum(s.amount) FROM date_dim d, dim1 a, sales s WHERE d.date_id = s.date_id AND a.k = s.k1 AND a.tag = 't1' AND d.month = 3",
			fold(func(d, k1 int64) bool { return month[d] == 3 && tag[k1] == "t1" }, nil)},
		{"group_moy", "SELECT d.moy, count(*), sum(s.amount) FROM date_dim d, sales s WHERE d.date_id = s.date_id AND d.month BETWEEN 3 AND 8 GROUP BY d.moy",
			fold(func(d, _ int64) bool { return month[d] >= 3 && month[d] <= 8 }, func(d int64) int64 { return moy[d] })},
		{"left_join", "SELECT count(*), sum(s.amount) FROM date_dim d LEFT JOIN sales s ON d.date_id = s.date_id WHERE d.month = 3",
			leftJoin},
	}
	built := eng.Obs().Counter("partopt_exec_rows_materialized_batches_total")
	for _, tc := range templates {
		before := built.Value()
		rows, err := eng.Query(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := built.Value() - before; n != 0 {
			t.Errorf("%s: %d batches materialized, want 0", tc.name, n)
		}
		if got, want := renderTyped(rows), renderTyped(&Rows{Data: tc.want}); len(want) == 0 || strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
	}
	// The counter does count: a join whose rows a Motion ships is
	// materialized.
	before := built.Value()
	if _, err := eng.Query("SELECT s.sale_id, d.moy FROM date_dim d, sales s WHERE d.date_id = s.date_id AND d.month = 3"); err != nil {
		t.Fatalf("gathered join: %v", err)
	}
	if built.Value() == before {
		t.Errorf("a gathered join materialized no batch")
	}
}
