package main

import (
	"fmt"
	"math/rand"
	"strings"

	"partopt/internal/types"
)

// stmt is one generated statement with what the harness checks on its
// response while timing: the response kind and, when want >= 0, the ROWS
// count or the DML affected-row count.
type stmt struct {
	sql  string
	tmpl uint8
	dml  bool
	want int32
}

// check is one pre-timing case: a statement and the reference's answer.
type check struct {
	sql  string
	tmpl string
	want [][]cell
}

// probes names the statements the traced run times on the workload's own
// fact table (trace.go).
type probes struct {
	fact     string // partitioned fact table
	scanPart string // full-scan filter+sum over the fact table, filtered on a non-key column
	scanFlat string // the same over its unpartitioned twin (<fact>_flat)
	agg      string // full-scan GROUP BY over the fact table
	fixed    string // one leaf, no matching row: dispatch + gather floor
	render   string // ~12 000 rows back
	// oneKey is a partitioning-key value inside one leaf, for
	// part.Desc.Select / Route.
	oneKey types.Datum
}

type workload struct {
	name string
	why  string
	// restart: every round replays the streams from their start. False
	// where a replay would change what is measured: adhoc_plan must not
	// find its own plans in the cache, mixed_rw must not insert an id
	// twice.
	restart bool
	// once: no statement of a stream may run twice, so a stream must not
	// wrap around (mixed_rw: an id is inserted once).
	once bool
	// cycle is the length of the stream's template cycle. A round ends on
	// a cycle boundary, so every round holds the templates in exactly the
	// same shares and the per-statement means do not depend on where the
	// clock stopped it.
	cycle int
	// replayN is how many statements the traced run replays.
	replayN int
	// checksPer is how many reference checks run per template before
	// timing.
	checksPer int
	templates []string
	tables    func(seed int64, sc scale) []*table
	// streams returns one statement stream per client.
	streams func(w *workload, ds *dataset, seed int64, clients int) [][]stmt
	checks  func(w *workload, ds *dataset, seed int64, per int) []check
	// tally, when set, returns a closing statement per client whose single
	// int answer must equal want, given how many statements of each
	// template that client completed.
	tally  func(client int, done []int) (sql string, want int64)
	probes probes
}

var workloads = []*workload{scanHeavy, pointLookup, starDPE, adhocPlan, mixedRW}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func streamRand(seed int64, w *workload, client int) *rand.Rand {
	var h int64
	for _, c := range w.name {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h*101 + int64(client)))
}

func liDate(dayOffset int) string {
	return "date '" + types.NewDate(liBaseDay+int64(dayOffset)).String() + "'"
}

// ------------------------------------------------------------- scan_heavy

var scanHeavy = &workload{
	name: "scan_heavy",
	why: "full scans of 1M rows over 365 weekly leaves and over the unpartitioned twin: " +
		"scan/filter/agg kernels, per-leaf cost and Motion do the work; front end and optimizer do almost none",
	restart:   true,
	cycle:     scanCycle,
	replayN:   36, // six cycles; at three depths plus the warm pass, 60 full scans each took the traced run to 37 s
	checksPer: 4,
	templates: []string{"count", "sum_below", "group_qty"},
	tables: func(seed int64, sc scale) []*table {
		return []*table{
			genLineitem(seed, sc.lineitem, "lineitem", true),
			genLineitem(seed, sc.lineitem, "lineitem_flat", false),
		}
	},
	streams: func(w *workload, ds *dataset, seed int64, clients int) [][]stmt {
		out := make([][]stmt, clients)
		for c := range out {
			r := streamRand(seed, w, c)
			for i := 0; i < 240; i += 2 * scanCycle {
				// A cycle's two sum_below literals are q on one table and its
				// mirror image scanQSum-q on the other, so what a cycle selects
				// in total does not depend on the seed; the next cycle swaps
				// the tables.
				q := scanQLo + r.Intn(scanQSum-2*scanQLo+1)
				for k := 0; k < 2*scanCycle; k++ {
					lit := q
					if (k%2 == 1) != (k >= scanCycle) {
						lit = scanQSum - q
					}
					out[c] = append(out[c], scanHeavyStmt(k+3*c, lit))
				}
			}
		}
		return out
	},
	// count and group_qty carry no literal, so one check per table covers
	// them; sum_below gets `per` literals per table.
	checks: func(w *workload, ds *dataset, seed int64, per int) []check {
		r := streamRand(seed, w, -1)
		var out []check
		for i := 0; i < 2; i++ {
			tab := scanTable(i)
			out = append(out,
				check{scanHeavyStmt(i, 0).sql, "count", ds.refScanCount(tab)},
				check{scanHeavyStmt(4+i, 0).sql, "group_qty", ds.refScanGroup(tab)})
			for k := 0; k < per; k++ {
				q := scanQLo + r.Intn(scanQSum-2*scanQLo+1)
				out = append(out, check{scanHeavyStmt(2+i, q).sql, "sum_below", ds.refScanSumBelow(tab, int64(q))})
			}
		}
		return out
	},
	probes: lineitemProbes,
}

var lineitemProbes = probes{
	fact:     "lineitem",
	scanPart: "SELECT sum(l_extendedprice) FROM lineitem WHERE l_quantity < 13",
	scanFlat: "SELECT sum(l_extendedprice) FROM lineitem_flat WHERE l_quantity < 13",
	agg:      "SELECT l_quantity, count(*), sum(l_extendedprice) FROM lineitem GROUP BY l_quantity",
	fixed:    "SELECT count(*) FROM lineitem WHERE l_shipdate = " + liDate(2000) + " AND l_quantity = 0",
	render:   "SELECT l_orderkey, l_quantity, l_extendedprice, l_shipdate FROM lineitem WHERE l_shipdate >= " + liDate(2000) + " AND l_shipdate < " + liDate(2031),
	oneKey:   types.NewDate(liBaseDay + 2000),
}

func scanTable(i int) string {
	if i%2 == 1 {
		return "lineitem_flat"
	}
	return "lineitem"
}

const (
	scanCycle = 6 // three shapes, each on the partitioned table and on its flat twin
	scanQLo   = 5
	scanQSum  = liMaxQty + scanQLo // q and scanQSum-q both lie in [scanQLo, liMaxQty]
)

// scanHeavyStmt is position i of the six-statement cycle: three shapes,
// each on the partitioned table and then on its flat twin.
func scanHeavyStmt(i, q int) stmt {
	tab := scanTable(i)
	switch (i / 2) % 3 {
	case 0:
		return stmt{sql: "SELECT count(*) FROM " + tab, tmpl: 0, want: 1}
	case 1:
		return stmt{sql: fmt.Sprintf("SELECT sum(l_extendedprice) FROM %s WHERE l_quantity < %d", tab, q), tmpl: 1, want: 1}
	}
	return stmt{sql: "SELECT l_quantity, count(*), sum(l_extendedprice) FROM " + tab + " GROUP BY l_quantity", tmpl: 2, want: liMaxQty}
}

// ----------------------------------------------------------- point_lookup

// plCycle spreads the 45/25/15/15 template weights over 20 positions, so
// any prefix of a stream holds the templates in the same shares and p50
// sits inside the one-day class (70 %), p90 inside the 30-day class.
var plCycle = [20]uint8{0, 1, 0, 2, 0, 1, 3, 0, 1, 0, 2, 0, 3, 1, 0, 2, 0, 1, 3, 0}

const (
	plDays    = 2500 // distinct recent days requested
	plLastDay = liDays - 31
)

func pointLookupStmt(ds *dataset, tmpl uint8, day int, q int64) stmt {
	switch tmpl {
	case 0:
		return stmt{sql: "SELECT count(*) FROM lineitem WHERE l_shipdate = " + liDate(day), tmpl: 0, want: 1}
	case 1:
		return stmt{sql: fmt.Sprintf("SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem WHERE l_shipdate = %s AND l_quantity = %d", liDate(day), q),
			tmpl: 1, want: int32(len(ds.refDayFetch(day, q)))}
	case 2:
		return stmt{sql: fmt.Sprintf("SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_shipdate >= %s AND l_shipdate < %s", liDate(day), liDate(day+7)), tmpl: 2, want: 1}
	}
	return stmt{sql: fmt.Sprintf("SELECT l_quantity, count(*) FROM lineitem WHERE l_shipdate >= %s AND l_shipdate < %s GROUP BY l_quantity", liDate(day), liDate(day+30)),
		tmpl: 3, want: int32(len(ds.refMonthGroup(day)))}
}

var pointLookup = &workload{
	name: "point_lookup",
	why: "static elimination to 1-5 of 365 leaves makes scanning tiny: wire framing, parse/normalize/fingerprint, " +
		"plan-cache hit, OID-cache lookup, slice dispatch and gather are the whole cost; four fingerprints fit the plan cache",
	restart:   true,
	cycle:     len(plCycle),
	replayN:   200,
	checksPer: 20,
	templates: []string{"day_count", "day_fetch", "week_count_sum", "month_group"},
	tables: func(seed int64, sc scale) []*table {
		return []*table{genLineitem(seed, sc.lineitem, "lineitem", true)}
	},
	streams: func(w *workload, ds *dataset, seed int64, clients int) [][]stmt {
		out := make([][]stmt, clients)
		for c := range out {
			r := streamRand(seed, w, c)
			z := rand.NewZipf(r, 1.1, 1, plDays-1)
			out[c] = make([]stmt, 16_000)
			for i := range out[c] {
				out[c][i] = pointLookupStmt(ds, plCycle[i%len(plCycle)], plLastDay-int(z.Uint64()), 1+r.Int63n(liMaxQty))
			}
		}
		return out
	},
	checks: func(w *workload, ds *dataset, seed int64, per int) []check {
		r := streamRand(seed, w, -1)
		var out []check
		for i := 0; i < 4*per; i++ {
			day, q := plLastDay-r.Intn(plDays), 1+r.Int63n(liMaxQty)
			s := pointLookupStmt(ds, uint8(i%4), day, q)
			var want [][]cell
			switch s.tmpl {
			case 0:
				want = ds.refDayCount(day)
			case 1:
				want = ds.refDayFetch(day, q)
			case 2:
				want = ds.refWeekCountSum(day)
			default:
				want = ds.refMonthGroup(day)
			}
			out = append(out, check{s.sql, w.templates[s.tmpl], want})
		}
		return out
	},
	probes: lineitemProbes,
}

// --------------------------------------------------------------- star_dpe

func starTables(fact string, n func(scale) int) func(int64, scale) []*table {
	return func(seed int64, sc scale) []*table {
		out := []*table{genSales(seed, n(sc), fact), genDateDim()}
		for k := 1; k <= numDims; k++ {
			out = append(out, genDim(seed, k))
		}
		return out
	}
}

func starProbes(fact string, renderHi int) probes {
	return probes{
		fact:     fact,
		scanPart: "SELECT sum(amount) FROM " + fact + " WHERE k1 < 100",
		scanFlat: "SELECT sum(amount) FROM " + fact + "_flat WHERE k1 < 100",
		agg:      "SELECT k1, count(*), sum(amount) FROM " + fact + " GROUP BY k1",
		fixed:    "SELECT count(*) FROM " + fact + " WHERE date_id = 5 AND k1 = -1",
		render:   fmt.Sprintf("SELECT sale_id, date_id, k1, amount FROM %s WHERE date_id >= 100 AND date_id < %d", fact, renderHi),
		oneKey:   types.NewInt(5),
	}
}

const starTag = "t1"

func starStmt(tmpl uint8, m int64) stmt {
	switch tmpl {
	case 0:
		return stmt{sql: fmt.Sprintf("SELECT count(*), sum(s.amount) FROM date_dim d, sales s WHERE d.date_id = s.date_id AND d.month = %d", m), tmpl: 0, want: 1}
	case 1:
		return stmt{sql: fmt.Sprintf("SELECT count(*), sum(amount) FROM sales WHERE date_id IN (SELECT date_id FROM date_dim WHERE month BETWEEN %d AND %d)", m, m+2), tmpl: 1, want: 1}
	case 2:
		return stmt{sql: fmt.Sprintf("SELECT count(*), sum(s.amount) FROM date_dim d, dim1 a, sales s WHERE d.date_id = s.date_id AND a.k = s.k1 AND a.tag = '%s' AND d.month = %d", starTag, m), tmpl: 2, want: 1}
	case 3:
		return stmt{sql: fmt.Sprintf("SELECT d.moy, count(*), sum(s.amount) FROM date_dim d, sales s WHERE d.date_id = s.date_id AND d.month BETWEEN %d AND %d GROUP BY d.moy", m, m+5), tmpl: 3, want: 6}
	}
	return stmt{sql: fmt.Sprintf("SELECT count(*), sum(s.amount) FROM date_dim d LEFT JOIN sales s ON d.date_id = s.date_id WHERE d.month = %d", m), tmpl: 4, want: 1}
}

// starCycle weights the five templates 3/3/1/1/2 over ten positions: p50
// sits inside the two one-month joins (60 %), p90 inside left_join (80-100
// %). With equal weights p50 sat on the narrow in_subquery class between a
// one-leaf and a six-leaf neighbour and flipped between them run to run.
var starCycle = [10]uint8{0, 2, 4, 0, 2, 1, 0, 2, 4, 3}

// starMonth draws a month literal that keeps every template's range inside
// the 24 months.
func starMonth(r *rand.Rand) int64 { return 1 + r.Int63n(salesMonths-5) }

var starDPE = &workload{
	name: "star_dpe",
	why: "join-driven PartitionSelector -> DynamicScan over 24 monthly leaves, hash join/agg and Motion, " +
		"with the five plans served from the cache: the paper's run-time contribution with optimizer time ~0",
	restart:   true,
	cycle:     len(starCycle),
	replayN:   200,
	checksPer: 20,
	templates: []string{"join_month", "in_subquery", "two_dims", "group_moy", "left_join"},
	tables:    starTables("sales", func(sc scale) int { return sc.sales }),
	streams: func(w *workload, ds *dataset, seed int64, clients int) [][]stmt {
		out := make([][]stmt, clients)
		for c := range out {
			r := streamRand(seed, w, c)
			out[c] = make([]stmt, 2000)
			for i := range out[c] {
				out[c][i] = starStmt(starCycle[(i+5*c)%len(starCycle)], starMonth(r))
			}
		}
		return out
	},
	checks: func(w *workload, ds *dataset, seed int64, per int) []check {
		r := streamRand(seed, w, -1)
		var out []check
		for i := 0; i < 5*per; i++ {
			m := starMonth(r)
			s := starStmt(uint8(i%5), m)
			var want [][]cell
			switch s.tmpl {
			case 0:
				want = ds.refStarCountSum("sales", m, m, 0, "")
			case 1:
				want = ds.refStarCountSum("sales", m, m+2, 0, "")
			case 2:
				want = ds.refStarCountSum("sales", m, m, 1, starTag)
			case 3:
				want = ds.refStarGroupMoy("sales", m, m+5)
			default:
				want = ds.refStarLeft("sales", m)
			}
			out = append(out, check{s.sql, w.templates[s.tmpl], want})
		}
		return out
	},
	probes: starProbes("sales", 115),
}

// ------------------------------------------------------------- adhoc_plan

var adhocAggs = []string{"count(*)", "sum(s.amount)", "count(*), sum(s.amount)", "min(s.amount), max(s.amount)"}

// adhocSpec is one generated star join: which dimensions, in which FROM
// order, which one carries the tag filter.
type adhocSpec struct {
	dims   []int // 1-based dimension numbers
	order  []int // permutation of the len(dims)+2 relations
	tagDim int
	tag    string
	agg    int
	month  int64
}

func genAdhoc(r *rand.Rand, k int) adhocSpec {
	dims := r.Perm(numDims)[:k]
	for i := range dims {
		dims[i]++
	}
	return adhocSpec{
		dims:   dims,
		order:  r.Perm(k + 2),
		tagDim: dims[r.Intn(k)],
		tag:    tagName(r.Int63n(numTags)),
		agg:    r.Intn(len(adhocAggs)),
		month:  1 + r.Int63n(salesMonths),
	}
}

func (a adhocSpec) sql() string {
	rels := []string{"date_dim d", "adhoc_sales s"}
	preds := []string{"d.date_id = s.date_id"}
	for _, d := range a.dims {
		rels = append(rels, fmt.Sprintf("dim%d a%d", d, d))
		preds = append(preds, fmt.Sprintf("a%d.k = s.k%d", d, d))
	}
	from := make([]string, len(rels))
	for i, o := range a.order {
		from[i] = rels[o]
	}
	preds = append(preds, fmt.Sprintf("a%d.tag = '%s'", a.tagDim, a.tag), fmt.Sprintf("d.month = %d", a.month))
	return "SELECT " + adhocAggs[a.agg] + " FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(preds, " AND ")
}

func (a adhocSpec) ref(ds *dataset) [][]cell {
	n, sum, lo, hi := ds.refStar("adhoc_sales", a.month, a.month, a.tagDim, a.tag)
	switch a.agg {
	case 0:
		return [][]cell{{ci(n)}}
	case 1:
		return [][]cell{{sumCell(sum, n)}}
	case 2:
		return [][]cell{{ci(n), sumCell(sum, n)}}
	}
	if n == 0 {
		return [][]cell{{cnull, cnull}}
	}
	return [][]cell{{cf(lo), cf(hi)}}
}

var adhocPlan = &workload{
	name: "adhoc_plan",
	why: "generated 6-8 relation star joins with thousands of distinct fingerprints, so the 256-entry plan cache never hits: " +
		"bind, memo search, join enumeration and serialization run on every statement over a small fact table",
	restart:   false,
	cycle:     3,
	replayN:   200,
	checksPer: 20,
	templates: []string{"star4", "star5", "star6"},
	tables:    starTables("adhoc_sales", func(sc scale) int { return sc.adhoc }),
	streams: func(w *workload, ds *dataset, seed int64, clients int) [][]stmt {
		out := make([][]stmt, clients)
		for c := range out {
			r := streamRand(seed, w, c)
			out[c] = make([]stmt, 4095) // a whole number of cycles
			for i := range out[c] {
				out[c][i] = stmt{sql: genAdhoc(r, 4+i%3).sql(), tmpl: uint8(i % 3), want: 1}
			}
		}
		return out
	},
	checks: func(w *workload, ds *dataset, seed int64, per int) []check {
		r := streamRand(seed, w, -1)
		var out []check
		for i := 0; i < 3*per; i++ {
			a := genAdhoc(r, 4+i%3)
			out = append(out, check{a.sql(), w.templates[i%3], a.ref(ds)})
		}
		return out
	},
	probes: starProbes("adhoc_sales", 240),
}

// --------------------------------------------------------------- mixed_rw

// rwCycle is the 20-statement cycle: 8 inserts into the client's hot leaf,
// 6 one-day reads of it, 4 status scans of the last 60 days, 1 update,
// 1 delete.
const rwCycle = "IRIGIRIUIRIGIRIDRGRG"

const (
	rwLeafDays = ordersDays / ordersLeaves
	rwScanLo   = 300 // the status scan reads the last 60 days
	rwIDStride = 100_000_000
	rwStream   = 60_000
)

func rwClientLo(client int) int64 { return int64(client+1) * rwIDStride }

// rwHotLo is the first day of the client's own hot leaf: client 0 writes
// the last monthly leaf, client 1 the one before. The engine addresses an
// UPDATE's or DELETE's rows by heap position and a concurrent swap-delete
// in the same (leaf, segment) heap moves rows, so two sessions changing
// one leaf fail with "stale RowID" (README, known gaps). No operation of a
// benchmark workload may fail, so each client keeps its writes to a leaf of
// its own.
func rwHotLo(client int) int { return ordersDays - (client+1)*rwLeafDays }

// rwStream generates one client's statements. Ids are a function of the
// position alone, so a stream is reproducible and never reuses an id:
// inserts take the next id of the client's range, the update touches the
// newest own row, the delete removes the oldest.
func rwStreamFor(r *rand.Rand, client, n int) []stmt {
	next, oldest := rwClientLo(client), rwClientLo(client)
	hotLo := rwHotLo(client)
	out := make([]stmt, n)
	for i := range out {
		switch rwCycle[i%len(rwCycle)] {
		case 'I':
			out[i] = stmt{sql: fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, '%s', %d.%02d)",
				next, hotLo+r.Intn(rwLeafDays), statusName(r.Int63n(numStatuses)), 1+r.Intn(999), r.Intn(100)), tmpl: 0, dml: true, want: 1}
			next++
		case 'R':
			out[i] = rwDayRead(int64(hotLo + r.Intn(rwLeafDays)))
		case 'G':
			out[i] = rwStatusScan()
		case 'U':
			out[i] = stmt{sql: fmt.Sprintf("UPDATE orders SET o_total = %d.5 WHERE o_day >= %d AND o_day < %d AND o_id = %d", 1+r.Intn(999), hotLo, hotLo+rwLeafDays, next-1), tmpl: 3, dml: true, want: 1}
		case 'D':
			out[i] = stmt{sql: fmt.Sprintf("DELETE FROM orders WHERE o_day >= %d AND o_day < %d AND o_id = %d", hotLo, hotLo+rwLeafDays, oldest), tmpl: 4, dml: true, want: 1}
			oldest++
		}
	}
	return out
}

func rwDayRead(day int64) stmt {
	return stmt{sql: fmt.Sprintf("SELECT count(*), sum(o_total) FROM orders WHERE o_day = %d", day), tmpl: 1, want: 1}
}

func rwStatusScan() stmt {
	return stmt{sql: fmt.Sprintf("SELECT o_status, count(*) FROM orders WHERE o_day >= %d GROUP BY o_status", rwScanLo), tmpl: 2, want: numStatuses}
}

var mixedRW = &workload{
	name: "mixed_rw",
	why: "single-row INSERT/UPDATE/DELETE beside reads of the same hot leaf: every DML bumps the plan-cache epoch and the first scan " +
		"after a write pays the copy-on-write lane copy and row-view rebuild; a read-path gain that taxes writes shows here only",
	restart:   false,
	once:      true,
	cycle:     len(rwCycle),
	replayN:   200,
	checksPer: 20,
	templates: []string{"insert", "day_read", "status_scan", "update", "delete"},
	tables: func(seed int64, sc scale) []*table {
		return []*table{genOrders(seed, sc.orders)}
	},
	streams: func(w *workload, ds *dataset, seed int64, clients int) [][]stmt {
		out := make([][]stmt, clients)
		for c := range out {
			out[c] = rwStreamFor(streamRand(seed, w, c), c, rwStream)
		}
		return out
	},
	// Only the reads can be checked against the base data; the writes are
	// checked by their affected-row count and by the closing tally.
	checks: func(w *workload, ds *dataset, seed int64, per int) []check {
		r := streamRand(seed, w, -1)
		out := []check{{rwStatusScan().sql, "status_scan", ds.refOrdersStatus(rwScanLo)}}
		for i := 0; i < per; i++ {
			day := int64(rwScanLo + r.Intn(ordersDays-rwScanLo))
			out = append(out, check{rwDayRead(day).sql, "day_read", ds.refOrdersDay(day)})
		}
		return out
	},
	tally: func(client int, done []int) (string, int64) {
		lo := rwClientLo(client)
		return fmt.Sprintf("SELECT count(*) FROM orders WHERE o_id >= %d AND o_id < %d", lo, lo+rwIDStride),
			int64(done[0] - done[4])
	},
	probes: probes{
		fact: "orders",
		// The filter is on a column that is not the partitioning key: one
		// on o_day would prune half the leaves and measure elimination, not
		// what partitioning costs a full scan.
		scanPart: "SELECT sum(o_total) FROM orders WHERE o_id < 240000",
		scanFlat: "SELECT sum(o_total) FROM orders_flat WHERE o_id < 240000",
		agg:      "SELECT o_status, count(*), sum(o_total) FROM orders GROUP BY o_status",
		fixed:    "SELECT count(*) FROM orders WHERE o_day = 5 AND o_id = -1",
		render:   "SELECT o_id, o_day, o_status, o_total FROM orders WHERE o_day >= 100 AND o_day < 109",
		oneKey:   types.NewInt(5),
	},
}
