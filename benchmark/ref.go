package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The reference evaluator computes every template's answer with plain Go
// loops over the generator's arrays. It shares no code with the engine:
// two configurations of the engine agreeing with each other cannot hide a
// bug from it.

// cell is one expected result value, in the form the wire renders it.
type cell struct {
	s   string  // exact text for ints, strings, dates and NULL
	f   float64 // value of a float cell
	isF bool
}

func ci(v int64) cell    { return cell{s: strconv.FormatInt(v, 10)} }
func cf(v float64) cell  { return cell{f: v, isF: true} }
func cstr(v string) cell { return cell{s: "'" + v + "'"} }

var cnull = cell{s: "NULL"}

// sumCell is SQL sum(): NULL over no rows.
func sumCell(sum float64, n int64) cell {
	if n == 0 {
		return cnull
	}
	return cf(sum)
}

const floatTol = 1e-9

// rowKey orders rows by their exact (non-float) cells; every grouped
// template has unique group keys, so the order is total where it matters.
func rowKey(cells []string, isF func(int) bool) string {
	var b strings.Builder
	for i, c := range cells {
		if !isF(i) {
			b.WriteString(c)
		}
		b.WriteByte(0)
	}
	return b.String()
}

// matchRows compares a wire result (tab-split text rows) with the expected
// rows as multisets; floats agree within floatTol relative.
func matchRows(want [][]cell, got [][]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		return nil
	}
	isF := func(i int) bool { return i < len(want[0]) && want[0][i].isF }
	w := make([][]cell, len(want))
	copy(w, want)
	sort.SliceStable(w, func(a, b int) bool {
		return rowKey(cellText(w[a]), isF) < rowKey(cellText(w[b]), isF)
	})
	g := make([][]string, len(got))
	copy(g, got)
	sort.SliceStable(g, func(a, b int) bool { return rowKey(g[a], isF) < rowKey(g[b], isF) })
	for r := range w {
		if len(w[r]) != len(g[r]) {
			return fmt.Errorf("row %d: got %d columns, want %d", r, len(g[r]), len(w[r]))
		}
		for c, wc := range w[r] {
			gc := g[r][c]
			if !wc.isF {
				if gc != wc.s {
					return fmt.Errorf("row %d col %d: got %s, want %s", r, c, gc, wc.s)
				}
				continue
			}
			gf, err := strconv.ParseFloat(gc, 64)
			if err != nil {
				return fmt.Errorf("row %d col %d: got %q, want float %g", r, c, gc, wc.f)
			}
			if math.Abs(gf-wc.f) > floatTol*math.Max(math.Abs(wc.f), 1) {
				return fmt.Errorf("row %d col %d: got %.17g, want %.17g", r, c, gf, wc.f)
			}
		}
	}
	return nil
}

func cellText(row []cell) []string {
	out := make([]string, len(row))
	for i, c := range row {
		out[i] = c.s
	}
	return out
}

// dataset is the generated tables of one workload plus the reference's own
// lookup arrays.
type dataset struct {
	tables []*table
	byName map[string]*table
	// liByDay buckets lineitem row numbers by ship-day offset, so a
	// one-day reference answer does not rescan a million rows.
	liByDay [][]int32
}

func newDataset(tables ...*table) *dataset {
	ds := &dataset{tables: tables, byName: map[string]*table{}}
	for _, t := range tables {
		ds.byName[t.name] = t
	}
	if li, ok := ds.byName["lineitem"]; ok {
		ds.liByDay = make([][]int32, liDays)
		for r, d := range li.col("l_shipdate").i {
			ds.liByDay[d-liBaseDay] = append(ds.liByDay[d-liBaseDay], int32(r))
		}
	}
	return ds
}

func (ds *dataset) rowCounts() map[string]int {
	out := map[string]int{}
	for _, t := range ds.tables {
		out[t.name] = t.n
	}
	return out
}

// ---- scan_heavy

func (ds *dataset) refScanCount(tab string) [][]cell {
	return [][]cell{{ci(int64(ds.byName[tab].n))}}
}

func (ds *dataset) refScanSumBelow(tab string, q int64) [][]cell {
	t := ds.byName[tab]
	qty, price := t.col("l_quantity").i, t.col("l_extendedprice").f
	var sum float64
	var n int64
	for r := range qty {
		if qty[r] < q {
			sum += price[r]
			n++
		}
	}
	return [][]cell{{sumCell(sum, n)}}
}

func (ds *dataset) refScanGroup(tab string) [][]cell {
	t := ds.byName[tab]
	qty, price := t.col("l_quantity").i, t.col("l_extendedprice").f
	cnt := map[int64]int64{}
	sum := map[int64]float64{}
	for r := range qty {
		cnt[qty[r]]++
		sum[qty[r]] += price[r]
	}
	var out [][]cell
	for q, n := range cnt {
		out = append(out, []cell{ci(q), ci(n), cf(sum[q])})
	}
	return out
}

// ---- point_lookup (day arguments are offsets from liBaseDay)

func (ds *dataset) liRows(dayLo, dayHi int) []int32 {
	var out []int32
	for d := dayLo; d < dayHi && d < liDays; d++ {
		out = append(out, ds.liByDay[d]...)
	}
	return out
}

func (ds *dataset) refDayCount(day int) [][]cell {
	return [][]cell{{ci(int64(len(ds.liByDay[day])))}}
}

func (ds *dataset) refDayFetch(day int, q int64) [][]cell {
	t := ds.byName["lineitem"]
	key, qty, price := t.col("l_orderkey").i, t.col("l_quantity").i, t.col("l_extendedprice").f
	var out [][]cell
	for _, r := range ds.liByDay[day] {
		if qty[r] == q {
			out = append(out, []cell{ci(key[r]), ci(qty[r]), cf(price[r])})
		}
	}
	return out
}

func (ds *dataset) refWeekCountSum(day int) [][]cell {
	price := ds.byName["lineitem"].col("l_extendedprice").f
	rows := ds.liRows(day, day+7)
	var sum float64
	for _, r := range rows {
		sum += price[r]
	}
	return [][]cell{{ci(int64(len(rows))), sumCell(sum, int64(len(rows)))}}
}

func (ds *dataset) refMonthGroup(day int) [][]cell {
	qty := ds.byName["lineitem"].col("l_quantity").i
	cnt := map[int64]int64{}
	for _, r := range ds.liRows(day, day+30) {
		cnt[qty[r]]++
	}
	var out [][]cell
	for q, n := range cnt {
		out = append(out, []cell{ci(q), ci(n)})
	}
	return out
}

// ---- star_dpe and adhoc_plan

// dateAttr joins a fact date_id to date_dim the slow way: a scan of the
// dimension's arrays.
func (ds *dataset) dateAttr(dateID int64, attr string) int64 {
	dd := ds.byName["date_dim"]
	for r, id := range dd.col("date_id").i {
		if id == dateID {
			return dd.col(attr).i[r]
		}
	}
	panic("benchmark: date_id not in date_dim")
}

// dateAttrs tabulates dateAttr over every date_id once per call site.
func (ds *dataset) dateAttrs(attr string) []int64 {
	out := make([]int64, salesDates)
	for d := range out {
		out[d] = ds.dateAttr(int64(d), attr)
	}
	return out
}

func (ds *dataset) dimTag(dim int, k int64) string {
	t := ds.byName[fmt.Sprintf("dim%d", dim)]
	for r, key := range t.col("k").i {
		if key == k {
			return t.col("tag").s[r]
		}
	}
	panic("benchmark: key not in dimension")
}

// refStar evaluates the inner-join star templates: fact rows whose month is
// in [mLo, mHi] and, when tagDim > 0, whose dimension row carries tag.
func (ds *dataset) refStar(fact string, mLo, mHi int64, tagDim int, tag string) (n int64, sum, lo, hi float64) {
	t := ds.byName[fact]
	month := ds.dateAttrs("month")
	date, amount := t.col("date_id").i, t.col("amount").f
	var keys []int64
	var tags []string
	if tagDim > 0 {
		keys = t.col(fmt.Sprintf("k%d", tagDim)).i
		tags = make([]string, dimRows)
		for k := range tags {
			tags[k] = ds.dimTag(tagDim, int64(k))
		}
	}
	for r := range date {
		m := month[date[r]]
		if m < mLo || m > mHi {
			continue
		}
		if tagDim > 0 && tags[keys[r]] != tag {
			continue
		}
		if n == 0 || amount[r] < lo {
			lo = amount[r]
		}
		if n == 0 || amount[r] > hi {
			hi = amount[r]
		}
		n++
		sum += amount[r]
	}
	return n, sum, lo, hi
}

func (ds *dataset) refStarCountSum(fact string, mLo, mHi int64, tagDim int, tag string) [][]cell {
	n, sum, _, _ := ds.refStar(fact, mLo, mHi, tagDim, tag)
	return [][]cell{{ci(n), sumCell(sum, n)}}
}

func (ds *dataset) refStarGroupMoy(fact string, mLo, mHi int64) [][]cell {
	t := ds.byName[fact]
	month, moy := ds.dateAttrs("month"), ds.dateAttrs("moy")
	date, amount := t.col("date_id").i, t.col("amount").f
	cnt := map[int64]int64{}
	sum := map[int64]float64{}
	for r := range date {
		if m := month[date[r]]; m >= mLo && m <= mHi {
			cnt[moy[date[r]]]++
			sum[moy[date[r]]] += amount[r]
		}
	}
	var out [][]cell
	for k, n := range cnt {
		out = append(out, []cell{ci(k), ci(n), cf(sum[k])})
	}
	return out
}

// refStarLeft is date_dim LEFT JOIN fact WHERE d.month = m: a date with no
// fact row contributes one NULL-extended row to count(*) and nothing to
// sum().
func (ds *dataset) refStarLeft(fact string, m int64) [][]cell {
	t := ds.byName[fact]
	dd := ds.byName["date_dim"]
	date, amount := t.col("date_id").i, t.col("amount").f
	var n, matched int64
	var sum float64
	for r, id := range dd.col("date_id").i {
		if dd.col("month").i[r] != m {
			continue
		}
		var hits int64
		for fr := range date {
			if date[fr] == id {
				hits++
				sum += amount[fr]
			}
		}
		matched += hits
		n += max(hits, 1)
	}
	return [][]cell{{ci(n), sumCell(sum, matched)}}
}

// ---- mixed_rw reads (over the base data, before any write)

func (ds *dataset) refOrdersDay(day int64) [][]cell {
	t := ds.byName["orders"]
	d, total := t.col("o_day").i, t.col("o_total").f
	var n int64
	var sum float64
	for r := range d {
		if d[r] == day {
			n++
			sum += total[r]
		}
	}
	return [][]cell{{ci(n), sumCell(sum, n)}}
}

func (ds *dataset) refOrdersStatus(dayLo int64) [][]cell {
	t := ds.byName["orders"]
	d, st := t.col("o_day").i, t.col("o_status").s
	cnt := map[string]int64{}
	for r := range d {
		if d[r] >= dayLo {
			cnt[st[r]]++
		}
	}
	var out [][]cell
	for s, n := range cnt {
		out = append(out, []cell{cstr(s), ci(n)})
	}
	return out
}
