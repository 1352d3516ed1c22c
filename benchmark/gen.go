package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"partopt"
	"partopt/internal/catalog"
	"partopt/internal/part"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// The generator keeps every table as typed column arrays. The engine and
// the trace rig are loaded from them, and the reference evaluator (ref.go)
// reads the same arrays — never the engine.

type colKind uint8

const (
	kInt colKind = iota
	kFloat
	kDate // epoch days in i
	kString
)

type column struct {
	name string
	kind colKind
	i    []int64
	f    []float64
	s    []string
}

type partKind uint8

const (
	partNone partKind = iota
	partDays          // weekly leaves over [liBaseDay, liBaseDay+liDays)
	partInt           // n equal ranges over [lo, hi)
)

type table struct {
	name string
	cols []column
	n    int
	// hashCol is the distribution column; "" means replicated.
	hashCol string
	part    partKind
	partCol string
	lo, hi  int64 // partInt
	leaves  int   // partInt
}

func (t *table) col(name string) *column {
	for i := range t.cols {
		if t.cols[i].name == name {
			return &t.cols[i]
		}
	}
	panic("benchmark: table " + t.name + " has no column " + name)
}

func (t *table) ord(name string) int {
	for i := range t.cols {
		if t.cols[i].name == name {
			return i
		}
	}
	panic("benchmark: table " + t.name + " has no column " + name)
}

// Sizes of the full-scale dataset (ISSUE 12). The tests load the same
// shapes at a 2 000-row scale.
type scale struct {
	lineitem, sales, adhoc, orders int
}

var fullScale = scale{lineitem: 1_000_000, sales: 200_000, adhoc: 20_000, orders: 480_000}

const (
	liYear, liMonth, liDay = 2007, 1, 1
	liDays                 = 7 * 365 // 365 weekly leaves
	liMaxQty               = 25      // l_quantity in [1, 25]: a one-day, one-quantity fetch returns ~15 rows
	salesDates             = 240
	salesMonths            = 24
	numDims                = 8
	dimRows                = 200
	numTags                = 6
	ordersDays             = 360
	ordersLeaves           = 12
	numStatuses            = 5
)

var liBaseDay = types.DateFromYMD(liYear, liMonth, liDay).Days()

// balanced returns n values cycling through [0, k) in a seeded order, so
// every value occurs n/k times (±1) whatever the seed: the rows a query
// scans then depend on its template, not on the seed.
func balanced(r *rand.Rand, n, k int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i % k)
	}
	r.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func genLineitem(seed int64, n int, name string, partitioned bool) *table {
	r := rand.New(rand.NewSource(seed))
	key := make([]int64, n)
	qty := make([]int64, n)
	price := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		qty[i] = 1 + r.Int63n(liMaxQty)
		price[i] = float64(100+r.Intn(99_900)) / 100
	}
	day := balanced(r, n, liDays)
	for i := range day {
		day[i] += liBaseDay
	}
	t := &table{name: name, n: n, hashCol: "l_orderkey", cols: []column{
		{name: "l_orderkey", kind: kInt, i: key},
		{name: "l_quantity", kind: kInt, i: qty},
		{name: "l_extendedprice", kind: kFloat, f: price},
		{name: "l_shipdate", kind: kDate, i: day},
	}}
	if partitioned {
		t.part, t.partCol = partDays, "l_shipdate"
	}
	return t
}

// salesEmptyDay reports the dates that carry no sales row, so the LEFT JOIN
// template has rows to NULL-extend.
func salesEmptyDay(d int64) bool { return d%10 == 9 }

func genSales(seed int64, n int, name string) *table {
	r := rand.New(rand.NewSource(seed))
	var live []int64
	for d := int64(0); d < salesDates; d++ {
		if !salesEmptyDay(d) {
			live = append(live, d)
		}
	}
	idx := balanced(r, n, len(live))
	cols := []column{
		{name: "sale_id", kind: kInt, i: make([]int64, n)},
		{name: "date_id", kind: kInt, i: make([]int64, n)},
	}
	for i := 0; i < n; i++ {
		cols[0].i[i] = int64(i)
		cols[1].i[i] = live[idx[i]]
	}
	for k := 1; k <= numDims; k++ {
		c := column{name: fmt.Sprintf("k%d", k), kind: kInt, i: make([]int64, n)}
		for i := range c.i {
			c.i[i] = r.Int63n(dimRows)
		}
		cols = append(cols, c)
	}
	amount := make([]float64, n)
	for i := range amount {
		amount[i] = float64(1+r.Intn(50_000)) / 100
	}
	cols = append(cols, column{name: "amount", kind: kFloat, f: amount})
	return &table{name: name, n: n, cols: cols, hashCol: "sale_id",
		part: partInt, partCol: "date_id", lo: 0, hi: salesDates, leaves: salesMonths}
}

func genDateDim() *table {
	n := salesDates
	id, month, moy, year := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	for d := 0; d < n; d++ {
		id[d] = int64(d)
		month[d] = int64(d/10) + 1 // 1..24
		moy[d] = int64(d/10)%12 + 1
		year[d] = 2012 + int64(d/120)
	}
	return &table{name: "date_dim", n: n, cols: []column{
		{name: "date_id", kind: kInt, i: id},
		{name: "month", kind: kInt, i: month},
		{name: "moy", kind: kInt, i: moy},
		{name: "year", kind: kInt, i: year},
	}}
}

func tagName(i int64) string { return fmt.Sprintf("t%d", i) }

func genDim(seed int64, k int) *table {
	r := rand.New(rand.NewSource(seed + int64(k)*7919))
	key := make([]int64, dimRows)
	for i := range key {
		key[i] = int64(i)
	}
	tags := balanced(r, dimRows, numTags)
	tag := make([]string, dimRows)
	for i := range tag {
		tag[i] = tagName(tags[i])
	}
	t := &table{name: fmt.Sprintf("dim%d", k), n: dimRows, cols: []column{
		{name: "k", kind: kInt, i: key},
		{name: "tag", kind: kString, s: tag},
	}}
	if k%3 == 0 {
		t.hashCol = "k"
	}
	return t
}

func statusName(i int64) string { return fmt.Sprintf("s%d", i) }

func genOrders(seed int64, n int) *table {
	r := rand.New(rand.NewSource(seed))
	id := make([]int64, n)
	total := make([]float64, n)
	for i := 0; i < n; i++ {
		id[i] = int64(i)
		total[i] = float64(1+r.Intn(100_000)) / 100
	}
	day := balanced(r, n, ordersDays)
	st := balanced(r, n, numStatuses)
	status := make([]string, n)
	for i := range status {
		status[i] = statusName(st[i])
	}
	return &table{name: "orders", n: n, hashCol: "o_id", cols: []column{
		{name: "o_id", kind: kInt, i: id},
		{name: "o_day", kind: kInt, i: day},
		{name: "o_status", kind: kString, s: status},
		{name: "o_total", kind: kFloat, f: total},
	}, part: partInt, partCol: "o_day", lo: 0, hi: ordersDays, leaves: ordersLeaves}
}

// checksum fingerprints a table's contents; the determinism test compares
// it across seeds.
func (t *table) checksum() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, c := range t.cols {
		h.Write([]byte(c.name))
		for _, v := range c.i {
			put(uint64(v))
		}
		for _, v := range c.f {
			put(math.Float64bits(v))
		}
		for _, v := range c.s {
			h.Write([]byte(v))
		}
	}
	return h.Sum64()
}

// ------------------------------------------------------------------ loading

const loadBatch = 8192

func (c *column) colType() partopt.ColType {
	switch c.kind {
	case kFloat:
		return partopt.TypeFloat
	case kDate:
		return partopt.TypeDate
	case kString:
		return partopt.TypeString
	}
	return partopt.TypeInt
}

func (c *column) value(r int) partopt.Value {
	switch c.kind {
	case kFloat:
		return partopt.Float(c.f[r])
	case kDate:
		return partopt.DateOfEpochDays(c.i[r])
	case kString:
		return partopt.String(c.s[r])
	}
	return partopt.Int(c.i[r])
}

func (c *column) datum(r int) types.Datum {
	switch c.kind {
	case kFloat:
		return types.NewFloat(c.f[r])
	case kDate:
		return types.NewDate(c.i[r])
	case kString:
		return types.NewString(c.s[r])
	}
	return types.NewInt(c.i[r])
}

// loadEngine creates t in the engine through the public API and bulk-loads
// its rows.
func loadEngine(eng *partopt.Engine, t *table) error {
	defs := make([]partopt.ColumnDef, len(t.cols))
	for i := range t.cols {
		defs[i] = partopt.ColumnDef{Name: t.cols[i].name, Type: t.cols[i].colType()}
	}
	var opts []partopt.TableOption
	if t.hashCol == "" {
		opts = append(opts, partopt.Replicated())
	} else {
		opts = append(opts, partopt.DistributedBy(t.hashCol))
	}
	switch t.part {
	case partDays:
		opts = append(opts, partopt.PartitionByRangeDays(t.partCol, liYear, liMonth, liDay, liDays, 7))
	case partInt:
		opts = append(opts, partopt.PartitionByRangeInt(t.partCol, t.lo, t.hi, t.leaves))
	}
	if err := eng.CreateTable(t.name, defs, opts...); err != nil {
		return err
	}
	return eachBatch(t, (*column).value, func(batch [][]partopt.Value) error {
		if err := eng.InsertRows(t.name, batch); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
		return nil
	})
}

// eachBatch hands t's rows to flush in batches of loadBatch, each row built
// by cell from the column arrays.
func eachBatch[T any](t *table, cell func(*column, int) T, flush func([][]T) error) error {
	w := len(t.cols)
	for lo := 0; lo < t.n; lo += loadBatch {
		hi := min(lo+loadBatch, t.n)
		flat := make([]T, (hi-lo)*w)
		batch := make([][]T, hi-lo)
		for r := lo; r < hi; r++ {
			row := flat[(r-lo)*w : (r-lo+1)*w : (r-lo+1)*w]
			for c := range t.cols {
				row[c] = cell(&t.cols[c], r)
			}
			batch[r-lo] = row
		}
		if err := flush(batch); err != nil {
			return err
		}
	}
	return nil
}

// loadRig creates t through the layers' own constructors (the trace rig's
// catalog and store) and loads the same rows.
func loadRig(cat *catalog.Catalog, st *storage.Store, t *table) (*catalog.Table, error) {
	cols := make([]catalog.Column, len(t.cols))
	for i := range t.cols {
		kind := types.KindInt
		switch t.cols[i].kind {
		case kFloat:
			kind = types.KindFloat
		case kDate:
			kind = types.KindDate
		case kString:
			kind = types.KindString
		}
		cols[i] = catalog.Column{Name: t.cols[i].name, Kind: kind}
	}
	dist := catalog.Replicated()
	if t.hashCol != "" {
		dist = catalog.Hashed(t.ord(t.hashCol))
	}
	var levels []part.LevelSpec
	switch t.part {
	case partDays:
		levels = append(levels, part.RangeLevel(t.ord(t.partCol), part.DayBounds(liYear, liMonth, liDay, liDays, 7)...))
	case partInt:
		levels = append(levels, part.RangeLevel(t.ord(t.partCol), part.IntBounds(t.lo, t.hi, t.leaves)...))
	}
	ct, err := cat.CreateTable(t.name, cols, dist, levels...)
	if err != nil {
		return nil, err
	}
	st.CreateTable(ct)
	err = eachBatch(t, (*column).datum, func(batch [][]types.Datum) error {
		rows := make([]types.Row, len(batch))
		for i, r := range batch {
			rows[i] = r
		}
		if err := st.InsertBatch(ct, rows); err != nil {
			return fmt.Errorf("rig load %s: %w", t.name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ct, nil
}
