// Package workload generates the datasets and query workloads of the
// paper's evaluation (§4), scaled to an in-process simulation:
//
//   - a TPC-H-like lineitem table with 7 years of ship dates and the four
//     partitioning granularities of Table 2;
//   - a TPC-DS-like star schema with the seven partitioned fact tables the
//     partition-elimination workload references (store_sales, web_sales,
//     catalog_sales, store_returns, web_returns, catalog_returns,
//     inventory) plus dimension tables, and a representative query
//     workload over them (Table 3, Figures 16-17);
//   - the synthetic R(a,b)/S(a,b) pair of §4.4.2-§4.4.3 (Figure 18).
//
// All generation is deterministic: a fixed-seed PRNG keeps runs
// reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"partopt"
)

// ---------------------------------------------------------------- lineitem

// LineitemScheme selects the partitioning granularity of Table 2.
type LineitemScheme int

// The Table 2 partitioning scenarios.
const (
	LineitemUnpartitioned LineitemScheme = iota
	LineitemBiMonthly                    // 42 parts: each represents 2 months
	LineitemMonthly                      // 84 parts
	LineitemBiWeekly                     // 183 parts
	LineitemWeekly                       // 365 parts
)

// String names the scheme as Table 2 does.
func (s LineitemScheme) String() string {
	switch s {
	case LineitemBiMonthly:
		return "each part represents 2 months"
	case LineitemMonthly:
		return "partitioned monthly"
	case LineitemBiWeekly:
		return "partitioned bi-weekly"
	case LineitemWeekly:
		return "partitioned weekly"
	default:
		return "unpartitioned"
	}
}

const lineitemYears = 7

// Parts returns the number of leaf partitions the scheme produces.
func (s LineitemScheme) Parts() int {
	switch s {
	case LineitemBiMonthly:
		return lineitemYears * 12 / 2
	case LineitemMonthly:
		return lineitemYears * 12
	case LineitemBiWeekly:
		return (lineitemYears*365 + 13) / 14
	case LineitemWeekly:
		return (lineitemYears*365 + 6) / 7
	default:
		return 1
	}
}

// BuildLineitem creates and loads a lineitem table with 7 years of data
// (2007-2013) and ~rows rows, partitioned per the scheme.
func BuildLineitem(eng *partopt.Engine, scheme LineitemScheme, rows int) error {
	cols := partopt.Columns(
		"l_orderkey", partopt.TypeInt,
		"l_quantity", partopt.TypeInt,
		"l_extendedprice", partopt.TypeFloat,
		"l_shipdate", partopt.TypeDate,
	)
	opts := []partopt.TableOption{partopt.DistributedBy("l_orderkey")}
	switch scheme {
	case LineitemBiMonthly:
		opts = append(opts, partopt.PartitionByRangeMonthlyEvery("l_shipdate", 2007, 1, lineitemYears*12, 2))
	case LineitemMonthly:
		opts = append(opts, partopt.PartitionByRangeMonthly("l_shipdate", 2007, 1, lineitemYears*12))
	case LineitemBiWeekly:
		opts = append(opts, partopt.PartitionByRangeDays("l_shipdate", 2007, 1, 1, lineitemYears*365, 14))
	case LineitemWeekly:
		opts = append(opts, partopt.PartitionByRangeDays("l_shipdate", 2007, 1, 1, lineitemYears*365, 7))
	}
	if err := eng.CreateTable("lineitem", cols, opts...); err != nil {
		return err
	}
	rnd := rand.New(rand.NewSource(42))
	base, err := partopt.ParseDate("2007-01-01")
	if err != nil {
		return err
	}
	baseDay := base.Int()
	totalDays := int64(lineitemYears*365 - 1)
	batch := make([][]partopt.Value, 0, 1024)
	for i := 0; i < rows; i++ {
		day := baseDay + rnd.Int63n(totalDays)
		batch = append(batch, []partopt.Value{
			partopt.Int(int64(i)),
			partopt.Int(1 + rnd.Int63n(50)),
			partopt.Float(float64(rnd.Intn(10000)) / 100),
			dateFromDay(day),
		})
		if len(batch) == cap(batch) {
			if err := eng.InsertRows("lineitem", batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := eng.InsertRows("lineitem", batch); err != nil {
			return err
		}
	}
	return eng.Analyze()
}

func dateFromDay(day int64) partopt.Value {
	// partopt.Date wants Y/M/D; go through time via ParseDate-free path:
	// build from epoch days using the Value API (DateOf is UTC-day based).
	return partopt.DateOfEpochDays(day)
}

// ---------------------------------------------------------------- R and S

// BuildRS creates the synthetic R(a,b), S(a,b) pair of §4.4.2: both range
// partitioned on b into `parts` partitions over [0, parts*100), hash
// distributed on a, with rowsPerPart rows per partition.
func BuildRS(eng *partopt.Engine, parts, rowsPerPart int) error {
	for _, name := range []string{"r", "s"} {
		if err := eng.CreateTable(name,
			partopt.Columns("a", partopt.TypeInt, "b", partopt.TypeInt),
			partopt.DistributedBy("a"),
			partopt.PartitionByRangeInt("b", 0, int64(parts*100), parts),
		); err != nil {
			return err
		}
		rnd := rand.New(rand.NewSource(int64(len(name)) * 77))
		var batch [][]partopt.Value
		for p := 0; p < parts; p++ {
			for i := 0; i < rowsPerPart; i++ {
				b := int64(p*100) + rnd.Int63n(100)
				// a ∈ [0, 1000): the paper's S.a < 100 filter keeps ~10%.
				batch = append(batch, []partopt.Value{
					partopt.Int(rnd.Int63n(1000)),
					partopt.Int(b),
				})
			}
		}
		if err := eng.InsertRows(name, batch); err != nil {
			return err
		}
	}
	return eng.Analyze()
}

// ---------------------------------------------------------------- star schema

// StarConfig scales the TPC-DS-like star schema.
type StarConfig struct {
	Months       int // fact partition count (one partition per month)
	DaysPerMonth int
	SalesPerDay  int // rows/day in each *_sales fact
	ReturnsRate  int // one return per this many sales
	Customers    int
	Items        int
}

// DefaultStarConfig is the scale used by the Table 3 / Figure 16-17
// reproductions: 24 monthly partitions per fact, modest row counts.
func DefaultStarConfig() StarConfig {
	return StarConfig{
		Months:       24,
		DaysPerMonth: 10,
		SalesPerDay:  40,
		ReturnsRate:  4,
		Customers:    200,
		Items:        100,
	}
}

// FactTables lists the partitioned fact tables, in the order of Figure 16.
var FactTables = []string{
	"store_sales", "web_sales", "catalog_sales",
	"store_returns", "web_returns", "catalog_returns", "inventory",
}

// Days returns the total day count of the config.
func (c StarConfig) Days() int { return c.Months * c.DaysPerMonth }

// BuildStar creates and loads the star schema.
func BuildStar(eng *partopt.Engine, cfg StarConfig) error {
	days := cfg.Days()

	if err := eng.CreateTable("date_dim",
		partopt.Columns(
			"date_id", partopt.TypeInt,
			"year", partopt.TypeInt,
			"month", partopt.TypeInt, // 1-based global month index
			"moy", partopt.TypeInt, // month of year 1..12
			"dom", partopt.TypeInt, // day of month
			"dow", partopt.TypeInt, // day of week
		),
		partopt.Replicated(),
	); err != nil {
		return err
	}
	for d := 0; d < days; d++ {
		m := d / cfg.DaysPerMonth
		if err := eng.Insert("date_dim",
			partopt.Int(int64(d)),
			partopt.Int(int64(2012+m/12)),
			partopt.Int(int64(m+1)),
			partopt.Int(int64(m%12+1)),
			partopt.Int(int64(d%cfg.DaysPerMonth+1)),
			partopt.Int(int64(d%7)),
		); err != nil {
			return err
		}
	}

	if err := eng.CreateTable("customer_dim",
		partopt.Columns("cust_id", partopt.TypeInt, "state", partopt.TypeString, "segment", partopt.TypeString),
		partopt.Replicated(),
	); err != nil {
		return err
	}
	states := []string{"CA", "NY", "TX", "WA", "MA", "IL"}
	segments := []string{"consumer", "corporate", "hobbyist"}
	rnd := rand.New(rand.NewSource(7))
	for c := 0; c < cfg.Customers; c++ {
		if err := eng.Insert("customer_dim",
			partopt.Int(int64(c)),
			partopt.String(states[rnd.Intn(len(states))]),
			partopt.String(segments[rnd.Intn(len(segments))]),
		); err != nil {
			return err
		}
	}

	if err := eng.CreateTable("item_dim",
		partopt.Columns("item_id", partopt.TypeInt, "category", partopt.TypeString, "price", partopt.TypeFloat),
		partopt.Replicated(),
	); err != nil {
		return err
	}
	categories := []string{"books", "music", "sports", "home", "electronics"}
	for i := 0; i < cfg.Items; i++ {
		if err := eng.Insert("item_dim",
			partopt.Int(int64(i)),
			partopt.String(categories[rnd.Intn(len(categories))]),
			partopt.Float(float64(1+rnd.Intn(500))),
		); err != nil {
			return err
		}
	}

	// Fact tables, all partitioned monthly on date_id.
	factCols := partopt.Columns(
		"date_id", partopt.TypeInt,
		"item_id", partopt.TypeInt,
		"cust_id", partopt.TypeInt,
		"quantity", partopt.TypeInt,
		"amount", partopt.TypeFloat,
	)
	for _, fact := range FactTables {
		if err := eng.CreateTable(fact, factCols,
			partopt.DistributedBy("cust_id"),
			partopt.PartitionByRangeInt("date_id", 0, int64(days), cfg.Months),
		); err != nil {
			return err
		}
	}

	load := func(name string, perDay int, seed int64) error {
		rnd := rand.New(rand.NewSource(seed))
		var batch [][]partopt.Value
		for d := 0; d < days; d++ {
			for i := 0; i < perDay; i++ {
				batch = append(batch, []partopt.Value{
					partopt.Int(int64(d)),
					partopt.Int(rnd.Int63n(int64(cfg.Items))),
					partopt.Int(rnd.Int63n(int64(cfg.Customers))),
					partopt.Int(1 + rnd.Int63n(10)),
					partopt.Float(float64(rnd.Intn(50000)) / 100),
				})
				if len(batch) >= 2048 {
					if err := eng.InsertRows(name, batch); err != nil {
						return err
					}
					batch = batch[:0]
				}
			}
		}
		return eng.InsertRows(name, batch)
	}
	salesPerDay := cfg.SalesPerDay
	returnsPerDay := salesPerDay / cfg.ReturnsRate
	if returnsPerDay < 1 {
		returnsPerDay = 1
	}
	plan := map[string]int{
		"store_sales":     salesPerDay,
		"web_sales":       salesPerDay * 3 / 4,
		"catalog_sales":   salesPerDay / 2,
		"store_returns":   returnsPerDay,
		"web_returns":     returnsPerDay,
		"catalog_returns": returnsPerDay,
		"inventory":       salesPerDay / 2,
	}
	seed := int64(100)
	for _, fact := range FactTables {
		seed++
		if err := load(fact, plan[fact], seed); err != nil {
			return fmt.Errorf("loading %s: %w", fact, err)
		}
	}
	return eng.Analyze()
}
