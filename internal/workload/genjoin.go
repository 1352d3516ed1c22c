package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"partopt"
)

// Generated large-join schemas for the parallel-optimizer differential
// harness: star and snowflake graphs of 5-20 tables with seeded random
// physical layouts (distribution column, replicated vs hashed dimensions),
// plus the N-way join query over them. Everything is derived from the seed,
// so a failure reproduces from the config alone.

// JoinShape selects the generated join-graph topology.
type JoinShape string

// The generated topologies.
const (
	JoinStar      JoinShape = "star"      // every dimension joins the fact
	JoinSnowflake JoinShape = "snowflake" // half the tables hang off dimensions
)

// JoinSchemaConfig describes one generated schema.
type JoinSchemaConfig struct {
	Tables int       // total table count, fact included (>= 3)
	Shape  JoinShape // star or snowflake
	Seed   int64     // drives layouts, data and the query filter
	Parts  int       // fact partition count; 0 means 24
}

// JoinSchema is what BuildJoinSchema created.
type JoinSchema struct {
	Config JoinSchemaConfig
	Fact   string   // partitioned fact table
	Dims   []string // first-level dimensions, joined fact.k<i> = d<i>.k
	Outs   []string // snowflake outriggers, joined d<i>.v = o<i>.k ("" = none)
	SQL    string   // the N-way aggregate join query over the schema
}

// Prefix returns the table-name prefix of the config, unique per
// (shape, size, seed) so several schemas can share one engine.
func (c JoinSchemaConfig) Prefix() string {
	return fmt.Sprintf("j%s%d_s%d", c.Shape, c.Tables, c.Seed)
}

const (
	joinDimKeys = 24 // distinct dimension keys; fact keys are uniform over them
	joinOutKeys = 12 // distinct outrigger keys; dim payloads are uniform over them
)

// BuildJoinSchema creates and loads one generated schema and returns it
// with its query. The fact table is range partitioned on date_id; its
// distribution column, each dimension's layout (replicated vs hashed) and
// the query's filter are drawn from the seed.
func BuildJoinSchema(eng *partopt.Engine, cfg JoinSchemaConfig) (*JoinSchema, error) {
	if cfg.Tables < 3 {
		return nil, fmt.Errorf("join schema needs at least 3 tables, got %d", cfg.Tables)
	}
	if cfg.Parts == 0 {
		cfg.Parts = 24
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	prefix := cfg.Prefix()
	js := &JoinSchema{Config: cfg, Fact: prefix + "_fact"}

	nDims := cfg.Tables - 1
	if cfg.Shape == JoinSnowflake {
		// Half the non-fact budget becomes outriggers, one per dimension
		// until the budget runs out: d1-o1, d2-o2, ..., then bare dims.
		nDims = (cfg.Tables - 1 + 1) / 2
	}
	nOuts := cfg.Tables - 1 - nDims

	// Fact: date_id (partitioning key), one join key per dimension, and a
	// payload; the distribution column is a seeded pick.
	factCols := []interface{}{"date_id", partopt.TypeInt}
	for i := 1; i <= nDims; i++ {
		factCols = append(factCols, fmt.Sprintf("k%d", i), partopt.TypeInt)
	}
	factCols = append(factCols, "amount", partopt.TypeFloat)
	distCol := "date_id"
	if pick := rnd.Intn(nDims + 1); pick > 0 {
		distCol = fmt.Sprintf("k%d", pick)
	}
	span := int64(cfg.Parts * 10)
	if err := eng.CreateTable(js.Fact, partopt.Columns(factCols...),
		partopt.DistributedBy(distCol),
		partopt.PartitionByRangeInt("date_id", 0, span, cfg.Parts),
	); err != nil {
		return nil, err
	}

	// Dimensions and outriggers, layouts drawn per table.
	layout := func(keyCol string) partopt.TableOption {
		if rnd.Intn(2) == 0 {
			return partopt.Replicated()
		}
		return partopt.DistributedBy(keyCol)
	}
	for i := 1; i <= nDims; i++ {
		name := fmt.Sprintf("%s_d%d", prefix, i)
		js.Dims = append(js.Dims, name)
		if err := eng.CreateTable(name,
			partopt.Columns("k", partopt.TypeInt, "v", partopt.TypeInt),
			layout("k"),
		); err != nil {
			return nil, err
		}
		out := ""
		if i <= nOuts {
			out = fmt.Sprintf("%s_o%d", prefix, i)
			if err := eng.CreateTable(out,
				partopt.Columns("k", partopt.TypeInt, "w", partopt.TypeInt),
				layout("k"),
			); err != nil {
				return nil, err
			}
		}
		js.Outs = append(js.Outs, out)
	}

	// Data: one fact row per date unit, keys uniform over the dimension
	// domain; dimensions cover their key domain exactly once.
	var facts [][]partopt.Value
	for d := int64(0); d < span; d++ {
		row := []partopt.Value{partopt.Int(d)}
		for i := 0; i < nDims; i++ {
			row = append(row, partopt.Int(rnd.Int63n(joinDimKeys)))
		}
		row = append(row, partopt.Float(float64(rnd.Intn(10000))/100))
		facts = append(facts, row)
	}
	if err := eng.InsertRows(js.Fact, facts); err != nil {
		return nil, err
	}
	for i, dim := range js.Dims {
		var rows [][]partopt.Value
		for k := int64(0); k < joinDimKeys; k++ {
			rows = append(rows, []partopt.Value{partopt.Int(k), partopt.Int(rnd.Int63n(joinOutKeys))})
		}
		if err := eng.InsertRows(dim, rows); err != nil {
			return nil, err
		}
		if js.Outs[i] == "" {
			continue
		}
		rows = nil
		for k := int64(0); k < joinOutKeys; k++ {
			rows = append(rows, []partopt.Value{partopt.Int(k), partopt.Int(rnd.Int63n(100))})
		}
		if err := eng.InsertRows(js.Outs[i], rows); err != nil {
			return nil, err
		}
	}
	if err := eng.Analyze(); err != nil {
		return nil, err
	}

	js.SQL = joinQuery(js, rnd)
	return js, nil
}

// joinQuery renders the N-way aggregate join over the schema: fact joined
// to every dimension, dimensions to their outriggers, plus a seeded filter
// (on the partitioning key, a dimension key, or both) so partition
// elimination has something to work with.
func joinQuery(js *JoinSchema, rnd *rand.Rand) string {
	var from, where []string
	from = append(from, js.Fact+" f")
	for i, dim := range js.Dims {
		a := fmt.Sprintf("d%d", i+1)
		from = append(from, fmt.Sprintf("%s %s", dim, a))
		where = append(where, fmt.Sprintf("f.k%d = %s.k", i+1, a))
		if js.Outs[i] != "" {
			oa := fmt.Sprintf("o%d", i+1)
			from = append(from, fmt.Sprintf("%s %s", js.Outs[i], oa))
			where = append(where, fmt.Sprintf("%s.v = %s.k", a, oa))
		}
	}
	span := int(js.Config.Parts) * 10
	factFilter := func() string {
		lo := rnd.Intn(span / 2)
		return fmt.Sprintf("f.date_id BETWEEN %d AND %d", lo, lo+rnd.Intn(span-lo))
	}
	dimFilter := func() string {
		return fmt.Sprintf("d1.k < %d", 1+rnd.Intn(joinDimKeys))
	}
	switch rnd.Intn(3) {
	case 0:
		where = append(where, factFilter())
	case 1:
		where = append(where, dimFilter())
	default:
		where = append(where, factFilter(), dimFilter())
	}
	return fmt.Sprintf("SELECT count(*), sum(f.amount) FROM %s WHERE %s",
		strings.Join(from, ", "), strings.Join(where, " AND "))
}
