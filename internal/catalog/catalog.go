// Package catalog holds table metadata: schemas, distribution policies for
// the MPP cluster, partition descriptors, and collected statistics. It is
// the single source of truth both optimizers and the executor consult.
package catalog

import (
	"fmt"
	"sort"

	"partopt/internal/part"
	"partopt/internal/types"
)

// Column describes one table column.
type Column struct {
	Name string
	Kind types.Kind
}

// DistKind is how a table's rows are spread across segments.
type DistKind uint8

// Distribution kinds (paper §3.1): hash distribution spreads rows by a hash
// of the distribution key; replicated stores a full copy on every segment.
const (
	DistHashed DistKind = iota
	DistReplicated
)

func (k DistKind) String() string {
	if k == DistReplicated {
		return "replicated"
	}
	return "hashed"
}

// DistPolicy is a table's distribution policy.
type DistPolicy struct {
	Kind    DistKind
	KeyOrds []int // hash key column ordinals (DistHashed only)
}

// Hashed returns a hash-distribution policy over the given columns.
func Hashed(keyOrds ...int) DistPolicy {
	return DistPolicy{Kind: DistHashed, KeyOrds: keyOrds}
}

// Replicated returns a replicated-distribution policy.
func Replicated() DistPolicy { return DistPolicy{Kind: DistReplicated} }

func (p DistPolicy) String() string {
	if p.Kind == DistReplicated {
		return "replicated"
	}
	return fmt.Sprintf("hashed%v", p.KeyOrds)
}

// ColumnStats summarizes one column for cardinality estimation.
type ColumnStats struct {
	NDV      int64 // number of distinct values
	NullFrac float64
	Min, Max types.Datum
}

// TableStats summarizes a table for costing.
type TableStats struct {
	RowCount int64
	LeafRows map[part.OID]int64 // per-leaf row counts (partitioned tables)
	Cols     []ColumnStats
}

// IndexDef is one secondary index over a single column. Partitioned
// tables get one physical index per leaf partition, maintained by the
// storage layer.
type IndexDef struct {
	Name   string
	ColOrd int
}

// Table is the catalog entry for one table.
type Table struct {
	Name    string
	OID     part.OID // root OID; also the storage key
	Cols    []Column
	Dist    DistPolicy
	Part    *part.Desc  // nil when the table is not partitioned
	Stats   *TableStats // nil until collected
	Indexes []IndexDef
}

// IndexOn returns the index covering the given column, if any.
func (t *Table) IndexOn(colOrd int) (IndexDef, bool) {
	for _, idx := range t.Indexes {
		if idx.ColOrd == colOrd {
			return idx, true
		}
	}
	return IndexDef{}, false
}

// IsPartitioned reports whether the table has a partition descriptor.
func (t *Table) IsPartitioned() bool { return t.Part != nil }

// ColOrd returns the ordinal of the named column.
func (t *Table) ColOrd(name string) (int, bool) {
	for i, c := range t.Cols {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Cols) }

// Catalog is a registry of tables with a shared OID allocator.
type Catalog struct {
	tables  map[string]*Table
	nextOID part.OID
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  map[string]*Table{},
		nextOID: 1,
	}
}

// AllocOID hands out a fresh OID.
func (c *Catalog) AllocOID() part.OID {
	oid := c.nextOID
	c.nextOID++
	return oid
}

// CreateTable registers a new table. partLevels, when non-empty, define a
// (possibly multi-level) partitioning scheme; key ordinals must name valid
// columns.
func (c *Catalog) CreateTable(name string, cols []Column, dist DistPolicy, partLevels ...part.LevelSpec) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %q has no columns", name)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		if col.Name == "" {
			return nil, fmt.Errorf("catalog: table %q has an unnamed column", name)
		}
		if seen[col.Name] {
			return nil, fmt.Errorf("catalog: table %q has duplicate column %q", name, col.Name)
		}
		seen[col.Name] = true
	}
	if dist.Kind == DistHashed {
		if len(dist.KeyOrds) == 0 {
			return nil, fmt.Errorf("catalog: table %q: hash distribution needs key columns", name)
		}
		for _, ord := range dist.KeyOrds {
			if ord < 0 || ord >= len(cols) {
				return nil, fmt.Errorf("catalog: table %q: distribution key ordinal %d out of range", name, ord)
			}
		}
	}
	for _, l := range partLevels {
		if l.KeyOrd < 0 || l.KeyOrd >= len(cols) {
			return nil, fmt.Errorf("catalog: table %q: partition key ordinal %d out of range", name, l.KeyOrd)
		}
	}
	t := &Table{Name: name, OID: c.AllocOID(), Cols: cols, Dist: dist}
	if len(partLevels) > 0 {
		t.Part = part.Build(t.OID, c.AllocOID, partLevels...)
	}
	c.tables[name] = t
	return t, nil
}

// Table looks a table up by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// MustTable looks a table up by name and panics when absent (test helper
// and internal-invariant accessor).
func (c *Catalog) MustTable(name string) *Table {
	t, ok := c.tables[name]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown table %q", name))
	}
	return t
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
