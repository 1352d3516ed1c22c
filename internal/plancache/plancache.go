// Package plancache is the engine's compiled-plan cache: an epoch-stamped
// LRU (package epochlru) keyed on normalized query fingerprints. It exists
// because the paper's partition-selection machinery makes compiled plans
// reusable across parameter values — the selector re-derives its partition
// set from the execution's parameters at Open — so the optimizer, the hot
// path of short queries under serving traffic, can be skipped entirely on
// a hit. The engine bumps the epoch on every DDL, DML or settings change
// that could invalidate a compiled plan.
package plancache

import (
	"partopt/internal/epochlru"
	"partopt/internal/legacy"
	"partopt/internal/plan"
)

// Entry is one compiled SELECT: everything the executor needs that would
// otherwise be recomputed by bind + optimize. Cached entries are shared by
// concurrent executions and never modified.
type Entry struct {
	// Plan is the physical plan (the legacy planner's main plan).
	Plan plan.Node
	// Legacy carries the legacy planner's prep steps; nil under Orca.
	Legacy *legacy.Planned
	// Columns are the result column names.
	Columns []string
	// NumParams is the bound statement's parameter count, lifted literals
	// included.
	NumParams int
	// PlanSize is the serialized size of Plan alone (Rows.PlanSize).
	PlanSize int
	// TotalSize adds the legacy prep plans (Engine.PlanSize).
	TotalSize int
	// OptGroups and OptNanos describe the memo search that produced Plan
	// (EXPLAIN ANALYZE's "optimization:" header). OptGroups is 0 for
	// legacy-planned entries; cache hits replay the figures of the
	// compilation that created the entry.
	OptGroups int
	OptNanos  int64
}

// Cache is an LRU of compiled plans.
type Cache = epochlru.Cache[*Entry]

// New creates a cache holding up to capacity entries; capacity <= 0
// disables caching.
func New(capacity int) *Cache { return epochlru.New[*Entry](capacity) }
