// Package partopt is an embeddable MPP query engine reproducing
// "Optimizing Queries over Partitioned Tables in MPP Systems" (SIGMOD
// 2014): a shared-nothing cluster simulation with partitioned tables, two
// query optimizers — an Orca-style Memo optimizer with PartitionSelector /
// DynamicScan based partition elimination, and the legacy inheritance-style
// Planner it is evaluated against — and a SQL front end.
//
// Typical use:
//
//	eng, _ := partopt.New(4)
//	eng.MustCreateTable("orders",
//	    partopt.Columns("id", partopt.TypeInt, "amount", partopt.TypeFloat, "date", partopt.TypeDate),
//	    partopt.DistributedBy("id"),
//	    partopt.PartitionByRangeMonthly("date", 2012, 1, 24))
//	eng.Insert("orders", partopt.Int(1), partopt.Float(9.5), partopt.Date(2013, 10, 2))
//	eng.Analyze()
//	rows, _ := eng.Query("SELECT avg(amount) FROM orders WHERE date BETWEEN '2013-10-01' AND '2013-12-31'")
package partopt

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"partopt/internal/catalog"
	"partopt/internal/exec"
	"partopt/internal/fts"
	"partopt/internal/legacy"
	"partopt/internal/mem"
	"partopt/internal/obs"
	"partopt/internal/oidcache"
	"partopt/internal/orca"
	"partopt/internal/plan"
	"partopt/internal/plancache"
	"partopt/internal/sql"
	"partopt/internal/stats"
	"partopt/internal/storage"
	"partopt/internal/types"
)

// ErrOutOfMemory matches (via errors.Is) the structured error a query
// returns when a memory reservation that cannot be satisfied by spilling
// exceeds the engine's budget.
var ErrOutOfMemory = mem.ErrOutOfMemory

// OptimizerKind selects which planner compiles queries.
type OptimizerKind uint8

// The two optimizers of the paper's evaluation.
const (
	// Orca is the Memo-based optimizer with unified static/dynamic
	// partition elimination (the paper's contribution).
	Orca OptimizerKind = iota
	// LegacyPlanner is the inheritance-style baseline.
	LegacyPlanner
)

func (k OptimizerKind) String() string {
	if k == LegacyPlanner {
		return "planner"
	}
	return "orca"
}

// Engine is one simulated MPP database instance. An Engine is safe for
// concurrent use: the plan phase (bind + optimize + plan-cache access)
// runs under a read lock, catalog-shape changes (DDL, ANALYZE, optimizer
// switches) take the write lock and bump the plan-cache epoch, and query
// execution runs outside the engine lock entirely (plan trees are
// immutable at run time).
type Engine struct {
	cat   *catalog.Catalog
	store *storage.Store
	rt    *exec.Runtime

	// mu orders the plan phase against catalog changes. It does not cover
	// execution or storage (the store has its own lock).
	mu    sync.RWMutex
	plans *plancache.Cache
	met   engineMetrics

	optimizer        OptimizerKind
	disableSelection bool
	segments         int
	govCfg           mem.Config

	// fts is the segment fault tolerance service; nil until
	// EnableFaultTolerance (see ft.go).
	fts *fts.Service
}

// engineMetrics caches engine-level instrument pointers (cache counters
// are mirrored by the plancache itself; see wireCacheMetrics).
type engineMetrics struct {
	// optimizations counts optimizer invocations — a cache hit performs
	// zero of them.
	optimizations *obs.Counter
	// hitLatency observes end-to-end latency of queries served from the
	// plan cache.
	hitLatency *obs.Histogram
	// optGroups accumulates memo-search effort across optimizer
	// invocations: groups explored.
	optGroups *obs.Counter
}

// New creates an engine with the given number of segments.
func New(segments int) (*Engine, error) {
	if segments < 1 {
		return nil, fmt.Errorf("partopt: need at least one segment")
	}
	st := storage.NewStore(segments)
	reg := obs.NewRegistry()
	e := &Engine{
		cat:      catalog.New(),
		store:    st,
		rt:       &exec.Runtime{Store: st, Obs: reg, OIDCache: oidcache.New(DefaultOIDCacheCapacity)},
		plans:    plancache.New(DefaultPlanCacheCapacity),
		segments: segments,
	}
	e.met.optimizations = reg.Counter("partopt_optimizations_total")
	e.met.hitLatency = reg.Histogram("partopt_plan_cache_hit_latency_seconds", obs.DefaultLatencyBuckets())
	e.met.optGroups = reg.Counter("partopt_optimizer_memo_groups_total")
	e.wireCacheMetrics()
	return e, nil
}

// Segments returns the cluster width.
func (e *Engine) Segments() int { return e.segments }

// SetOptimizer switches between Orca and the legacy Planner. Cached plans
// are keyed by optimizer, but the switch still bumps the epoch: settings
// changes are invalidating surfaces.
func (e *Engine) SetOptimizer(k OptimizerKind) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k != e.optimizer {
		e.plans.Bump()
	}
	e.optimizer = k
}

// Optimizer reports the active optimizer.
func (e *Engine) Optimizer() OptimizerKind {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.optimizer
}

// SetPartitionSelection enables or disables partition elimination in the
// Orca optimizer (the paper's Figure 17 knob). The legacy planner's
// equivalent knob is its dynamic-elimination flag, toggled the same way.
func (e *Engine) SetPartitionSelection(enabled bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.disableSelection != !enabled {
		e.plans.Bump()
	}
	e.disableSelection = !enabled
}

// SetMemBudget caps the executor's total memory across all concurrent
// queries, in bytes. A query whose irreducible working set would exceed it
// fails with ErrOutOfMemory; working sets above the per-query threshold
// (see SetWorkMem) spill to disk instead. 0 removes the cap. Call before
// running queries — the governor is rebuilt, not adjusted in place.
func (e *Engine) SetMemBudget(bytes int64) {
	e.govCfg.Total = bytes
	e.rebuildGovernor()
}

// SetWorkMem sets the per-query in-memory working-set threshold, in bytes:
// above it, hash joins, aggregations and sorts spill to disk. 0 derives a
// fair share of the total budget (or unlimited when there is no budget).
func (e *Engine) SetWorkMem(bytes int64) {
	e.govCfg.WorkMem = bytes
	e.rebuildGovernor()
}

// SetMaxConcurrent bounds the queries executing at once; excess queries
// wait in an admission queue (cancellation and deadlines abort queued
// queries cleanly). 0 removes the bound.
func (e *Engine) SetMaxConcurrent(n int) {
	e.govCfg.MaxConcurrent = n
	e.rebuildGovernor()
}

// SetSpillDir places operator spill files under dir ("" = the system temp
// directory). Each query gets its own subdirectory, removed when the query
// ends.
func (e *Engine) SetSpillDir(dir string) {
	e.govCfg.BaseDir = dir
	e.rebuildGovernor()
}

func (e *Engine) rebuildGovernor() {
	if e.govCfg == (mem.Config{}) {
		e.rt.Gov = nil
		return
	}
	e.rt.Gov = mem.NewGovernor(e.govCfg)
}

// Insert adds one row to a table: it is a one-row InsertRows.
func (e *Engine) Insert(table string, vals ...Value) error {
	return e.InsertRows(table, [][]Value{vals})
}

// InsertRows bulk-loads rows in one storage critical section (one lock
// acquisition and one columnar append per touched leaf, one epoch bump for
// the whole batch). The batch is all-or-nothing: if any row fails
// validation or routing, nothing is inserted.
func (e *Engine) InsertRows(table string, rows [][]Value) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("partopt: unknown table %q", table)
	}
	batch := make([]types.Row, len(rows))
	for i, r := range rows {
		batch[i] = toRow(r)
	}
	return e.insertRows(t, batch)
}

// insertRows is the engine's one insert path, under e.mu held for reading:
// one all-or-nothing InsertBatch, then, only if it succeeded, one
// plan-cache epoch bump. Like every write, a successful insert leaves
// cached plans executable but costed against the old data; a failed one
// changed nothing.
func (e *Engine) insertRows(t *catalog.Table, rows []types.Row) error {
	if err := e.store.InsertBatch(t, rows); err != nil {
		return err
	}
	e.plans.Bump()
	return nil
}

// CreateIndex adds a secondary index over one column. Partitioned tables
// get one physical index per leaf partition, which lets the optimizer
// combine partition elimination with index lookups (DynamicIndexScan).
func (e *Engine) CreateIndex(name, table, column string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("partopt: unknown table %q", table)
	}
	ord, ok := t.ColOrd(column)
	if !ok {
		return fmt.Errorf("partopt: table %q has no column %q", table, column)
	}
	if _, exists := t.IndexOn(ord); exists {
		return fmt.Errorf("partopt: column %q already indexed", column)
	}
	def := catalog.IndexDef{Name: name, ColOrd: ord}
	if err := e.store.CreateIndex(t, def); err != nil {
		return err
	}
	t.Indexes = append(t.Indexes, def)
	e.plans.Bump()
	return nil
}

// Analyze collects optimizer statistics for every table and invalidates
// cached plans (they were costed against the old statistics).
func (e *Engine) Analyze() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	err := stats.CollectAll(e.store, e.cat)
	e.plans.Bump()
	return err
}

// TableNames lists the catalog's tables.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ts := e.cat.Tables()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// NumPartitions returns the leaf partition count of a table (1 for
// unpartitioned tables).
func (e *Engine) NumPartitions(table string) (int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("partopt: unknown table %q", table)
	}
	if !t.IsPartitioned() {
		return 1, nil
	}
	return t.Part.NumLeaves(), nil
}

// Rows is a query result.
type Rows struct {
	Columns []string
	Data    [][]Value

	// Execution metrics.
	PartsScanned map[string]int // table → distinct leaf partitions read
	RowsScanned  int64
	RowsMoved    int64
	SpilledBytes int64 // bytes operators wrote to spill files
	SpillParts   int64 // spill partitions and sort runs created
	PlanSize     int   // serialized plan bytes (the Figure 18 metric)

	// The executed plan and its execution record; OpStats and
	// ExplainAnalyze render from them on demand.
	ent   *plancache.Entry
	stats *exec.Stats
}

// Query parses, plans and executes a SELECT, binding args to $1, $2, ...
func (e *Engine) Query(query string, args ...Value) (*Rows, error) {
	return e.QueryCtx(context.Background(), query, args...)
}

// QueryCtx is Query governed by a context: cancelling it or exceeding its
// deadline aborts the query on every segment. On error the returned *Rows,
// when non-nil, carries the partial execution statistics accumulated before
// the abort (no data rows), so callers can report work done so far.
//
// SELECTs run through the plan cache: under Orca the query is normalized
// (liftable literals become trailing parameters) so textually distinct
// point queries share one dynamic-selection plan; a cache hit skips bind
// and optimization entirely.
func (e *Engine) QueryCtx(ctx context.Context, query string, args ...Value) (*Rows, error) {
	p, err := e.prepare(query)
	if err != nil {
		return nil, err
	}
	return e.queryPrepared(ctx, p, args, false)
}

// Exec plans and executes a DML statement (INSERT, UPDATE, DELETE),
// returning the affected row count.
func (e *Engine) Exec(query string, args ...Value) (int64, error) {
	return e.ExecCtx(context.Background(), query, args...)
}

// ExecCtx is Exec governed by a context. Note that cancelling a DML
// statement mid-flight may leave part of its effects applied — the
// simulator has no transactional rollback. DML plans are never cached;
// each successful execution bumps the plan-cache epoch instead.
func (e *Engine) ExecCtx(ctx context.Context, query string, args ...Value) (int64, error) {
	p, err := e.prepare(query)
	if err != nil {
		return 0, err
	}
	return e.execPrepared(ctx, p, args)
}

// Explain returns the physical plan of a query under the active
// optimizer. SELECTs route through the plan cache, so Explain followed by
// Query (or two Explains back-to-back) optimizes once per fingerprint.
func (e *Engine) Explain(query string) (string, error) {
	p, err := e.prepare(query)
	if err != nil {
		return "", err
	}
	if p.kind == kindSelect {
		ent, _, _, err := e.lookupOrCompile(p)
		if err != nil {
			return "", err
		}
		return plan.Explain(ent.Plan), nil
	}
	ent, err := e.compileDML(p)
	if err != nil {
		return "", err
	}
	return plan.Explain(ent.Plan), nil
}

// PlanSize returns the serialized plan size in bytes — the paper's
// Figure 18 metric — without executing the query. Like Explain, SELECTs
// are served from the plan cache.
func (e *Engine) PlanSize(query string) (int, error) {
	p, err := e.prepare(query)
	if err != nil {
		return 0, err
	}
	if p.kind == kindSelect {
		ent, _, _, err := e.lookupOrCompile(p)
		if err != nil {
			return 0, err
		}
		return ent.TotalSize, nil
	}
	ent, err := e.compileDML(p)
	if err != nil {
		return 0, err
	}
	return ent.TotalSize, nil
}

// compileDML binds and plans a non-cacheable statement fresh.
func (e *Engine) compileDML(p *prepared) (*plancache.Entry, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	bound, err := sql.Bind(e.cat, p.stmt)
	if err != nil {
		return nil, err
	}
	return e.compileBound(bound)
}

// plan compiles a bound statement with the active optimizer and applies
// the presentation shell (ORDER BY / LIMIT run on the coordinator). For
// the legacy planner the second result carries the prep steps. Every call
// counts one optimizer invocation — the plan cache's purpose is to make
// this counter stop moving under repeated traffic.
func (e *Engine) plan(bound *sql.Bound) (plan.Node, *legacy.Planned, orca.OptStats, error) {
	e.met.optimizations.Inc()
	var node plan.Node
	var pl *legacy.Planned
	var stats orca.OptStats
	switch e.optimizer {
	case LegacyPlanner:
		p := &legacy.Planner{Segments: e.segments, DisableDynamic: e.disableSelection}
		planned, err := p.Plan(bound.Root)
		if err != nil {
			return nil, nil, stats, err
		}
		node, pl = planned.Main, planned
	default:
		o := &orca.Optimizer{
			Segments:         e.segments,
			DisableSelection: e.disableSelection,
		}
		n, err := o.Optimize(bound.Root)
		if err != nil {
			return nil, nil, stats, err
		}
		// Cost decides which plan wins, never whether it is well-formed.
		if err := plan.Validate(n); err != nil {
			return nil, nil, stats, fmt.Errorf("partopt: optimizer produced an invalid plan: %w", err)
		}
		node = n
		stats = o.Stats
		e.met.optGroups.Add(int64(stats.Groups))
	}
	if len(bound.OrderBy) > 0 {
		node = plan.NewSort(bound.OrderBy, node)
	}
	if bound.Limit >= 0 {
		node = plan.NewLimit(bound.Limit, node)
	}
	if pl != nil {
		pl.Main = node
	}
	return node, pl, stats, nil
}

// executeEntry runs a compiled plan with fully bound parameter values
// (explicit arguments followed by any literals the normalizer lifted).
// It takes no engine locks: entries are immutable at run time, and all
// per-execution state lives in the exec.Params / exec.Stats it creates.
// timed turns on per-operator wall-clock sampling (the EXPLAIN ANALYZE
// entry points pass true; plain queries skip the clock reads).
func (e *Engine) executeEntry(ctx context.Context, ent *plancache.Entry, vals []types.Datum, timed bool) (*Rows, error) {
	params := &exec.Params{Vals: vals}
	stats := exec.NewStats()
	if timed {
		stats.EnableTiming()
	}
	var res *exec.Result
	var err error
	if ent.Legacy != nil {
		res, err = legacy.ExecuteIntoCtx(ctx, e.rt, ent.Legacy, params, stats)
	} else {
		res, err = exec.RunIntoCtx(ctx, e.rt, ent.Plan, params, stats)
	}

	// On error the counters are partial: what the cluster did before the
	// abort.
	out := &Rows{
		Columns:      ent.Columns,
		PartsScanned: map[string]int{},
		RowsScanned:  stats.RowsScanned(),
		RowsMoved:    stats.RowsMoved(),
		SpilledBytes: stats.SpilledBytes(),
		SpillParts:   stats.SpillParts(),
		PlanSize:     ent.PlanSize,
		ent:          ent,
		stats:        stats,
	}
	for _, tname := range stats.TablesScanned() {
		out.PartsScanned[tname] = stats.PartsScanned(tname)
	}
	if err != nil {
		return out, err
	}
	out.Data = fromRows(res.Rows)
	return out, nil
}

// SortData orders result rows by their rendered form — a helper for tests
// and examples that need deterministic output from an unordered engine.
func (r *Rows) SortData() {
	sort.Slice(r.Data, func(i, j int) bool {
		return fmt.Sprint(r.Data[i]) < fmt.Sprint(r.Data[j])
	})
}
