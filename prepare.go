package partopt

import (
	"context"
	"fmt"
	"time"

	"partopt/internal/epochlru"
	"partopt/internal/obs"
	"partopt/internal/plan"
	"partopt/internal/plancache"
	"partopt/internal/sql"
)

// DefaultPlanCacheCapacity is the engine's initial plan-cache size, in
// entries. Use SetPlanCacheCapacity to change it (0 disables caching).
const DefaultPlanCacheCapacity = 256

// DefaultOIDCacheCapacity is the engine's initial partition-OID-cache
// size, in entries (one entry per distinct (table, interval-set) static
// selection). Use SetOIDCacheCapacity to change it (0 disables caching).
const DefaultOIDCacheCapacity = 1024

type stmtKind uint8

const (
	kindSelect stmtKind = iota
	kindInsert
	kindDML // UPDATE / DELETE
)

// prepared is the optimizer-independent front half of a statement: parsed
// once, normalized once, reusable across executions and optimizer
// switches. It holds both fingerprints — the Orca one over the
// auto-parameterized tree (Orca's PartitionSelector re-derives partition
// sets from parameter values at run time, so lifted literals don't cost
// pruning) and the legacy one over the raw tree (the legacy planner prunes
// statically at plan time and must see literal values).
type prepared struct {
	text  string
	kind  stmtKind
	stmt  sql.Statement
	sel   *sql.SelectStmt // raw tree; kindSelect only
	norm  *sql.Normalized // auto-parameterized tree + Orca fingerprint
	canon string          // canonical text of the raw tree — legacy fingerprint
}

// prepare parses and fingerprints a statement. It takes no engine locks:
// everything here depends only on the query text.
func (e *Engine) prepare(query string) (*prepared, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	p := &prepared{text: query, stmt: stmt}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		p.kind = kindSelect
		p.sel = s
		p.norm = sql.NormalizeSelect(s)
		p.canon = sql.FormatSelect(s)
	case *sql.InsertStmt:
		p.kind = kindInsert
	default:
		p.kind = kindDML
	}
	return p, nil
}

// cacheKey derives the plan-cache key: fingerprint + optimizer kind +
// selection flag. Plans compiled under different optimizers or with
// partition selection toggled are distinct cache entries.
func (e *Engine) cacheKey(p *prepared, useNorm bool) string {
	fp, kind := p.canon, "planner"
	if useNorm {
		fp, kind = p.norm.Text, "orca"
	}
	sel := "+sel"
	if e.disableSelection {
		sel = "-sel"
	}
	return kind + "|" + sel + "|" + fp
}

// lookupOrCompile returns the cached plan for p under the current
// optimizer settings, compiling and caching on a miss. The epoch is read
// under the same read lock that excludes DDL, and Put stamps that observed
// epoch, so a plan compiled concurrently with an invalidating change can
// never be served after the bump.
func (e *Engine) lookupOrCompile(p *prepared) (ent *plancache.Entry, useNorm, hit bool, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	useNorm = e.optimizer != LegacyPlanner
	key := e.cacheKey(p, useNorm)
	epoch := e.plans.Epoch()
	if ent, ok := e.plans.Get(key); ok {
		return ent, useNorm, true, nil
	}
	stmt := sql.Statement(p.sel)
	if useNorm {
		stmt = p.norm.Stmt
	}
	bound, err := sql.Bind(e.cat, stmt)
	if err != nil {
		return nil, useNorm, false, err
	}
	ent, err = e.compileBound(bound)
	if err != nil {
		return nil, useNorm, false, err
	}
	e.plans.Put(key, ent, epoch)
	return ent, useNorm, false, nil
}

// compileBound optimizes a bound statement into a cacheable entry. Callers
// hold at least the engine read lock.
func (e *Engine) compileBound(bound *sql.Bound) (*plancache.Entry, error) {
	node, pl, opt, err := e.plan(bound)
	if err != nil {
		return nil, err
	}
	size := plan.SerializedSize(node)
	total := size
	if pl != nil {
		for _, prep := range pl.Preps {
			total += plan.SerializedSize(prep.Plan)
		}
	}
	return &plancache.Entry{
		Plan:      node,
		Legacy:    pl,
		Columns:   bound.Columns,
		NumParams: bound.NumParams,
		PlanSize:  size,
		TotalSize: total,
		OptGroups: opt.Groups,
		OptNanos:  opt.Nanos,
	}, nil
}

// queryPrepared runs a prepared SELECT through the plan cache. Execution
// happens outside the engine lock; cached plan trees are immutable at run
// time (all per-execution state lives in exec.Ctx / Stats / Params), so
// concurrent executions may share one entry. timed enables per-operator
// wall-clock sampling for the EXPLAIN ANALYZE entry points.
func (e *Engine) queryPrepared(ctx context.Context, p *prepared, args []Value, timed bool) (*Rows, error) {
	if p.kind != kindSelect {
		return nil, fmt.Errorf("partopt: use Exec for INSERT, UPDATE and DELETE statements")
	}
	start := time.Now()
	ent, useNorm, hit, err := e.lookupOrCompile(p)
	if err != nil {
		return nil, err
	}
	need := ent.NumParams
	if useNorm {
		need = p.norm.NumExplicit
	}
	if need > len(args) {
		return nil, fmt.Errorf("partopt: query needs %d parameters, got %d", need, len(args))
	}
	vals := toRow(args)
	if useNorm {
		// Lifted literals bind after the caller's explicit parameters.
		vals = append(vals[:need:need], p.norm.Extra...)
	}
	out, err := e.executeEntry(ctx, ent, vals, timed)
	if err == nil && hit {
		e.met.hitLatency.Observe(time.Since(start).Seconds())
	}
	return out, err
}

// execPrepared runs a prepared INSERT / UPDATE / DELETE. DML plans are
// never cached: they carry fault-injection points and their effects change
// the data cached plans were costed against — every successful execution
// bumps the catalog epoch instead.
func (e *Engine) execPrepared(ctx context.Context, p *prepared, args []Value) (int64, error) {
	switch p.kind {
	case kindSelect:
		return 0, fmt.Errorf("partopt: use Query for SELECT statements")
	case kindInsert:
		e.mu.RLock()
		tab, rows, err := sql.BindInsert(e.cat, p.stmt.(*sql.InsertStmt), toRow(args))
		if err == nil {
			err = e.insertRows(tab, rows)
		}
		e.mu.RUnlock()
		if err != nil {
			return 0, err
		}
		return int64(len(rows)), nil
	}
	e.mu.RLock()
	bound, err := sql.Bind(e.cat, p.stmt)
	var ent *plancache.Entry
	if err == nil {
		ent, err = e.compileBound(bound)
	}
	e.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	if ent.NumParams > len(args) {
		return 0, fmt.Errorf("partopt: query needs %d parameters, got %d", ent.NumParams, len(args))
	}
	res, err := e.executeEntry(ctx, ent, toRow(args), false)
	if err != nil {
		return 0, err
	}
	e.plans.Bump()
	var n int64
	for _, row := range res.Data {
		n += row[0].Int()
	}
	return n, nil
}

// Stmt is a prepared statement: parsed and fingerprinted once, planned at
// most once per catalog epoch, executable many times with different
// parameters. Safe for concurrent use.
type Stmt struct {
	eng *Engine
	p   *prepared
}

// Prepare parses and fingerprints a statement for repeated execution.
// Planning is deferred to the first execution (and re-done only when the
// catalog epoch moves), so a Stmt never holds a stale plan.
func (e *Engine) Prepare(query string) (*Stmt, error) {
	p, err := e.prepare(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{eng: e, p: p}, nil
}

// Text returns the statement's original SQL.
func (s *Stmt) Text() string { return s.p.text }

// Fingerprint returns the normalized cache fingerprint of a SELECT (the
// canonical text with literals lifted to $n). DML statements are not
// cached and report their original text.
func (s *Stmt) Fingerprint() string {
	if s.p.norm != nil {
		return s.p.norm.Text
	}
	return s.p.text
}

// NumParams reports how many parameters an execution of a SELECT must
// supply — the statement's explicit $n placeholders (lifted literals are
// bound internally). DML statements report -1 (unknown until bind).
func (s *Stmt) NumParams() int {
	if s.p.norm != nil {
		return s.p.norm.NumExplicit
	}
	return -1
}

// IsQuery reports whether the statement is a SELECT, run with Query;
// INSERT, UPDATE and DELETE run with Exec.
func (s *Stmt) IsQuery() bool { return s.p.kind == kindSelect }

// Query executes a prepared SELECT.
func (s *Stmt) Query(args ...Value) (*Rows, error) {
	return s.QueryCtx(context.Background(), args...)
}

// QueryCtx is Query governed by a context.
func (s *Stmt) QueryCtx(ctx context.Context, args ...Value) (*Rows, error) {
	return s.eng.queryPrepared(ctx, s.p, args, false)
}

// Exec executes a prepared INSERT, UPDATE or DELETE.
func (s *Stmt) Exec(args ...Value) (int64, error) {
	return s.ExecCtx(context.Background(), args...)
}

// ExecCtx is Exec governed by a context.
func (s *Stmt) ExecCtx(ctx context.Context, args ...Value) (int64, error) {
	return s.eng.execPrepared(ctx, s.p, args)
}

// ExplainAnalyze executes the prepared SELECT and returns its plan
// annotated with runtime actuals, wall-clock sampling included.
func (s *Stmt) ExplainAnalyze(args ...Value) (string, error) {
	rows, err := s.eng.queryPrepared(context.Background(), s.p, args, true)
	if err != nil {
		return "", err
	}
	return rows.ExplainAnalyze(), nil
}

// CacheStats is a point-in-time view of one of the engine's caches.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Entries       int
	Capacity      int
	Epoch         uint64
}

// PlanCacheStats is a point-in-time view of the engine's plan cache.
type PlanCacheStats struct {
	CacheStats
	// Optimizations counts every optimizer invocation since the engine was
	// created — the "cache hits skip the optimizer" assertion reads this.
	Optimizations int64
}

// PlanCacheStats reports the plan cache's counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		CacheStats:    CacheStats(e.plans.Snapshot()),
		Optimizations: e.met.optimizations.Value(),
	}
}

// SetPlanCacheCapacity resizes the plan cache to hold up to n entries;
// n <= 0 disables caching. Existing entries are discarded; the epoch and
// the cache counters carry over.
func (e *Engine) SetPlanCacheCapacity(n int) { e.plans.SetCapacity(n) }

// OIDCacheStats is a point-in-time view of the partition-OID cache.
type OIDCacheStats = CacheStats

// OIDCacheStats reports the partition-OID cache's counters. Every miss is
// one desc.Select traversal; a sweep whose misses stop growing is serving
// selections entirely from the cache.
func (e *Engine) OIDCacheStats() OIDCacheStats { return CacheStats(e.rt.OIDCache.Snapshot()) }

// SetOIDCacheCapacity resizes the partition-OID cache (0 disables it:
// every static PartitionSelector recomputes its leaf set from the
// partition descriptor at Open). Resizing purges cached entries so the
// capacity bound holds exactly from here on.
func (e *Engine) SetOIDCacheCapacity(n int) { e.rt.OIDCache.SetCapacity(n) }

// wireCacheMetrics mirrors both caches' counters into the engine registry.
// It runs once, while the engine is constructed.
func (e *Engine) wireCacheMetrics() {
	e.plans.SetMetrics(cacheMetrics(e.rt.Obs, "partopt_plan_cache_"))
	e.rt.OIDCache.SetMetrics(cacheMetrics(e.rt.Obs, "partopt_oid_cache_"))
}

// cacheMetrics registers one cache's counter series under prefix.
func cacheMetrics(r *obs.Registry, prefix string) epochlru.Metrics {
	return epochlru.Metrics{
		Hits:          r.Counter(prefix + "hits_total"),
		Misses:        r.Counter(prefix + "misses_total"),
		Evictions:     r.Counter(prefix + "evictions_total"),
		Invalidations: r.Counter(prefix + "invalidations_total"),
	}
}
