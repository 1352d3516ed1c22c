package partopt

import (
	"context"
	"fmt"
	"strings"

	"partopt/internal/plan"
)

// OpStats is one operator's runtime record in a query's per-operator
// statistics tree (Rows.OpStats()): the programmatic form of what EXPLAIN
// ANALYZE renders. Counters are totals across every slice instance
// ("loops") of the operator; PeakBytes is the high-water mark of any single
// instance. On an aborted query the tree carries the partial work done
// before the abort — operators no instance opened have Started == false.
type OpStats struct {
	Label string

	// Optimizer estimates. HasEstimates reports whether the planner
	// annotated the node at all, so a genuine rows=0 estimate is
	// distinguishable from "not annotated".
	HasEstimates     bool
	EstRows, EstCost float64

	Started      bool
	Instances    int
	RowsOut      int64
	RowsRead     int64 // rows read from storage (leaf operators)
	TimeNanos    int64 // wall time inside the operator, inclusive of children; sampled only on the ExplainAnalyze entry points
	PeakBytes    int64
	SpilledBytes int64
	SpillParts   int64

	// Partition accounting (PartitionSelector, DynamicScan and friends).
	// PartsTotal == 0 means not applicable.
	PartsSelected int
	PartsTotal    int

	Children []*OpStats
}

// buildOpStats converts a plan subtree plus its runtime actuals into the
// public tree.
func buildOpStats(n plan.Node, src plan.ActualSource) *OpStats {
	o := &OpStats{Label: n.Label()}
	if plan.HasEstimates(n) {
		o.HasEstimates = true
		o.EstRows, o.EstCost = plan.Estimates(n)
	}
	if a, ok := src.Actuals(n); ok {
		o.Started = a.Started
		o.Instances = a.Instances
		o.RowsOut = a.RowsOut
		o.RowsRead = a.RowsRead
		o.TimeNanos = a.Nanos
		o.PeakBytes = a.PeakBytes
		o.SpilledBytes = a.SpillBytes
		o.SpillParts = a.SpillParts
		o.PartsSelected = a.PartsSelected
		o.PartsTotal = a.PartsTotal
	}
	for _, c := range n.Children() {
		o.Children = append(o.Children, buildOpStats(c, src))
	}
	return o
}

// OpStats builds the per-operator runtime tree of the executed plan (the
// main plan, for the legacy planner's multi-plan executions) from the
// query's record. On an aborted query it carries the partial work done
// before the abort.
func (r *Rows) OpStats() *OpStats {
	if r.stats == nil {
		return nil
	}
	return buildOpStats(r.ent.Plan, r.stats)
}

// ExplainAnalyze renders the executed plan with runtime actuals as EXPLAIN
// ANALYZE text (time=0 unless the query ran through an ExplainAnalyze entry
// point). An Orca-compiled entry leads with the memo-search header
// "optimization: M groups, T ms", replayed on cache hits so hit and miss
// render byte-identically; the legacy planner's prep plans render before
// the main tree, mirroring how they execute.
func (r *Rows) ExplainAnalyze() string {
	if r.stats == nil {
		return ""
	}
	ent, src := r.ent, r.stats
	var b strings.Builder
	if ent.OptGroups > 0 {
		fmt.Fprintf(&b, "optimization: %d groups, %.3f ms\n",
			ent.OptGroups, float64(ent.OptNanos)/1e6)
	}
	if ent.Legacy != nil {
		for _, prep := range ent.Legacy.Preps {
			b.WriteString(plan.ExplainAnalyze(prep.Plan, src))
			b.WriteByte('\n')
		}
	}
	b.WriteString(plan.ExplainAnalyze(ent.Plan, src))
	return b.String()
}

// ExplainAnalyze executes a SELECT and returns its plan annotated with
// runtime actuals — rows, loops, wall time, partition selection, spill and
// memory figures per operator. The query runs in full; use QueryCtx and
// Rows.ExplainAnalyze() when the data rows are also needed.
func (e *Engine) ExplainAnalyze(query string, args ...Value) (string, error) {
	return e.ExplainAnalyzeCtx(context.Background(), query, args...)
}

// ExplainAnalyzeCtx is ExplainAnalyze governed by a context. On an aborted
// query the returned text (when non-empty) annotates the partial work done
// before the abort, alongside the error.
func (e *Engine) ExplainAnalyzeCtx(ctx context.Context, query string, args ...Value) (string, error) {
	p, err := e.prepare(query)
	if err != nil {
		return "", err
	}
	rows, err := e.queryPrepared(ctx, p, args, true)
	if rows == nil {
		return "", err
	}
	return rows.ExplainAnalyze(), err
}

// Metrics renders the engine-wide metrics registry — query counts and
// latency distribution, spill volume, motion traffic, rows scanned — as
// deterministic, Prometheus-style text. Counters accumulate over the
// engine's lifetime, across all queries and both optimizers.
func (e *Engine) Metrics() string {
	return e.rt.Obs.Expose()
}
