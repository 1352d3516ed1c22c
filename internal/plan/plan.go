// Package plan defines physical query plans: the operator tree both
// optimizers emit and the executor runs. It also provides the EXPLAIN
// pretty-printer and a compact binary serializer whose output length is the
// "plan size" measured in the paper's Figure 18 experiments (the analogue
// of the plan GPDB dispatches to segments).
//
// Two plan families share these nodes:
//
//   - Orca-style plans use DynamicScan + PartitionSelector (+ Sequence):
//     plan size is independent of the number of partitions.
//   - Legacy Planner plans expand partitions explicitly: an Append over one
//     Scan per leaf partition, with an optional run-time OID filter for the
//     planner's rudimentary dynamic elimination.
package plan

import (
	"fmt"

	"partopt/internal/catalog"
	"partopt/internal/expr"
	"partopt/internal/part"
)

// RowIDOrd is the pseudo-column ordinal used for the storage RowID exposed
// by scans that feed DML (the ctid analogue).
const RowIDOrd = -1

// Props carries optimizer annotations shown by EXPLAIN.
type Props struct {
	Rows float64 // estimated output rows
	Cost float64 // estimated cumulative cost
	// HasEst distinguishes "the optimizer annotated this node" from "no
	// annotation": an annotated rows=0 cost=0 node (e.g. a provably empty
	// scan) must still render its estimates.
	HasEst bool
}

// Node is a physical plan operator.
type Node interface {
	// Children returns the inputs in execution order (first executed first).
	Children() []Node
	// Layout describes the output row of this operator.
	Layout() expr.Layout
	// Label is the one-line EXPLAIN description.
	Label() string
	// props gives access to shared annotations.
	props() *Props
}

// base provides the shared annotation storage.
type base struct {
	P Props
}

func (b *base) props() *Props { return &b.P }

// SetEstimates annotates a node with optimizer estimates.
func SetEstimates(n Node, rows, cost float64) {
	p := n.props()
	p.Rows, p.Cost = rows, cost
	p.HasEst = true
}

// Estimates reads a node's annotations.
func Estimates(n Node) (rows, cost float64) {
	p := n.props()
	return p.Rows, p.Cost
}

// HasEstimates reports whether the optimizer annotated the node. Zero
// estimates on an annotated node are real estimates, not absence.
func HasEstimates(n Node) bool { return n.props().HasEst }

// tableLayout builds the layout of a base-table scan: every table column at
// its ordinal, plus the RowID pseudo-column appended when requested.
func tableLayout(t *catalog.Table, rel int, withRowID bool) expr.Layout {
	l := expr.Layout{}
	for i := range t.Cols {
		l[expr.ColID{Rel: rel, Ord: i}] = i
	}
	if withRowID {
		l[expr.ColID{Rel: rel, Ord: RowIDOrd}] = len(t.Cols)
	}
	return l
}

// ---------------------------------------------------------------- Scan

// Scan reads one physical heap: an unpartitioned table, or a single
// explicit leaf partition (legacy plans name every leaf this way).
type Scan struct {
	base
	Table     *catalog.Table
	Rel       int      // relation instance id (binder-assigned)
	Leaf      part.OID // leaf to scan; the root OID for unpartitioned tables
	WithRowID bool
}

// NewScan builds a scan of an unpartitioned table.
func NewScan(t *catalog.Table, rel int) *Scan {
	return &Scan{Table: t, Rel: rel, Leaf: t.OID}
}

// NewLeafScan builds a scan of one explicit leaf partition.
func NewLeafScan(t *catalog.Table, rel int, leaf part.OID) *Scan {
	return &Scan{Table: t, Rel: rel, Leaf: leaf}
}

func (s *Scan) Children() []Node    { return nil }
func (s *Scan) Layout() expr.Layout { return tableLayout(s.Table, s.Rel, s.WithRowID) }
func (s *Scan) Label() string {
	if s.Leaf != s.Table.OID {
		if n, ok := s.Table.Part.Node(s.Leaf); ok {
			return fmt.Sprintf("Scan %s[%s]", s.Table.Name, n.Name)
		}
		return fmt.Sprintf("Scan %s[leaf %d]", s.Table.Name, s.Leaf)
	}
	return "Scan " + s.Table.Name
}

// ---------------------------------------------------------------- DynamicScan

// DynamicScan scans a partitioned table, consuming the partition OIDs
// produced by the PartitionSelector with the same PartScanID (paper §2.2).
type DynamicScan struct {
	base
	Table      *catalog.Table
	Rel        int
	PartScanID int
	WithRowID  bool
}

// NewDynamicScan builds a DynamicScan.
func NewDynamicScan(t *catalog.Table, rel, partScanID int) *DynamicScan {
	return &DynamicScan{Table: t, Rel: rel, PartScanID: partScanID}
}

func (s *DynamicScan) Children() []Node    { return nil }
func (s *DynamicScan) Layout() expr.Layout { return tableLayout(s.Table, s.Rel, s.WithRowID) }
func (s *DynamicScan) Label() string {
	return fmt.Sprintf("DynamicScan(%d, %s)", s.PartScanID, s.Table.Name)
}

// ---------------------------------------------------------------- index scans

// IndexScan reads the rows of one heap whose indexed column satisfies the
// (static) predicate, via the named secondary index. The interval set is
// derived from Pred at Open time, so prepared-statement parameters work.
type IndexScan struct {
	base
	Table     *catalog.Table
	Rel       int
	Index     catalog.IndexDef
	Pred      expr.Expr // predicate over the indexed column
	Leaf      part.OID  // the heap; the root OID for unpartitioned tables
	WithRowID bool
}

// NewIndexScan builds an index scan of an unpartitioned table.
func NewIndexScan(t *catalog.Table, rel int, index catalog.IndexDef, pred expr.Expr) *IndexScan {
	return &IndexScan{Table: t, Rel: rel, Index: index, Pred: pred, Leaf: t.OID}
}

func (s *IndexScan) Children() []Node    { return nil }
func (s *IndexScan) Layout() expr.Layout { return tableLayout(s.Table, s.Rel, s.WithRowID) }
func (s *IndexScan) Label() string {
	return fmt.Sprintf("IndexScan %s using %s (%s)", s.Table.Name, s.Index.Name, s.Pred)
}

// DynamicIndexScan is the partitioned variant: it consumes its
// PartitionSelector's OIDs like a DynamicScan, then reads each selected
// leaf through the index instead of scanning it — partition elimination
// and index lookup compose (the shape production Orca also has).
type DynamicIndexScan struct {
	base
	Table      *catalog.Table
	Rel        int
	PartScanID int
	Index      catalog.IndexDef
	Pred       expr.Expr
	WithRowID  bool
}

// NewDynamicIndexScan builds a dynamic index scan.
func NewDynamicIndexScan(t *catalog.Table, rel, partScanID int, index catalog.IndexDef, pred expr.Expr) *DynamicIndexScan {
	return &DynamicIndexScan{Table: t, Rel: rel, PartScanID: partScanID, Index: index, Pred: pred}
}

func (s *DynamicIndexScan) Children() []Node    { return nil }
func (s *DynamicIndexScan) Layout() expr.Layout { return tableLayout(s.Table, s.Rel, s.WithRowID) }
func (s *DynamicIndexScan) Label() string {
	return fmt.Sprintf("DynamicIndexScan(%d, %s) using %s (%s)", s.PartScanID, s.Table.Name, s.Index.Name, s.Pred)
}

// ---------------------------------------------------------------- PartitionSelector

// PartitionSelector computes the partition OIDs a DynamicScan must read and
// pushes them over the shared per-segment channel (paper §2.2). Preds holds
// one optional predicate per partitioning level (§2.4); nil entries select
// on no predicate at that level.
//
// With a Child, the selector passes rows through unchanged; predicates
// whose non-key operands reference child columns make selection dynamic
// (computed per row), otherwise OIDs are computed once at Open. With no
// Child (under a Sequence), it produces no rows.
type PartitionSelector struct {
	base
	Table      *catalog.Table
	PartScanID int
	Preds      []expr.Expr // per partitioning level; may contain nils
	Child      Node        // optional
	// Hub marks a star-schema hub table: the planner proved every
	// partition-key constraint on this selector is join-derived (no static
	// predicate ever reaches it), so the runtime partition-OID cache skips
	// variant generation for it — a join-driven selection is recomputed per
	// execution and would only churn the cache.
	Hub bool
}

// NewPartitionSelector builds a selector; child may be nil.
func NewPartitionSelector(t *catalog.Table, partScanID int, preds []expr.Expr, child Node) *PartitionSelector {
	if t.Part != nil && preds != nil && len(preds) != t.Part.NumLevels() {
		panic(fmt.Sprintf("plan: selector for %s has %d predicates for %d levels", t.Name, len(preds), t.Part.NumLevels()))
	}
	return &PartitionSelector{Table: t, PartScanID: partScanID, Preds: preds, Child: child}
}

func (s *PartitionSelector) Children() []Node {
	if s.Child == nil {
		return nil
	}
	return []Node{s.Child}
}

func (s *PartitionSelector) Layout() expr.Layout {
	if s.Child == nil {
		return expr.Layout{}
	}
	return s.Child.Layout()
}

func (s *PartitionSelector) Label() string {
	pred := "φ"
	var nonNil []string
	for _, p := range s.Preds {
		if p != nil {
			nonNil = append(nonNil, p.String())
		}
	}
	if len(nonNil) > 0 {
		pred = ""
		for i, p := range nonNil {
			if i > 0 {
				pred += "; "
			}
			pred += p
		}
	}
	return fmt.Sprintf("PartitionSelector(%d, %s, %s)", s.PartScanID, s.Table.Name, pred)
}

// ---------------------------------------------------------------- Sequence

// Sequence executes its children in order and returns the rows of the last
// child (paper §2.2). It sequences childless PartitionSelectors before the
// plans containing their DynamicScans.
type Sequence struct {
	base
	Kids []Node
}

// NewSequence builds a Sequence over the given children.
func NewSequence(kids ...Node) *Sequence {
	if len(kids) == 0 {
		panic("plan: empty Sequence")
	}
	return &Sequence{Kids: kids}
}

func (s *Sequence) Children() []Node    { return s.Kids }
func (s *Sequence) Layout() expr.Layout { return s.Kids[len(s.Kids)-1].Layout() }
func (s *Sequence) Label() string       { return "Sequence" }

// ---------------------------------------------------------------- Append

// Append concatenates the rows of its children (UNION ALL). Legacy plans
// use it to enumerate per-partition scans explicitly. When ParamID >= 0 the
// executor skips any child Scan whose leaf OID is absent from the run-time
// OID set bound to that parameter — the legacy planner's rudimentary
// dynamic partition elimination (paper §4.4.2).
type Append struct {
	base
	Kids    []Node
	ParamID int // run-time OID-set parameter; -1 when unused
}

// NewAppend builds a plain Append.
func NewAppend(kids ...Node) *Append { return &Append{Kids: kids, ParamID: -1} }

// NewFilteredAppend builds an Append whose children are filtered at run
// time by the OID set in the given parameter slot.
func NewFilteredAppend(paramID int, kids ...Node) *Append {
	return &Append{Kids: kids, ParamID: paramID}
}

func (a *Append) Children() []Node { return a.Kids }
func (a *Append) Layout() expr.Layout {
	if len(a.Kids) == 0 {
		return expr.Layout{}
	}
	return a.Kids[0].Layout()
}
func (a *Append) Label() string {
	if a.ParamID >= 0 {
		return fmt.Sprintf("Append(%d children, oid-filter $%d)", len(a.Kids), a.ParamID)
	}
	return fmt.Sprintf("Append(%d children)", len(a.Kids))
}

// ---------------------------------------------------------------- Filter

// Filter passes through rows satisfying Pred.
type Filter struct {
	base
	Pred  expr.Expr
	Child Node
}

// NewFilter builds a filter node.
func NewFilter(pred expr.Expr, child Node) *Filter {
	return &Filter{Pred: pred, Child: child}
}

func (f *Filter) Children() []Node    { return []Node{f.Child} }
func (f *Filter) Layout() expr.Layout { return f.Child.Layout() }
func (f *Filter) Label() string       { return "Filter (" + f.Pred.String() + ")" }

// ---------------------------------------------------------------- Project

// ProjCol is one output column of a Project.
type ProjCol struct {
	E    expr.Expr
	Name string
	Out  expr.ColID // identity of the produced column
}

// Project computes a new row from each input row.
type Project struct {
	base
	Cols  []ProjCol
	Child Node
}

// NewProject builds a projection.
func NewProject(cols []ProjCol, child Node) *Project {
	return &Project{Cols: cols, Child: child}
}

func (p *Project) Children() []Node { return []Node{p.Child} }
func (p *Project) Layout() expr.Layout {
	l := expr.Layout{}
	for i, c := range p.Cols {
		l[c.Out] = i
	}
	return l
}
func (p *Project) Label() string {
	s := "Project ("
	for i, c := range p.Cols {
		if i > 0 {
			s += ", "
		}
		if c.Name != "" {
			s += c.Name
		} else {
			s += c.E.String()
		}
	}
	return s + ")"
}

// ---------------------------------------------------------------- HashJoin

// JoinType distinguishes inner joins, the semi joins produced by
// IN-subquery rewrites, and the two hash outer-join orientations. The
// outer names are positional in execution order: LeftOuterJoin preserves
// the build (first) child, RightOuterJoin preserves the probe (second)
// child. The non-preserved side is the null-producing side — its columns
// are NULL-extended for preserved rows with no match.
type JoinType uint8

// Join types.
const (
	InnerJoin      JoinType = iota
	SemiJoin                // emit each build... see HashJoin doc
	LeftOuterJoin           // build side preserved; unmatched build rows NULL-extend the probe columns
	RightOuterJoin          // probe side preserved; unmatched probe rows NULL-extend the build columns
)

func (t JoinType) String() string {
	switch t {
	case SemiJoin:
		return "semi"
	case LeftOuterJoin:
		return "left outer"
	case RightOuterJoin:
		return "right outer"
	}
	return "inner"
}

// Outer reports whether t is one of the outer-join types.
func (t JoinType) Outer() bool { return t == LeftOuterJoin || t == RightOuterJoin }

// BuildPreserved reports whether the build (first) child is an
// outer-preserved side: every one of its rows appears in the output even
// without a join match. Partition elimination driven by the other side is
// unsound against a preserved side, and replicating a preserved side
// duplicates its unmatched rows once per segment.
func (t JoinType) BuildPreserved() bool { return t == LeftOuterJoin }

// ProbePreserved reports whether the probe (second) child is an
// outer-preserved side (see BuildPreserved).
func (t JoinType) ProbePreserved() bool { return t == RightOuterJoin }

// Flip returns the join type describing the same logical join with the
// two children swapped. Inner joins are symmetric; outer joins exchange
// their preserved side. Semi joins have no commuted form and flip to
// themselves (callers must not swap semi-join children).
func (t JoinType) Flip() JoinType {
	switch t {
	case LeftOuterJoin:
		return RightOuterJoin
	case RightOuterJoin:
		return LeftOuterJoin
	}
	return t
}

// HashJoin joins its two children. Child 0 is the build (outer in the
// paper's execution-order sense: it runs first); child 1 is the probe. The
// output row is buildRow ++ probeRow for inner and outer joins, and the
// probe row alone for semi joins (each probe row emitted at most once).
// For LeftOuterJoin, build rows never matched by any probe row are emitted
// after the probe drains with NULLs in the probe columns; for
// RightOuterJoin, probe rows with no build match are emitted immediately
// with NULLs in the build columns.
//
// BuildKeys/ProbeKeys are the equi-join key expressions evaluated against
// the respective child rows; Residual is any non-equi remainder of the join
// predicate, evaluated against the concatenated row.
type HashJoin struct {
	base
	Type      JoinType
	BuildKeys []expr.Expr
	ProbeKeys []expr.Expr
	Residual  expr.Expr
	Build     Node
	Probe     Node
	Cond      expr.Expr // full original predicate, for EXPLAIN
}

// NewHashJoin builds a hash join node.
func NewHashJoin(jt JoinType, buildKeys, probeKeys []expr.Expr, residual expr.Expr, build, probe Node, cond expr.Expr) *HashJoin {
	if len(buildKeys) != len(probeKeys) {
		panic("plan: hash join key arity mismatch")
	}
	return &HashJoin{Type: jt, BuildKeys: buildKeys, ProbeKeys: probeKeys, Residual: residual, Build: build, Probe: probe, Cond: cond}
}

func (j *HashJoin) Children() []Node { return []Node{j.Build, j.Probe} }
func (j *HashJoin) Layout() expr.Layout {
	if j.Type == SemiJoin {
		return j.Probe.Layout()
	}
	return expr.Concat(j.Build.Layout(), j.Probe.Layout())
}
func (j *HashJoin) Label() string {
	cond := ""
	if j.Cond != nil {
		cond = " (" + j.Cond.String() + ")"
	}
	switch j.Type {
	case SemiJoin:
		return "HashSemiJoin" + cond
	case LeftOuterJoin:
		return "HashLeftOuterJoin" + cond
	case RightOuterJoin:
		return "HashRightOuterJoin" + cond
	}
	return "HashJoin" + cond
}

// ---------------------------------------------------------------- HashAgg

// AggKind is an aggregate function.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota // COUNT(*) when Arg is nil, else COUNT(arg)
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "avg", "min", "max"}[k]
}

// AggSpec is one aggregate in a HashAgg.
type AggSpec struct {
	Kind AggKind
	Arg  expr.Expr // nil for COUNT(*)
	Name string
	Out  expr.ColID
}

// GroupCol is one grouping column of a HashAgg.
type GroupCol struct {
	E    expr.Expr
	Name string
	Out  expr.ColID
}

// AggStage says which part of an aggregation a HashAgg computes. The
// optimizer may split one logical GroupBy in two around a Motion so that
// only group rows, not input rows, cross it.
type AggStage uint8

// Aggregation stages.
const (
	AggSingle  AggStage = iota // the whole aggregate in one operator
	AggPartial                 // folds input rows into per-group states and emits the states
	AggFinal                   // combines Partial states into the finished values
)

func (s AggStage) String() string {
	return [...]string{"single", "partial", "final"}[s]
}

// StateWidth is the number of columns a Partial stage emits for one
// aggregate of this kind: AVG carries its sum and its count separately
// (they are only divided by the Final stage), everything else is its own
// partial state.
func (k AggKind) StateWidth() int {
	if k == AggAvg {
		return 2
	}
	return 1
}

// HashAgg groups its input and computes aggregates. With no group columns
// it produces exactly one row (scalar aggregation).
//
// A Partial stage emits one row per group it saw: the group values, then
// StateWidth columns per aggregate — COUNT its count, SUM/MIN/MAX their
// value so far (NULL over no non-NULL input), AVG its sum and count. A
// Final stage's child delivers exactly that row shape; it reads it by
// position, so its Groups and Aggs keep the original expressions (they
// name the output columns and label the node) without evaluating them.
type HashAgg struct {
	base
	Stage  AggStage
	Groups []GroupCol
	Aggs   []AggSpec
	Child  Node
}

// NewHashAgg builds a single-stage aggregation node.
func NewHashAgg(groups []GroupCol, aggs []AggSpec, child Node) *HashAgg {
	return &HashAgg{Groups: groups, Aggs: aggs, Child: child}
}

// NewStagedHashAgg builds one stage of a split aggregation. A Final
// stage's child must deliver the row shape of a Partial stage over the
// same groups and aggregates (normally through a Motion).
func NewStagedHashAgg(stage AggStage, groups []GroupCol, aggs []AggSpec, child Node) *HashAgg {
	return &HashAgg{Stage: stage, Groups: groups, Aggs: aggs, Child: child}
}

func (a *HashAgg) Children() []Node { return []Node{a.Child} }

// Layout maps each group and aggregate output column to its position. In a
// Partial stage an aggregate's column is the first of its state columns
// (AVG's count column is reachable by position only).
func (a *HashAgg) Layout() expr.Layout {
	l := expr.Layout{}
	for i, g := range a.Groups {
		l[g.Out] = i
	}
	pos := len(a.Groups)
	for _, ag := range a.Aggs {
		l[ag.Out] = pos
		if a.Stage == AggPartial {
			pos += ag.Kind.StateWidth()
		} else {
			pos++
		}
	}
	return l
}

func (a *HashAgg) Label() string {
	s := [...]string{"", "Partial ", "Final "}[a.Stage] + "HashAggregate ("
	for i, g := range a.Groups {
		if i > 0 {
			s += ", "
		}
		s += g.E.String()
	}
	if len(a.Groups) > 0 && len(a.Aggs) > 0 {
		s += "; "
	}
	for i, ag := range a.Aggs {
		if i > 0 {
			s += ", "
		}
		if ag.Arg == nil {
			s += ag.Kind.String() + "(*)"
		} else {
			s += ag.Kind.String() + "(" + ag.Arg.String() + ")"
		}
	}
	return s + ")"
}

// ---------------------------------------------------------------- Motion

// MotionKind is the data-movement flavour of a Motion (paper §3).
type MotionKind uint8

// Motion kinds: Gather collects all rows on the coordinator, Redistribute
// re-hashes rows to segments by key, Broadcast replicates every row to all
// segments.
const (
	GatherMotion MotionKind = iota
	RedistributeMotion
	BroadcastMotion
)

func (k MotionKind) String() string {
	return [...]string{"Gather Motion", "Redistribute Motion", "Broadcast Motion"}[k]
}

// Motion moves rows between segment processes. It is a slice boundary: the
// subtree below runs in different processes than the operators above.
//
// FromSegment restricts the sending side to one segment (≥ 0): gathers
// from replicated inputs read a single copy instead of N identical ones.
type Motion struct {
	base
	Kind        MotionKind
	HashKeys    []expr.Expr // redistribution keys (RedistributeMotion)
	FromSegment int         // -1: all segments send
	Child       Node
}

// NewMotion builds a motion node.
func NewMotion(kind MotionKind, hashKeys []expr.Expr, child Node) *Motion {
	if kind == RedistributeMotion && len(hashKeys) == 0 {
		panic("plan: redistribute motion needs hash keys")
	}
	return &Motion{Kind: kind, HashKeys: hashKeys, FromSegment: -1, Child: child}
}

func (m *Motion) Children() []Node    { return []Node{m.Child} }
func (m *Motion) Layout() expr.Layout { return m.Child.Layout() }
func (m *Motion) Label() string {
	if m.Kind == GatherMotion && m.FromSegment >= 0 {
		return fmt.Sprintf("Gather Motion (from seg %d)", m.FromSegment)
	}
	if m.Kind == RedistributeMotion {
		s := m.Kind.String() + " ("
		for i, k := range m.HashKeys {
			if i > 0 {
				s += ", "
			}
			s += k.String()
		}
		return s + ")"
	}
	return m.Kind.String()
}

// ---------------------------------------------------------------- Update

// SetClause assigns a new value to one target-table column.
type SetClause struct {
	Ord   int       // target column ordinal
	Value expr.Expr // evaluated against the child row
}

// Update applies SET clauses to the target rows produced by its child. The
// child must expose the target table's columns (relation instance Rel) and
// its RowID pseudo-column. The node outputs a single row holding the count
// of updated rows.
type Update struct {
	base
	Table *catalog.Table
	Rel   int
	Sets  []SetClause
	Child Node
}

// NewUpdate builds a DML update node.
func NewUpdate(t *catalog.Table, rel int, sets []SetClause, child Node) *Update {
	return &Update{Table: t, Rel: rel, Sets: sets, Child: child}
}

// UpdateCountCol is the column identity of the affected-rows count an
// Update emits.
var UpdateCountCol = expr.ColID{Rel: -2, Ord: 0}

func (u *Update) Children() []Node    { return []Node{u.Child} }
func (u *Update) Layout() expr.Layout { return expr.Layout{UpdateCountCol: 0} }
func (u *Update) Label() string {
	s := fmt.Sprintf("Update %s SET ", u.Table.Name)
	for i, c := range u.Sets {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s = %s", u.Table.Cols[c.Ord].Name, c.Value)
	}
	return s
}

// ---------------------------------------------------------------- Sort / Limit

// SortKey orders by one output column position.
type SortKey struct {
	Pos  int // position in the child's row
	Desc bool
}

// Sort orders its input. It runs on the coordinator above the final
// Gather (ordering is a presentation property; segment streams are
// unordered).
type Sort struct {
	base
	Keys  []SortKey
	Child Node
}

// NewSort builds a sort node.
func NewSort(keys []SortKey, child Node) *Sort {
	if len(keys) == 0 {
		panic("plan: Sort needs at least one key")
	}
	return &Sort{Keys: keys, Child: child}
}

func (s *Sort) Children() []Node    { return []Node{s.Child} }
func (s *Sort) Layout() expr.Layout { return s.Child.Layout() }
func (s *Sort) Label() string {
	out := "Sort ("
	for i, k := range s.Keys {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("#%d", k.Pos+1)
		if k.Desc {
			out += " DESC"
		}
	}
	return out + ")"
}

// Limit passes through at most N rows.
type Limit struct {
	base
	N     int64
	Child Node
}

// NewLimit builds a limit node.
func NewLimit(n int64, child Node) *Limit {
	if n < 0 {
		panic("plan: negative LIMIT")
	}
	return &Limit{N: n, Child: child}
}

func (l *Limit) Children() []Node    { return []Node{l.Child} }
func (l *Limit) Layout() expr.Layout { return l.Child.Layout() }
func (l *Limit) Label() string       { return fmt.Sprintf("Limit %d", l.N) }

// ---------------------------------------------------------------- PartitionWiseJoin

// PartitionWiseJoin is the extension of the paper's §5 related work
// (Oracle's partition-wise joins): when two tables are partitioned on
// their join keys with identical schemes and colocated by distribution,
// the join decomposes into independent per-partition-pair joins. The node
// composes with partition selection — each side honours its
// PartitionSelector's mailbox when a partScanId is set, so eliminated
// pairs are skipped entirely.
//
// Build and Probe are the two DynamicScans; the pairing is recomputed from
// the catalog constraints at execution time, keeping the plan size
// independent of the partition count like every other dynamic operator.
type PartitionWiseJoin struct {
	base
	Type      JoinType
	BuildKeys []expr.Expr
	ProbeKeys []expr.Expr
	Residual  expr.Expr
	Build     *DynamicScan
	Probe     *DynamicScan
	Cond      expr.Expr // for EXPLAIN
}

// NewPartitionWiseJoin builds a partition-wise join node.
func NewPartitionWiseJoin(jt JoinType, buildKeys, probeKeys []expr.Expr, residual expr.Expr, build, probe *DynamicScan, cond expr.Expr) *PartitionWiseJoin {
	if len(buildKeys) != len(probeKeys) {
		panic("plan: partition-wise join key arity mismatch")
	}
	return &PartitionWiseJoin{Type: jt, BuildKeys: buildKeys, ProbeKeys: probeKeys, Residual: residual, Build: build, Probe: probe, Cond: cond}
}

func (j *PartitionWiseJoin) Children() []Node { return []Node{j.Build, j.Probe} }
func (j *PartitionWiseJoin) Layout() expr.Layout {
	if j.Type == SemiJoin {
		return j.Probe.Layout()
	}
	return expr.Concat(j.Build.Layout(), j.Probe.Layout())
}
func (j *PartitionWiseJoin) Label() string {
	cond := ""
	if j.Cond != nil {
		cond = " (" + j.Cond.String() + ")"
	}
	return "PartitionWiseJoin" + cond
}

// ---------------------------------------------------------------- Delete

// Delete removes the target rows its child produces. Like Update, the
// child must expose the target relation's RowID pseudo-column; the node
// outputs one row holding the deleted-row count.
type Delete struct {
	base
	Table *catalog.Table
	Rel   int
	Child Node
}

// NewDelete builds a DML delete node.
func NewDelete(t *catalog.Table, rel int, child Node) *Delete {
	return &Delete{Table: t, Rel: rel, Child: child}
}

func (d *Delete) Children() []Node    { return []Node{d.Child} }
func (d *Delete) Layout() expr.Layout { return expr.Layout{UpdateCountCol: 0} }
func (d *Delete) Label() string       { return "Delete " + d.Table.Name }

// Walk visits n and all descendants in pre-order.
func Walk(n Node, visit func(Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}
