package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"partopt"
	"partopt/internal/catalog"
	"partopt/internal/exec"
	"partopt/internal/obs"
	"partopt/internal/oidcache"
	"partopt/internal/orca"
	"partopt/internal/plan"
	"partopt/internal/plancache"
	"partopt/internal/server"
	"partopt/internal/sql"
	"partopt/internal/stats"
	"partopt/internal/storage"
	"partopt/internal/types"
	"partopt/internal/vec"
)

// The traced run attributes a statement's time to the layers it crosses.
// No layer is instrumented from inside: the benchmark records a span
// around each call it makes into a layer. A statement is replayed at three
// depths — over the wire, through Engine.QueryCtx/ExecCtx, and through a
// rig assembled from the layers' exported constructors in the order
// Engine.queryPrepared calls them — so wire minus engine is the front
// end's own time and engine minus the rig's spans is what the attribution
// misses.

// span is one timed call. Spans of one statement share stmt; parent is
// the id of the span that caused this one, -1 at the top.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

// begin and end are no-ops on a nil tracer (the rig's untraced warm-up and
// the probes).
func (t *tracer) begin(name string, parent, stmt int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNs = int64(time.Since(t.t0))
	}
}

// selfTimes returns each span's duration minus its children's. The three
// depths of one statement run one after another, not nested in time, so a
// child's cover of its parent is its duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// durationsByName collects span durations (ns) per span name.
func durationsByName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur()))
	}
	return out
}

// shares is how one replay's time divides, each figure the median over
// the replayed statements of that statement's own share. A statement's
// three depths run within milliseconds of each other, so a stall of the
// host lands in one statement's figures and the median drops it; shares of
// summed times would keep it.
type shares struct {
	wireSelfNs      float64 // wire minus engine
	execPct         float64 // exec.run of the engine span
	orcaPct         float64 // orca.optimize of the engine span
	unattributedPct float64 // engine span not covered by the rig's spans
}

func replayShares(spans []span) shares {
	self := selfTimes(spans)
	var wireSelf, execPct, orcaPct, unattr []float64
	for i, s := range spans {
		switch s.Name {
		case "wire":
			wireSelf = append(wireSelf, float64(self[i]))
		case "engine":
			var exec, opt float64
			for _, c := range spans[i+1:] {
				if c.Parent != i {
					break
				}
				switch c.Name {
				case "exec.run":
					exec += float64(c.dur())
				case "orca.optimize":
					opt += float64(c.dur())
				}
			}
			d := float64(s.dur())
			execPct = append(execPct, exec/d*100)
			orcaPct = append(orcaPct, opt/d*100)
			unattr = append(unattr, float64(self[i])/d*100)
		}
	}
	return shares{p50(wireSelf), p50(execPct), p50(orcaPct), p50(unattr)}
}

// ------------------------------------------------------------------- rig

// rig is the query path rebuilt from the layers' exported constructors,
// loaded with the same generated rows as the engine.
type rig struct {
	cat      *catalog.Catalog
	store    *storage.Store
	rt       *exec.Runtime
	plans    *plancache.Cache
	tables   map[string]*catalog.Table
	collectS float64
}

// flatTwin is t without its partitioning, under <name>_flat.
func flatTwin(t *table) *table {
	f := *t
	f.name = t.name + "_flat"
	f.part = partNone
	return &f
}

func newRig(ds *dataset, fact string) (*rig, error) {
	st := storage.NewStore(segments)
	g := &rig{
		cat:    catalog.New(),
		store:  st,
		rt:     &exec.Runtime{Store: st, Obs: obs.NewRegistry(), OIDCache: oidcache.New(partopt.DefaultOIDCacheCapacity)},
		plans:  plancache.New(partopt.DefaultPlanCacheCapacity),
		tables: map[string]*catalog.Table{},
	}
	tables := ds.tables
	if _, ok := ds.byName[fact+"_flat"]; !ok {
		tables = append(append([]*table(nil), tables...), flatTwin(ds.byName[fact]))
	}
	for _, t := range tables {
		ct, err := loadRig(g.cat, st, t)
		if err != nil {
			return nil, err
		}
		g.tables[t.name] = ct
	}
	t0 := time.Now()
	if err := stats.CollectAll(st, g.cat); err != nil {
		return nil, err
	}
	g.collectS = time.Since(t0).Seconds()
	return g, nil
}

// compiled is what the rig keeps of one compilation.
type compiled struct {
	node   plan.Node
	groups int
	bytes  int
}

// compile is bind -> optimize -> presentation shell -> serialize, each
// under its own span.
func (g *rig) compile(tr *tracer, parent, id int, st sql.Statement) (*compiled, error) {
	sp := tr.begin("sql.bind", parent, id)
	bound, err := sql.Bind(g.cat, st)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("orca.optimize", parent, id)
	o := &orca.Optimizer{Segments: segments, Workers: 1}
	node, err := o.Optimize(bound.Root)
	if err == nil {
		if len(bound.OrderBy) > 0 {
			node = plan.NewSort(bound.OrderBy, node)
		}
		if bound.Limit >= 0 {
			node = plan.NewLimit(bound.Limit, node)
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("plan.serialize", parent, id)
	size := plan.SerializedSize(node)
	tr.end(sp)
	return &compiled{node: node, groups: o.Stats.Groups, bytes: size}, nil
}

// rigResult is one statement's outcome through the rig.
type rigResult struct {
	rows     []types.Row
	affected int64
	stats    *exec.Stats
}

// run sends one statement through the rig the way Engine.queryPrepared /
// execPrepared do: parse, normalize, plan-cache lookup, compile on a miss,
// execute, annotate. tr may be nil (untraced warm-up).
func (g *rig) run(tr *tracer, parent, id int, text string) (*rigResult, error) {
	sp := tr.begin("sql.parse", parent, id)
	st, err := sql.Parse(text)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	switch s := st.(type) {
	case *sql.SelectStmt:
		sp = tr.begin("sql.normalize", parent, id)
		norm := sql.NormalizeSelect(s)
		_ = sql.FormatSelect(s) // the engine fingerprints the raw tree too (legacy key)
		tr.end(sp)

		sp = tr.begin("plancache.get", parent, id)
		key := "orca|+sel|" + norm.Text
		epoch := g.plans.Epoch()
		ent, hit := g.plans.Get(key)
		tr.end(sp)
		if !hit {
			c, err := g.compile(tr, parent, id, norm.Stmt)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("plancache.put", parent, id)
			ent = &plancache.Entry{Plan: c.node, PlanSize: c.bytes, TotalSize: c.bytes}
			g.plans.Put(key, ent, epoch)
			tr.end(sp)
		}
		sp = tr.begin("exec.run", parent, id)
		xs := exec.NewStats()
		res, err := exec.RunIntoCtx(ctx, g.rt, ent.Plan, &exec.Params{Vals: norm.Extra}, xs)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("plan.annotate", parent, id)
		_ = plan.ExplainAnalyze(ent.Plan, xs) // Rows.ExplainAnalyze is rendered for every query
		tr.end(sp)
		return &rigResult{rows: res.Rows, stats: xs}, nil

	case *sql.InsertStmt:
		sp = tr.begin("sql.bind", parent, id)
		tab, rows, err := sql.BindInsert(g.cat, s, nil)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("storage.insert", parent, id)
		for _, r := range rows {
			if err = g.store.Insert(tab, r); err != nil {
				break
			}
		}
		g.plans.Bump()
		tr.end(sp)
		return &rigResult{affected: int64(len(rows))}, err
	}
	// UPDATE / DELETE: compiled fresh, never cached, epoch bumped after.
	c, err := g.compile(tr, parent, id, st)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("exec.run", parent, id)
	xs := exec.NewStats()
	res, err := exec.RunIntoCtx(ctx, g.rt, c.node, &exec.Params{}, xs)
	g.plans.Bump()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := &rigResult{stats: xs}
	for _, r := range res.Rows {
		out.affected += r[0].Int()
	}
	return out, nil
}

// sameRows compares the rig's rows with the engine's as multisets (floats
// within floatTol: segments are gathered in arrival order, so sums differ
// in their last bits between two runs of the same code).
func sameRows(rigRows []types.Row, engRows [][]partopt.Value) error {
	want := make([][]cell, len(rigRows))
	for i, r := range rigRows {
		want[i] = make([]cell, len(r))
		for j, d := range r {
			if d.Kind() == types.KindFloat {
				want[i][j] = cf(d.Float())
			} else {
				want[i][j] = cell{s: d.String()}
			}
		}
	}
	got := make([][]string, len(engRows))
	for i, r := range engRows {
		got[i] = make([]string, len(r))
		for j, v := range r {
			got[i][j] = v.String()
		}
	}
	return matchRows(want, got)
}

// ---------------------------------------------------------------- probes

// timeEach runs f for at least minIters calls and until budget is spent,
// and returns the median call time in ns.
func timeEach(budget time.Duration, minIters int, f func()) float64 {
	var d []float64
	stop := time.Now().Add(budget)
	for i := 0; i < minIters || time.Now().Before(stop); i++ {
		t0 := time.Now()
		f()
		d = append(d, float64(time.Since(t0)))
	}
	return p50(d)
}

// timeBatched is timeEach for calls too short to time singly: each sample
// is the mean of batch calls.
func timeBatched(budget time.Duration, batch int, f func()) float64 {
	return timeEach(budget, 5, func() {
		for i := 0; i < batch; i++ {
			f()
		}
	}) / float64(batch)
}

// compileText parses and compiles one statement outside any span.
func (g *rig) compileText(text string) (*compiled, *sql.Normalized, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("probe is not a SELECT: %s", text)
	}
	norm := sql.NormalizeSelect(sel)
	c, err := g.compile(nil, -1, -1, norm.Stmt)
	return c, norm, err
}

// timeExec times exec.RunIntoCtx on a compiled probe statement and
// returns the median ns and the rows the executor read from storage.
func (g *rig) timeExec(text string, budget time.Duration, minIters int) (ns float64, scanned int64, err error) {
	c, norm, err := g.compileText(text)
	if err != nil {
		return 0, 0, err
	}
	ns = timeEach(budget, minIters, func() {
		xs := exec.NewStats()
		if _, err = exec.RunIntoCtx(context.Background(), g.rt, c.node, &exec.Params{Vals: norm.Extra}, xs); err == nil {
			scanned = xs.RowsScanned()
		}
	})
	return ns, scanned, err
}

func rowOf(t *table, r int) types.Row {
	row := make(types.Row, len(t.cols))
	for c := range t.cols {
		row[c] = t.cols[c].datum(r)
	}
	return row
}

// hotRow is a generator row that routes to the fact table's last leaf.
func hotRow(t *table) int {
	key := t.col(t.partCol).i
	best := 0
	for r, v := range key {
		if v > key[best] {
			best = r
		}
	}
	return best
}

// layerProbes times the layers' exported functions on the workload's own
// fact table. budget is the time one probe may take.
func layerProbes(w *workload, ds *dataset, g *rig, s *sut, stream []stmt, budget time.Duration, m map[string]float64) error {
	p := w.probes
	fact := ds.byName[p.fact]
	ct := g.tables[p.fact]
	ctx := context.Background()

	// server: ping, and rendering a large result.
	conn, err := server.Dial(s.srv.Addr(), dialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	m["server.ping_us"] = timeEach(budget, 50, func() { _, err = conn.Send("PING") }) / 1e3
	if err != nil {
		return err
	}
	var rendered int
	wireNs := timeEach(budget, 3, func() {
		var r *server.Response
		if r, err = conn.Send(p.render); err == nil {
			rendered = r.N
		}
	})
	if err != nil {
		return err
	}
	engNs := timeEach(budget, 3, func() { _, err = s.eng.QueryCtx(ctx, p.render) })
	if err != nil {
		return err
	}
	if rendered < 10_000 || wireNs <= engNs {
		return fmt.Errorf("render probe returned %d rows in %.0f ns over the wire, %.0f ns in the engine", rendered, wireNs, engNs)
	}
	m["server.render_krows_s"] = float64(rendered) / ((wireNs - engNs) / 1e9) / 1e3

	// sql + orca + plan: compile the first statements of the stream that
	// the optimizer sees (everything but INSERT).
	var parseNs, normNs, bindNs, optNs, serNs, groups, bytes []float64
	for _, st := range stream {
		if len(optNs) == 40 {
			break
		}
		t0 := time.Now()
		ast, err := sql.Parse(st.sql)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, ok := ast.(*sql.InsertStmt); ok {
			continue
		}
		if sel, ok := ast.(*sql.SelectStmt); ok {
			norm := sql.NormalizeSelect(sel)
			_ = sql.FormatSelect(sel)
			normNs = append(normNs, float64(time.Since(t1)))
			ast = norm.Stmt
		}
		tr := newTracer()
		c, err := g.compile(tr, -1, 0, ast)
		if err != nil {
			return fmt.Errorf("compile probe: %w\n  %s", err, st.sql)
		}
		parseNs = append(parseNs, float64(t1.Sub(t0)))
		bindNs = append(bindNs, float64(tr.spans[0].dur()))
		optNs = append(optNs, float64(tr.spans[1].dur()))
		serNs = append(serNs, float64(tr.spans[2].dur()))
		groups = append(groups, float64(c.groups))
		bytes = append(bytes, float64(c.bytes))
	}
	m["sql.parse_us"] = p50(parseNs) / 1e3
	m["sql.normalize_us"] = p50(normNs) / 1e3
	m["sql.bind_us"] = p50(bindNs) / 1e3
	m["orca.optimize_us"] = p50(optNs) / 1e3
	m["orca.memo_groups"] = p50(groups)
	m["plan.serialize_us"] = p50(serNs) / 1e3
	m["plan.bytes"] = p50(bytes)

	// plancache / oidcache: a Get that hits.
	fixed, fixedNorm, err := g.compileText(p.fixed)
	if err != nil {
		return err
	}
	pc := plancache.New(partopt.DefaultPlanCacheCapacity)
	pc.Put("k", &plancache.Entry{Plan: fixed.node}, pc.Epoch())
	m["plancache.get_ns"] = timeBatched(budget, 1000, func() { pc.Get("k") })
	oneKey := []types.IntervalSet{types.SetOf(types.PointInterval(p.oneKey))}
	oc := oidcache.New(partopt.DefaultOIDCacheCapacity)
	oidKey := oidcache.Key(ct.OID, oneKey)
	oc.Put(oidKey, ct.Part.Select(oneKey), oc.Epoch())
	m["oidcache.get_ns"] = timeBatched(budget, 1000, func() { oc.Get(oidKey) })

	// part: selecting and routing one key.
	m["part.select_ns"] = timeBatched(budget, 200, func() { ct.Part.Select(oneKey) })
	route := []types.Datum{p.oneKey}
	m["part.route_ns"] = timeBatched(budget, 1000, func() { ct.Part.Route(route) })

	// exec: the dispatch + gather floor, then the full-scan shapes.
	fixedNs := timeEach(budget, 20, func() {
		_, err = exec.RunIntoCtx(ctx, g.rt, fixed.node, &exec.Params{Vals: fixedNorm.Extra}, exec.NewStats())
	})
	if err != nil {
		return err
	}
	m["exec.fixed_us"] = fixedNs / 1e3
	// Partitioned and flat alternate in short turns, so host drift lands
	// on both sides of the overhead.
	var partNs, flatNs []float64
	var partRows, flatRows int64
	for turn := 0; turn < 3; turn++ {
		ns, n, err := g.timeExec(p.scanPart, budget/2, 2)
		if err != nil {
			return err
		}
		partNs, partRows = append(partNs, ns), n
		if ns, n, err = g.timeExec(p.scanFlat, budget/2, 2); err != nil {
			return err
		}
		flatNs, flatRows = append(flatNs, ns), n
	}
	// mixed_rw's replay has inserted a few rows into the partitioned table
	// only; a pruned leaf would differ by far more than 1 %.
	if d := partRows - flatRows; d*100 > flatRows || -d*100 > flatRows {
		return fmt.Errorf("scan probes read %d rows of %s and %d of its flat twin: the overhead would compare unequal work", partRows, p.fact, flatRows)
	}
	part, flat := median(partNs), median(flatNs)
	m["exec.scan_mrows_s.part365"] = float64(partRows) / (part / 1e9) / 1e6
	m["exec.scan_mrows_s.flat"] = float64(flatRows) / (flat / 1e9) / 1e6
	m["exec.part_overhead_pct"] = (part - flat) / flat * 100
	aggNs, aggRows, err := g.timeExec(p.agg, budget, 3)
	if err != nil {
		return err
	}
	m["exec.agg_mrows_s"] = float64(aggRows) / (aggNs / 1e9) / 1e6

	// storage: scans first (they read what the load left), then writes.
	// ScanLeafColsAt hands out cached zero-copy views, so the scan rate
	// reads the key lane of every view it got: rows are touched, as a
	// scan operator touches them. scan_leaf_us is the call alone, the
	// fixed cost a scan pays per leaf.
	leaves := storage.LeafOIDs(ct)
	var scanned int
	var laneSum int64
	scanNs := timeEach(budget, 3, func() {
		scanned = 0
		for _, leaf := range leaves {
			var cols []vec.View
			var rows []types.Row
			if cols, rows, err = g.store.ScanLeafColsAt(ct.OID, 0, 0, leaf); err != nil {
				return
			}
			if len(rows) > 0 {
				for _, v := range cols[0].Ints[cols[0].Base : cols[0].Base+len(rows)] {
					laneSum += v
				}
			}
			scanned += len(rows)
		}
	})
	if err != nil {
		return err
	}
	if laneSum == 0 {
		return fmt.Errorf("storage scan probe read no key of %s", p.fact)
	}
	m["storage.scan_mrows_s"] = float64(scanned) / (scanNs / 1e9) / 1e6
	m["storage.scan_leaf_us"] = timeEach(budget, 50, func() { _, _, err = g.store.ScanLeafColsAt(ct.OID, 0, 0, leaves[0]) }) / 1e3
	if err != nil {
		return err
	}
	next := 0
	m["storage.insert_us"] = timeEach(budget, 100, func() {
		err = g.store.Insert(ct, rowOf(fact, next%fact.n))
		next++
	}) / 1e3
	if err != nil {
		return err
	}
	batch := make([]types.Row, 4096)
	for i := range batch {
		batch[i] = rowOf(fact, i%fact.n)
	}
	batchNs := timeEach(budget, 3, func() { err = g.store.InsertBatch(ct, batch) })
	if err != nil {
		return err
	}
	m["storage.insert_batch_mrows_s"] = float64(len(batch)) / (batchNs / 1e9) / 1e6
	rows, err := g.store.ScanLeafAt(ct.OID, 0, 0, leaves[0])
	if err != nil || len(rows) < 200 {
		return fmt.Errorf("first leaf of %s holds %d rows on segment 0 (%v)", p.fact, len(rows), err)
	}
	idx := 0
	m["storage.update_us"] = timeEach(budget, 100, func() {
		_, err = g.store.UpdateRow(ct, storage.RowID{Seg: 0, Leaf: leaves[0], Idx: idx % 100}, rows[idx%100].Clone())
		idx++
	}) / 1e3
	if err != nil {
		return err
	}
	// Deletes go down from the heap's end; stop before the leaf is empty.
	last := len(rows) - 1
	var delNs []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if err := g.store.DeleteRow(ct, storage.RowID{Seg: 0, Leaf: leaves[0], Idx: last - i}); err != nil {
			return err
		}
		delNs = append(delNs, float64(time.Since(t0)))
	}
	m["storage.delete_us"] = p50(delNs) / 1e3
	hot := rowOf(fact, hotRow(fact))
	hotLeaf := leaves[len(leaves)-1]
	var firstScan []float64
	for i := 0; i < 30; i++ {
		if err := g.store.Insert(ct, hot); err != nil {
			return err
		}
		t0 := time.Now()
		for seg := 0; seg < segments; seg++ {
			if _, _, err := g.store.ScanLeafColsAt(ct.OID, seg, 0, hotLeaf); err != nil {
				return err
			}
		}
		firstScan = append(firstScan, float64(time.Since(t0)))
	}
	m["storage.first_scan_after_write_us"] = p50(firstScan) / 1e3

	// vec: one heap of 10 000 rows of the fact table's shape.
	kinds := make([]types.Kind, len(ct.Cols))
	for i, c := range ct.Cols {
		kinds[i] = c.Kind
	}
	cs := vec.NewColumnSet(kinds)
	const heapRows = 10_000
	heap := make([]types.Row, heapRows)
	for i := range heap {
		heap[i] = rowOf(fact, i%fact.n)
	}
	cs.AppendRows(heap)
	var appendNs, viewNs []float64
	for i := 0; i < 50; i++ {
		cs.ViewSnapshot()
		t0 := time.Now()
		cs.AppendRow(heap[i])
		t1 := time.Now()
		cs.RowView()
		appendNs = append(appendNs, float64(t1.Sub(t0)))
		viewNs = append(viewNs, float64(time.Since(t1)))
	}
	m["vec.append_after_snapshot_us"] = p50(appendNs) / 1e3
	m["vec.rowview_build_us"] = p50(viewNs) / 1e3
	keyCol := cs.ColView(0)
	h := make([]uint64, heapRows)
	hashNs := timeEach(budget, 20, func() { keyCol.HashInto(h, nil, nil, true) })
	m["vec.hash_mrows_s"] = heapRows / (hashNs / 1e9) / 1e6

	m["stats.collect_s"] = g.collectS
	return nil
}

// -------------------------------------------------------------- the run

// layerUnits lists every per-layer metric with its unit, in print order.
var layerUnits = []struct{ name, unit string }{
	{"server.ping_us", "us"},
	{"server.wire_self_us", "us"},
	{"server.render_krows_s", "krows/s"},
	{"sql.parse_us", "us"},
	{"sql.normalize_us", "us"},
	{"sql.bind_us", "us"},
	{"plancache.get_ns", "ns"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.invalidations_per_op", "count"},
	{"orca.optimize_us", "us"},
	{"orca.memo_groups", "count"},
	{"orca.optimizations_per_op", "count"},
	{"orca.share_pct", "%"},
	{"plan.serialize_us", "us"},
	{"plan.bytes", "B"},
	{"plan.annotate_us", "us"},
	{"part.select_ns", "ns"},
	{"part.route_ns", "ns"},
	{"oidcache.get_ns", "ns"},
	{"oidcache.hit_ratio", "ratio"},
	{"exec.run_us", "us"},
	{"exec.share_pct", "%"},
	{"exec.fixed_us", "us"},
	{"exec.scan_mrows_s.part365", "Mrows/s"},
	{"exec.scan_mrows_s.flat", "Mrows/s"},
	{"exec.agg_mrows_s", "Mrows/s"},
	{"exec.part_overhead_pct", "%"},
	{"exec.parts_scanned_per_op", "count"},
	{"exec.rows_moved_per_op", "rows"},
	{"exec.spilled_bytes_per_op", "B"},
	{"storage.scan_mrows_s", "Mrows/s"},
	{"storage.scan_leaf_us", "us"},
	{"storage.insert_us", "us"},
	{"storage.insert_batch_mrows_s", "Mrows/s"},
	{"storage.update_us", "us"},
	{"storage.delete_us", "us"},
	{"storage.first_scan_after_write_us", "us"},
	{"vec.append_after_snapshot_us", "us"},
	{"vec.rowview_build_us", "us"},
	{"vec.hash_mrows_s", "Mrows/s"},
	{"stats.collect_s", "s"},
	{"trace.engine_us", "us"},
	{"trace.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"bench.calib_ms", "ms"},
	{"bench.steal_pct", "%"},
}

// replayed is what the three-depth replay produced: the spans, the rig's
// executor counts (exact: one client, serial), and every disagreement.
type replayed struct {
	tr                           *tracer
	ns                           float64 // wall time of the traced replay
	parts, moved, spilled, execs float64
	fails                        []error
}

// replayTraced replays stmts at three depths — over the wire to s, through
// engDepth, through the rig — one statement at a time, and checks that the
// three agree. Read-only workloads are warmed first, on both sides, so the
// engine and the rig both answer from their caches.
func replayTraced(w *workload, s *sut, engDepth *partopt.Engine, g *rig, stmts []stmt) (*replayed, error) {
	conn, err := server.Dial(s.srv.Addr(), dialTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if w.restart {
		warmed := map[string]bool{}
		for _, st := range stmts {
			if warmed[st.sql] { // scan_heavy repeats its literal-free full scans
				continue
			}
			warmed[st.sql] = true
			if _, err := conn.Send(st.sql); err != nil {
				return nil, err
			}
			if _, err := g.run(nil, -1, -1, st.sql); err != nil {
				return nil, fmt.Errorf("rig warm-up: %w\n  %s", err, st.sql)
			}
		}
	}
	ctx := context.Background()
	rp := &replayed{tr: newTracer()}
	tr := rp.tr
	fail := func(err error) { rp.fails = append(rp.fails, err) }
	t0 := time.Now()
	for i := range stmts {
		st := &stmts[i]
		wire := tr.begin("wire", -1, i)
		resp, err := conn.Send(st.sql)
		tr.end(wire)
		if err != nil {
			return nil, fmt.Errorf("replay over the wire: %w", err)
		}
		if err := checkResponse(st, resp); err != nil {
			fail(fmt.Errorf("replay wire: %w\n  %s", err, st.sql))
		}

		eng := tr.begin("engine", wire, i)
		var engRows *partopt.Rows
		var engN int64
		if st.dml {
			engN, err = engDepth.ExecCtx(ctx, st.sql)
		} else {
			engRows, err = engDepth.QueryCtx(ctx, st.sql)
		}
		tr.end(eng)
		if err != nil {
			fail(fmt.Errorf("replay engine: %w\n  %s", err, st.sql))
			continue
		}

		rr, err := g.run(tr, eng, i, st.sql)
		if err != nil {
			fail(fmt.Errorf("replay rig: %w\n  %s", err, st.sql))
			continue
		}
		if st.dml {
			if rr.affected != engN {
				fail(fmt.Errorf("rig affected %d rows, engine %d\n  %s", rr.affected, engN, st.sql))
			}
		} else if err := sameRows(rr.rows, engRows.Data); err != nil {
			fail(fmt.Errorf("rig and engine disagree: %w\n  %s", err, st.sql))
		}
		if rr.stats != nil {
			rp.execs++
			for _, t := range rr.stats.TablesScanned() {
				rp.parts += float64(rr.stats.PartsScanned(t))
			}
			rp.moved += float64(rr.stats.RowsMoved())
			rp.spilled += float64(rr.stats.SpilledBytes())
		}
	}
	rp.ns = float64(time.Since(t0))
	return rp, nil
}

// traceWorkload is the traced run of one workload: a short untraced load
// phase for the cache counters, the three-depth replay, the probes.
func traceWorkload(w *workload, cfg runConfig) (*workloadResult, error) {
	ds, s, each, err := setUp(w, cfg.seed, cfg.sc, 1)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	res := &workloadResult{Workload: w.name, Why: w.why, Rows: ds.rowCounts(), Setups: each, Layers: map[string]float64{}}
	m := res.Layers
	fail := func(err error) {
		res.Failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}

	// Where a statement cannot be run twice on one engine (DML; plans that
	// must miss the cache), the engine depth gets an engine of its own, so
	// wire, engine and rig each see every statement exactly once.
	engDepth := s.eng
	if !w.restart {
		s2, err := startSUT(ds)
		if err != nil {
			return nil, err
		}
		defer s2.stop()
		engDepth = s2.eng
	}
	g, err := newRig(ds, w.probes.fact)
	if err != nil {
		return nil, err
	}

	// Load phase, tracing off: stream 0 is kept for the replay, the
	// clients take streams 1..n.
	streams := w.streams(w, ds, cfg.seed, cfg.clients+1)
	clients, err := dialClients(s.srv.Addr(), streams[1:], len(w.templates))
	if err != nil {
		return nil, err
	}
	load, err := runRound(s, w, clients, time.Duration(cfg.seconds/4*float64(time.Second)))
	closeClients(clients)
	if load.Attempted == 0 {
		return nil, err
	}
	res.Attempted += load.Attempted
	res.Failed += load.Failed // err is the first of these failures, not one more
	res.firstErr = err
	m["bench.calib_ms"] = load.CalibMs
	m["bench.steal_pct"] = load.StealPct
	m["plancache.hit_ratio"] = ratio(load.PlanHits, load.PlanHits+load.PlanMisses)
	m["plancache.invalidations_per_op"] = ratio(load.Invalidations, int64(load.Attempted))
	m["orca.optimizations_per_op"] = ratio(load.Optimizations, int64(load.Attempted))
	m["oidcache.hit_ratio"] = ratio(load.OIDHits, load.OIDHits+load.OIDMisses)

	rp, err := replayTraced(w, s, engDepth, g, streams[0][:w.replayN])
	if err != nil {
		return nil, err
	}
	tr := rp.tr
	res.Attempted += w.replayN
	for _, e := range rp.fails {
		fail(e)
	}

	by := durationsByName(tr.spans)
	sh := replayShares(tr.spans)
	m["server.wire_self_us"] = sh.wireSelfNs / 1e3
	m["trace.engine_us"] = p50(by["engine"]) / 1e3
	m["exec.run_us"] = p50(by["exec.run"]) / 1e3
	m["plan.annotate_us"] = p50(by["plan.annotate"]) / 1e3
	m["exec.share_pct"] = sh.execPct
	m["orca.share_pct"] = sh.orcaPct
	m["trace.unattributed_pct"] = sh.unattributedPct
	if rp.execs > 0 {
		m["exec.parts_scanned_per_op"] = rp.parts / rp.execs
		m["exec.rows_moved_per_op"] = rp.moved / rp.execs
		m["exec.spilled_bytes_per_op"] = rp.spilled / rp.execs
	}
	// Tracing cost: what recording this many spans takes, as a share of
	// the replay. The spans sit in the benchmark's own code, so there is
	// no untraced twin of the rig to time instead.
	scratch := newTracer()
	perSpan := timeBatched(20*time.Millisecond, 1000, func() { scratch.end(scratch.begin("x", -1, 0)); scratch.spans = scratch.spans[:0] })
	m["trace.overhead_pct"] = perSpan * float64(len(tr.spans)) / rp.ns * 100

	if err := layerProbes(w, ds, g, s, streams[0], time.Duration(cfg.seconds/40*float64(time.Second)), m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	if err := writeTrace(filepath.Join(outDir, "trace."+w.name+".json"), w, tr); err != nil {
		return nil, err
	}
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceFile is trace.<workload>.json: every span, and per span name the
// total and self time.
type traceFile struct {
	Workload string                `json:"workload"`
	Layers   map[string]layerTotal `json:"layers"`
	Spans    []span                `json:"spans"`
}

type layerTotal struct {
	Spans   int   `json:"spans"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func writeTrace(path string, w *workload, tr *tracer) error {
	self := selfTimes(tr.spans)
	layers := map[string]layerTotal{}
	for i, s := range tr.spans {
		l := layers[s.Name]
		l.Spans++
		l.TotalNs += s.dur()
		l.SelfNs += self[i]
		layers[s.Name] = l
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: w.name, Layers: layers, Spans: tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (r *workloadResult) printLayers(out *os.File) {
	fmt.Fprintf(out, "\n== %s  (traced: %d statements replayed at three depths)\n", r.Workload, workloadByName(r.Workload).replayN)
	for _, l := range layerUnits {
		fmt.Fprintf(out, "%-12s %-36s %16.4f %s\n", r.Workload, l.name, r.Layers[l.name], l.unit)
	}
	fmt.Fprintf(out, "%-12s %-36s %16.6f fraction (%d failed of %d attempted)\n", r.Workload, "error_rate", r.ErrorRate, r.Failed, r.Attempted)
	if r.firstErr != nil {
		fmt.Fprintf(out, "%-12s FIRST ERROR: %v\n", r.Workload, strings.TrimSpace(r.firstErr.Error()))
	}
}
