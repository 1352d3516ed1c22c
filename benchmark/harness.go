package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"partopt"
	"partopt/internal/server"
)

const (
	segments    = 4 // mppd's default cluster width
	rounds      = 5
	setups      = 3               // set-ups per run; setup_s is their median
	warmup      = 2 * time.Second // untimed round before the first timed one
	outDir      = "benchmark/out" // result.json and the trace files
	dialTimeout = 60 * time.Second
)

// sut is the system under test: one engine with the defaults mppd ships
// (Orca, selection on, plan cache 256, OID cache 1024, one optimizer
// worker, no governor, no mirrors) behind internal/server on a loopback
// ephemeral port — what cmd/mppd wraps around its hard-coded boot schema.
type sut struct {
	eng *partopt.Engine
	srv *server.Server
}

func startSUT(ds *dataset) (*sut, error) {
	eng, err := partopt.New(segments)
	if err != nil {
		return nil, err
	}
	for _, t := range ds.tables {
		if err := loadEngine(eng, t); err != nil {
			return nil, err
		}
	}
	if err := eng.Analyze(); err != nil {
		return nil, err
	}
	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &sut{eng: eng, srv: srv}, nil
}

func (s *sut) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}

// A cheap set-up is repeated beyond the asked count, up to setupMaxTimes or
// setupMinTotal of set-up time, whichever comes first: the median of three
// 60 ms readings moves by a quarter between two runs of the same code. A
// dear one is repeated only while the next repeat would still end within
// setupMaxTotal (scan_heavy's 5 s load runs once), so that a run stays
// under 30 s and the time goes to the rounds.
const (
	setupMinTotal = 2 * time.Second
	setupMaxTotal = 8 * time.Second
	setupMaxTimes = 15
)

// setupReading is one set-up: its wall time as measured and at the
// reference box's speed (hostLoad.slowdown).
type setupReading struct {
	Seconds  float64 `json:"seconds"`
	Measured float64 `json:"as_measured"`
	hostLoad
}

// setUp generates the workload's tables and starts a loaded server, `times`
// times over within the limits above, keeping the last. It returns every
// set-up's time: setup_s is their median, so one slow load does not decide
// it. A caller that asks for one set-up (the traced run, the tests) gets
// one.
func setUp(w *workload, seed int64, sc scale, times int) (*dataset, *sut, []setupReading, error) {
	var each []setupReading
	var total time.Duration
	for {
		hw := watchHost()
		t0 := time.Now()
		ds := newDataset(w.tables(seed, sc)...)
		s, err := startSUT(ds)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		load := hw.done()
		_, wallSlow := load.slowdown()
		total += d
		each = append(each, setupReading{Seconds: d.Seconds() / wallSlow, Measured: d.Seconds(), hostLoad: load})
		n := len(each)
		if n >= times && (times == 1 || total >= setupMinTotal || n >= setupMaxTimes) || total+d > setupMaxTotal {
			return ds, s, each, nil
		}
		s.stop()
		ds, s = nil, nil
		runtime.GC()
	}
}

// runChecks sends every pre-timing case over the wire and compares the
// full answer with the reference's.
func runChecks(addr string, checks []check) (failed int, first error) {
	c, err := server.Dial(addr, dialTimeout)
	if err != nil {
		return len(checks), err
	}
	defer c.Close()
	for _, ck := range checks {
		resp, err := c.Send(ck.sql)
		if err == nil && resp.IsErr() {
			err = resp.Err()
		}
		if err == nil {
			err = matchRows(ck.want, resp.DataRows())
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("check %s: %w\n  %s", ck.tmpl, err, ck.sql)
			}
			if resp == nil { // transport error: the connection is gone
				return failed, first
			}
		}
	}
	return failed, first
}

// clientState is one closed-loop session: a connection, its stream and
// where it stands in it.
type clientState struct {
	id     int
	conn   *server.Client
	stream []stmt
	pos    int
	done   []int // correct responses per template, over the whole run

	// per-round, reset by runRound
	lat         []float64 // ms, one per attempted statement
	failed      int
	rowsScanned int64
	rowsResps   int64
	firstErr    error
}

// statRowsScanned reads rows_scanned from a ROWS response's STAT trailer.
func statRowsScanned(r *server.Response) (int64, bool) {
	if len(r.Lines) == 0 {
		return 0, false
	}
	last := r.Lines[len(r.Lines)-1]
	const key = "rows_scanned="
	i := strings.Index(last, key)
	if !strings.HasPrefix(last, "STAT ") || i < 0 {
		return 0, false
	}
	rest := last[i+len(key):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	return n, err == nil
}

// checkResponse verifies what can be known without the reference while
// timing: the response kind, the row count, the affected-row count.
func checkResponse(s *stmt, r *server.Response) error {
	if r.IsErr() {
		return r.Err()
	}
	if s.dml {
		if want := "OK " + strconv.Itoa(int(s.want)); r.Header != want {
			return fmt.Errorf("got %q, want %q", r.Header, want)
		}
		return nil
	}
	if r.Kind != "ROWS" {
		return fmt.Errorf("got %q, want ROWS", r.Header)
	}
	if s.want >= 0 && r.N != int(s.want) {
		return fmt.Errorf("got %d rows, want %d", r.N, s.want)
	}
	return nil
}

func (c *clientState) fail(s *stmt, err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("client %d: %w\n  %s", c.id, err, s.sql)
	}
}

// loop sends whole template cycles and stops at the cycle boundary nearest
// the deadline (half of the last cycle's length before it at the earliest),
// so a round holds whole cycles and is as long as asked on average, not half
// a cycle longer: a scan_heavy cycle takes over a second.
func (c *clientState) loop(addr string, wrap bool, cycle int, deadline time.Time) {
	cycleStart := time.Now()
	for {
		if c.pos%cycle == 0 {
			now := time.Now()
			if now.Add(now.Sub(cycleStart) / 2).After(deadline) {
				return
			}
			cycleStart = now
		}
		if c.pos >= len(c.stream) {
			if !wrap {
				c.fail(&c.stream[len(c.stream)-1], fmt.Errorf("stream of %d statements exhausted", len(c.stream)))
				return
			}
			c.pos = 0
		}
		s := &c.stream[c.pos]
		c.pos++
		t0 := time.Now()
		resp, err := c.conn.Send(s.sql)
		c.lat = append(c.lat, float64(time.Since(t0))/1e6)
		if err != nil {
			c.fail(s, err)
			c.conn.Close()
			if c.conn, err = server.Dial(addr, dialTimeout); err != nil {
				c.fail(s, err)
				return
			}
			continue
		}
		if err := checkResponse(s, resp); err != nil {
			c.fail(s, err)
			continue
		}
		c.done[s.tmpl]++
		if n, ok := statRowsScanned(resp); ok {
			c.rowsScanned += n
			c.rowsResps++
		}
	}
}

// counters are the process- and engine-wide readings taken around a round.
type counters struct {
	cpuNs      int64
	allocBytes uint64
	plan       partopt.PlanCacheStats
	oid        partopt.OIDCacheStats
}

func readCounters(eng *partopt.Engine) counters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: ms.TotalAlloc,
		plan:       eng.PlanCacheStats(),
		oid:        eng.OIDCacheStats(),
	}
}

func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeBased names the metrics that are reported at the reference box's
// speed; the others are counts and do not depend on how fast the host is.
var timeBased = []string{"qps", "lat_p50_ms", "lat_p90_ms", "cpu_ms_per_op"}

// roundResult is one round's readings; result.json keeps all of them
// beside the medians.
type roundResult struct {
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	hostLoad
	Metrics       map[string]float64 `json:"metrics"`
	Measured      map[string]float64 `json:"as_measured"` // the time-based metrics before hostLoad.slowdown was divided out
	PlanHits      int64              `json:"plan_cache_hits"`
	PlanMisses    int64              `json:"plan_cache_misses"`
	Invalidations int64              `json:"plan_cache_invalidations"`
	Optimizations int64              `json:"optimizations"`
	OIDHits       int64              `json:"oid_cache_hits"`
	OIDMisses     int64              `json:"oid_cache_misses"`
	lat           []float64          // ms at reference speed, sorted, one per attempted statement
}

// runRound drives every client for d and reduces the round to its metric
// values. The process was just garbage-collected (heapLiveMB), so every
// round starts from the same collector state.
func runRound(s *sut, w *workload, clients []*clientState, d time.Duration) (roundResult, error) {
	var res roundResult
	hw := watchHost()
	for _, c := range clients {
		c.lat, c.failed, c.rowsScanned, c.rowsResps, c.firstErr = c.lat[:0], 0, 0, 0, nil
		if w.restart {
			c.pos = 0
		}
	}
	addr := s.srv.Addr()
	before := readCounters(s.eng)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(addr, !w.once, w.cycle, deadline)
		}()
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	after := readCounters(s.eng)
	res.hostLoad = hw.done()

	var lat []float64
	var rowsScanned, rowsResps int64
	var firstErr error
	for _, c := range clients {
		lat = append(lat, c.lat...)
		res.Failed += c.failed
		rowsScanned += c.rowsScanned
		rowsResps += c.rowsResps
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}
	sort.Float64s(lat)
	res.lat = lat
	res.Attempted = len(lat)
	if res.Attempted == 0 {
		return res, fmt.Errorf("round attempted no statement: %v", firstErr)
	}
	n := float64(res.Attempted)
	res.Metrics = map[string]float64{
		"qps":             float64(res.Attempted-res.Failed) / res.Seconds,
		"lat_p50_ms":      percentile(lat, 50),
		"lat_p90_ms":      percentile(lat, 90),
		"cpu_ms_per_op":   float64(after.cpuNs-before.cpuNs) / 1e6 / n,
		"alloc_kb_per_op": float64(after.allocBytes-before.allocBytes) / 1024 / n,
		"heap_live_mb":    heapLiveMB(),
	}
	if rowsResps > 0 {
		res.Metrics["rows_scanned_per_op"] = float64(rowsScanned) / float64(rowsResps)
	}
	// The time-based metrics are reported at the reference box's speed: what
	// the host's slowdown around this round added is divided out.
	res.Measured = map[string]float64{}
	for _, name := range timeBased {
		res.Measured[name] = res.Metrics[name]
	}
	cpuSlow, wallSlow := res.slowdown()
	res.Metrics["qps"] *= wallSlow
	res.Metrics["lat_p50_ms"] /= wallSlow
	res.Metrics["lat_p90_ms"] /= wallSlow
	res.Metrics["cpu_ms_per_op"] /= cpuSlow
	for i := range lat {
		lat[i] /= wallSlow
	}
	res.PlanHits = after.plan.Hits - before.plan.Hits
	res.PlanMisses = after.plan.Misses - before.plan.Misses
	res.Invalidations = after.plan.Invalidations - before.plan.Invalidations
	res.Optimizations = after.plan.Optimizations - before.plan.Optimizations
	res.OIDHits = after.oid.Hits - before.oid.Hits
	res.OIDMisses = after.oid.Misses - before.oid.Misses
	return res, firstErr
}

func dialClients(addr string, streams [][]stmt, templates int) ([]*clientState, error) {
	var out []*clientState
	for i, st := range streams {
		conn, err := server.Dial(addr, dialTimeout)
		if err != nil {
			closeClients(out)
			return nil, err
		}
		out = append(out, &clientState{id: i, conn: conn, stream: st, done: make([]int, templates),
			lat: make([]float64, 0, 1<<16)})
	}
	return out, nil
}

func closeClients(cs []*clientState) {
	for _, c := range cs {
		c.conn.Close()
	}
}

// runTally asks, per client, the workload's closing question (mixed_rw:
// how many of my rows exist) and compares it with the client's own count.
func runTally(w *workload, clients []*clientState) (failed int, first error) {
	for _, c := range clients {
		sql, want := w.tally(c.id, c.done)
		resp, err := c.conn.Send(sql)
		if err == nil {
			err = resp.Err()
		}
		if err == nil {
			err = matchRows([][]cell{{ci(want)}}, resp.DataRows())
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("tally of client %d: %w\n  %s", c.id, err, sql)
			}
		}
	}
	return failed, first
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Workload  string                `json:"workload"`
	Why       string                `json:"why"`
	Rows      map[string]int        `json:"rows"`
	Setups    []setupReading        `json:"setups"`
	Checks    int                   `json:"reference_checks"`
	Rounds    []roundResult         `json:"rounds"`
	LatN      int                   `json:"latency_samples"`
	BeyondP90 int                   `json:"samples_beyond_p90"`
	Noisy     bool                  `json:"noisy"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	ErrorRate float64               `json:"error_rate"`
	Metrics   map[string]metricStat `json:"metrics"`
	Layers    map[string]float64    `json:"per_layer,omitempty"`
	firstErr  error
}

type metricStat struct {
	Value    float64 `json:"value"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Measured float64 `json:"as_measured,omitempty"` // time-based metrics: the median before the host's slowdown was divided out
	Unit     string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in print order with their units.
// error_rate is printed and recorded too, but BENCHMARK.json carries it as
// the result line's failed/attempted: it is 0 on a healthy run, and a
// bounded metric must never be 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"qps", "stmt/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
	{"rows_scanned_per_op", "rows"},
}

type runConfig struct {
	seed    int64
	seconds float64 // total timed seconds, split over the rounds
	clients int
	sc      scale
}

// runWorkload measures one workload end to end with tracing off.
func runWorkload(w *workload, cfg runConfig) (*workloadResult, error) {
	ds, s, each, err := setUp(w, cfg.seed, cfg.sc, setups)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	return measure(w, cfg, ds, s, each)
}

// measure is everything after the set-up: reference checks, warm-up, the
// timed rounds, the closing tally, and the reduction to metric values.
func measure(w *workload, cfg runConfig, ds *dataset, s *sut, each []setupReading) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, Why: w.why, Rows: ds.rowCounts(), Setups: each}
	// fold adds one phase's outcome to the totals and keeps the first error.
	fold := func(attempted, failed int, err error) {
		res.Attempted += attempted
		res.Failed += failed
		if res.firstErr == nil {
			res.firstErr = err
		}
	}

	checks := w.checks(w, ds, cfg.seed, w.checksPer)
	res.Checks = len(checks)
	failed, err := runChecks(s.srv.Addr(), checks)
	fold(len(checks), failed, err)

	clients, err := dialClients(s.srv.Addr(), w.streams(w, ds, cfg.seed, cfg.clients), len(w.templates))
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)

	// Warm-up: caches fill and lazy set-up (row views, snapshots) finishes.
	// Its statements are checked and counted like any other; only its
	// timings are dropped.
	rr, err := runRound(s, w, clients, warmup)
	if rr.Attempted == 0 {
		return nil, err
	}
	fold(rr.Attempted, rr.Failed, err)
	roundLen := time.Duration(cfg.seconds / rounds * float64(time.Second))
	var slow, lat []float64
	perMetric, measured := map[string][]float64{}, map[string][]float64{}
	for _, su := range each {
		perMetric["setup_s"] = append(perMetric["setup_s"], su.Seconds)
		measured["setup_s"] = append(measured["setup_s"], su.Measured)
	}
	for r := 0; r < rounds; r++ {
		rr, err := runRound(s, w, clients, roundLen)
		if rr.Attempted == 0 {
			return nil, err
		}
		res.Rounds = append(res.Rounds, rr)
		fold(rr.Attempted, rr.Failed, err)
		_, wallSlow := rr.slowdown()
		slow = append(slow, wallSlow)
		lat = append(lat, rr.lat...)
		for k, v := range rr.Metrics {
			perMetric[k] = append(perMetric[k], v)
		}
		for k, v := range rr.Measured {
			measured[k] = append(measured[k], v)
		}
	}
	if w.tally != nil {
		failed, err := runTally(w, clients)
		fold(len(clients), failed, err)
	}

	res.Noisy = noisy(slow)
	res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	res.Metrics = map[string]metricStat{}
	for _, m := range endToEnd {
		lo, hi := minMax(perMetric[m.name])
		res.Metrics[m.name] = metricStat{Value: median(perMetric[m.name]), Min: lo, Max: hi, Measured: median(measured[m.name]), Unit: m.unit}
	}
	// The latency percentiles are taken over the samples of all rounds
	// together: one scan_heavy round holds under 50 statements, 5 beyond its
	// p90, and a percentile needs at least ten samples beyond it.
	sort.Float64s(lat)
	res.LatN = len(lat)
	res.BeyondP90 = len(lat) - int(float64(len(lat))*0.9+0.999999)
	for _, p := range []struct {
		name string
		p    float64
	}{{"lat_p50_ms", 50}, {"lat_p90_ms", 90}} {
		st := res.Metrics[p.name]
		st.Value = percentile(lat, p.p)
		res.Metrics[p.name] = st
	}
	return res, nil
}

func (r *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s  (%d reference checks, %d rounds)\n", r.Workload, r.Checks, len(r.Rounds))
	for _, m := range endToEnd {
		s := r.Metrics[m.name]
		fmt.Fprintf(out, "%-12s %-20s %14.4f %-7s (min %.4f, max %.4f", r.Workload, m.name, s.Value, m.unit, s.Min, s.Max)
		if s.Measured != 0 {
			fmt.Fprintf(out, "; as measured %.4f", s.Measured)
		}
		fmt.Fprintln(out, ")")
	}
	fmt.Fprintf(out, "%-12s %-20s %14.6f %-7s (%d failed of %d attempted)\n", r.Workload, "error_rate", r.ErrorRate, "fraction", r.Failed, r.Attempted)
	fmt.Fprintf(out, "%-12s latency samples over the %d rounds: %d (%d beyond p90)\n", r.Workload, len(r.Rounds), r.LatN, r.BeyondP90)
	var calib, steal []float64
	for _, rr := range r.Rounds {
		calib = append(calib, rr.CalibMs)
		steal = append(steal, rr.StealPct)
	}
	if len(calib) > 0 {
		lo, hi := minMax(calib)
		fmt.Fprintf(out, "%-12s %-20s %14.4f %-7s (min %.4f, max %.4f; %.1f on the quiet reference box)\n", r.Workload, "bench.calib_ms", median(calib), "ms", lo, hi, calibRefMs)
		lo, hi = minMax(steal)
		fmt.Fprintf(out, "%-12s %-20s %14.4f %-7s (min %.4f, max %.4f)\n", r.Workload, "bench.steal_pct", median(steal), "%", lo, hi)
	}
	if r.Noisy {
		fmt.Fprintf(out, "%-12s noisy: the host's speed varied more than 10 %% across rounds\n", r.Workload)
	}
	if r.firstErr != nil {
		fmt.Fprintf(out, "%-12s FIRST ERROR: %v\n", r.Workload, r.firstErr)
	}
}
