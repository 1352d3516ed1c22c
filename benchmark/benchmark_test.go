package main

import (
	"math"
	"reflect"
	"testing"

	"partopt/internal/server"
)

// testScale loads every table shape at 2 000 rows, so the whole file runs
// in a few seconds.
var testScale = scale{lineitem: 2000, sales: 2000, adhoc: 2000, orders: 2000}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a := newDataset(w.tables(7, testScale)...)
		b := newDataset(w.tables(7, testScale)...)
		c := newDataset(w.tables(8, testScale)...)
		differs := false
		for i := range a.tables {
			if a.tables[i].checksum() != b.tables[i].checksum() {
				t.Errorf("%s: table %s differs between two generations of seed 7", w.name, a.tables[i].name)
			}
			if a.tables[i].checksum() != c.tables[i].checksum() {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated identical tables", w.name)
		}
		sa, sb, sc := w.streams(w, a, 7, 2), w.streams(w, b, 7, 2), w.streams(w, c, 8, 2)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: seed 7 generated two different statement streams", w.name)
		}
		if reflect.DeepEqual(sa, sc) {
			t.Errorf("%s: seeds 7 and 8 generated the same statement streams", w.name)
		}
		if reflect.DeepEqual(sa[0], sa[1]) {
			t.Errorf("%s: both clients got the same stream", w.name)
		}
	}
}

func TestBalancedRowsPerKey(t *testing.T) {
	// The rows a template scans must not depend on the seed: every ship day
	// holds the same number of rows (+-1) under any seed.
	for _, seed := range []int64{1, 2} {
		li := genLineitem(seed, 10*liDays+3, "lineitem", true)
		counts := make([]int, liDays)
		for _, d := range li.col("l_shipdate").i {
			counts[d-liBaseDay]++
		}
		for d, n := range counts {
			if n != 10 && n != 11 {
				t.Fatalf("seed %d: day %d holds %d rows, want 10 or 11", seed, d, n)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median(5,1,9) = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
	// The reported value of a metric is the median of its per-round values:
	// one stalled round must not move it.
	if got := median([]float64{10.1, 10.0, 31.0, 9.9, 10.2}); got != 10.1 {
		t.Errorf("median of rounds = %g, want 10.1", got)
	}
	if got := spread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread(9,10,11) = %g, want 0.2", got)
	}
	if !noisy([]float64{50, 50, 56, 50, 50}) || noisy([]float64{50, 51, 52, 50, 49}) {
		t.Error("noisy must flag a slowdown spread above 10 % and only that")
	}
}

func TestHostSlowdown(t *testing.T) {
	// Twice the reference calibration time and half the CPU time stolen:
	// CPU work took twice as long, wall-clock work four times.
	if cpu, wall := (hostLoad{CalibMs: 2 * calibRefMs, StealPct: 50}).slowdown(); cpu != 2 || wall != 4 {
		t.Errorf("slowdown = %g, %g; want 2, 4", cpu, wall)
	}
	if cpu, wall := (hostLoad{}).slowdown(); cpu != 1 || wall != 1 {
		t.Errorf("slowdown of an unreadable host = %g, %g; want 1, 1", cpu, wall)
	}
	if steal, total := procStatTicks(); total <= 0 || steal < 0 || steal > total {
		t.Errorf("procStatTicks = %d, %d", steal, total)
	}
	if ms := calibrate(); ms <= 0 {
		t.Errorf("calibrate = %g ms", ms)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// One statement: wire 100, engine 80 (child of wire), rig spans 10 + 60
	// (children of engine).
	spans := []span{
		{ID: 0, Parent: -1, Name: "wire", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "engine", StartNs: 200, EndNs: 280},
		{ID: 2, Parent: 1, Name: "orca.optimize", StartNs: 300, EndNs: 310},
		{ID: 3, Parent: 1, Name: "exec.run", StartNs: 310, EndNs: 370},
	}
	if got, want := selfTimes(spans), []int64{20, 10, 10, 60}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	sh := replayShares(spans)
	if sh.wireSelfNs != 20 || sh.execPct != 75 || sh.orcaPct != 12.5 || sh.unattributedPct != 12.5 {
		t.Errorf("replayShares = %+v, want wire self 20, exec 75 %%, orca 12.5 %%, unattributed 12.5 %%", sh)
	}
}

func TestMatchRows(t *testing.T) {
	want := [][]cell{{ci(2), cf(10.5)}, {ci(1), cf(1e9)}}
	if err := matchRows(want, [][]string{{"1", "1.0000000001e+09"}, {"2", "10.5"}}); err != nil {
		t.Errorf("rows in another order, float within tolerance: %v", err)
	}
	if err := matchRows(want, [][]string{{"1", "1.00001e+09"}, {"2", "10.5"}}); err == nil {
		t.Error("a float 1e-5 off must not match")
	}
	if err := matchRows(want, [][]string{{"2", "10.5"}}); err == nil {
		t.Error("a missing row must not match")
	}
	if err := matchRows([][]cell{{cstr("s1"), cnull}}, [][]string{{"'s1'", "NULL"}}); err != nil {
		t.Errorf("string and NULL cells: %v", err)
	}
}

func TestStatTrailerAndResponseCheck(t *testing.T) {
	r := &server.Response{Header: "ROWS 1", Kind: "ROWS", N: 1, Lines: []string{"count", "7",
		"STAT elapsed_us=12 plan_bytes=300 rows_scanned=2737 rows_moved=4 spilled_bytes=0"}}
	if n, ok := statRowsScanned(r); !ok || n != 2737 {
		t.Errorf("statRowsScanned = %d, %v; want 2737, true", n, ok)
	}
	if err := checkResponse(&stmt{want: 1}, r); err != nil {
		t.Errorf("matching ROWS response: %v", err)
	}
	if checkResponse(&stmt{want: 2}, r) == nil {
		t.Error("a ROWS response with the wrong row count must fail")
	}
	if checkResponse(&stmt{dml: true, want: 1}, &server.Response{Header: "OK 0", Kind: "OK"}) == nil {
		t.Error("a DML that affected 0 rows instead of 1 must fail")
	}
	if checkResponse(&stmt{want: -1}, &server.Response{Header: "ERR EXEC boom", Kind: "ERR", Code: "EXEC"}) == nil {
		t.Error("an ERR response must fail")
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"latency 20 % up", []float64{120, 121, 119}, false, "worse"},
		{"latency 20 % down", []float64{80, 81, 79}, false, "better"},
		{"latency within bound", []float64{103, 100, 104}, false, "same"},
		{"throughput 20 % down", []float64{80, 81, 79}, true, "worse"},
		{"throughput 20 % up", []float64{120, 121, 119}, true, "better"},
		{"spread wider than bound", []float64{90, 101, 112}, false, "unresolved"},
	} {
		if got, _ := verdict(a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesOtherSettings(t *testing.T) {
	a := resultFile{Conditions: conditions{Segments: 4, Clients: 2, Rounds: 5, RoundSeconds: 2.4, Seed: 1, NumCPU: 2}}
	b := a
	b.Conditions.Seed, b.Conditions.NumCPU = 11, 8
	if err := sameSettings([]resultFile{a, b}); err != nil {
		t.Errorf("another seed on another host must compare: %v", err)
	}
	b.Conditions.RoundSeconds = 5
	if sameSettings([]resultFile{a, a, b}) == nil {
		t.Error("results of 2.4 s and 5 s rounds must not compare")
	}
}

// TestWarmupFailuresCount measures a workload whose first statement
// expects the wrong row count. adhoc_plan never replays a statement, so the
// warm-up is the only round that sends it: the failure must still reach the
// totals that decide `correct` and the exit code.
func TestWarmupFailuresCount(t *testing.T) {
	t.Parallel()
	w := *adhocPlan
	w.checksPer = 1 // the reference checks have a test of their own
	w.streams = func(_ *workload, ds *dataset, seed int64, clients int) [][]stmt {
		out := adhocPlan.streams(adhocPlan, ds, seed, clients)
		out[0][0].want = 99
		return out
	}
	ds, s, each, err := setUp(&w, 3, testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	res, err := measure(&w, runConfig{seed: 3, seconds: 0.5, clients: 2, sc: testScale}, ds, s, each)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.firstErr == nil || res.line(false).Correct {
		t.Errorf("failed = %d, first error %v, correct %v; want the warm-up's one wrong answer counted", res.Failed, res.firstErr, res.line(false).Correct)
	}
	if res.LatN < 10 || res.BeyondP90 < 1 || res.Metrics["lat_p90_ms"].Value < res.Metrics["lat_p50_ms"].Value {
		t.Errorf("pooled latency: %d samples, %d beyond p90, p50 %g, p90 %g", res.LatN, res.BeyondP90,
			res.Metrics["lat_p50_ms"].Value, res.Metrics["lat_p90_ms"].Value)
	}
}

// TestReferenceAndRigAgreeWithEngine loads every workload at the 2 000-row
// scale and checks the engine three ways: the reference evaluator's answers
// over the wire, a short closed-loop round with the closing tally, and the
// trace rig's rows against the engine's on the first statements of the
// stream.
func TestReferenceAndRigAgreeWithEngine(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			checkWorkload(t, w)
		})
	}
}

func checkWorkload(t *testing.T, w *workload) {
	ds, s, _, err := setUp(w, 3, testScale, 1)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	defer s.stop()
	checks := w.checks(w, ds, 3, 3)
	if failed, err := runChecks(s.srv.Addr(), checks); failed > 0 {
		t.Errorf("%s: %d of %d reference checks failed: %v", w.name, failed, len(checks), err)
	}

	streams := w.streams(w, ds, 3, 3)
	for i := range streams {
		streams[i] = streams[i][:min(len(streams[i]), 400)]
	}
	clients, err := dialClients(s.srv.Addr(), streams[:2], len(w.templates))
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	for _, c := range clients {
		for i := 0; i < 60; i++ {
			st := &c.stream[i]
			resp, err := c.conn.Send(st.sql)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if err := checkResponse(st, resp); err != nil {
				t.Errorf("%s: %v\n  %s", w.name, err, st.sql)
				continue
			}
			c.done[st.tmpl]++
		}
	}
	if w.tally != nil {
		if failed, err := runTally(w, clients); failed > 0 {
			t.Errorf("%s: closing tally: %v", w.name, err)
		}
	}
	closeClients(clients)

	engDepth := s.eng
	if !w.restart {
		s2, err := startSUT(ds)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		defer s2.stop()
		engDepth = s2.eng
	}
	g, err := newRig(ds, w.probes.fact)
	if err != nil {
		t.Fatalf("%s: rig: %v", w.name, err)
	}
	rp, err := replayTraced(w, s, engDepth, g, streams[2][:40])
	if err != nil {
		t.Fatalf("%s: replay: %v", w.name, err)
	}
	for _, e := range rp.fails {
		t.Errorf("%s: %v", w.name, e)
	}
	if rp.execs == 0 {
		t.Errorf("%s: the rig executed no plan", w.name)
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the program in
// step: the same workloads, the same metric names with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	pairs := func(in []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range in {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e := map[string]string{}
	for _, m := range endToEnd {
		e2e[m.name] = m.unit
	}
	if got := pairs(spec.EndToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", got, e2e)
	}
	layers := map[string]string{}
	for _, m := range layerUnits {
		layers[m.name] = m.unit
	}
	if got := pairs(spec.PerLayer); !reflect.DeepEqual(got, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, layers)
	}
}
