package server

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"partopt"
	"partopt/internal/fault"
)

// testEngine builds a small partitioned orders table (the plan-cache
// fixture's shape) so sessions have something real to query.
func testEngine(t *testing.T) *partopt.Engine {
	t.Helper()
	eng, err := partopt.New(4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.SetSpillDir(t.TempDir())
	eng.MustCreateTable("orders",
		partopt.Columns("id", partopt.TypeInt, "amount", partopt.TypeFloat, "date", partopt.TypeDate),
		partopt.DistributedBy("id"),
		partopt.PartitionByRangeMonthly("date", 2013, 1, 12))
	id := 0
	for m := 1; m <= 12; m++ {
		for d := 1; d <= 5; d++ {
			id++
			if err := eng.Insert("orders", partopt.Int(int64(id)), partopt.Float(float64(m*d)), partopt.Date(2013, m, d)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
	}
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return eng
}

// startServer runs a server on ephemeral ports, closed with the test.
func startServer(t *testing.T, eng *partopt.Engine, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv := New(eng, cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), 10*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func send(t *testing.T, c *Client, stmt string) *Response {
	t.Helper()
	r, err := c.Send(stmt)
	if err != nil {
		t.Fatalf("Send(%q): %v", stmt, err)
	}
	return r
}

// waitNoGoroutineLeak waits for the goroutine count to settle back to the
// pre-run baseline (the chaos suite's idiom), failing with a stack dump.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSessionBasics(t *testing.T) {
	srv := startServer(t, testEngine(t), Config{})
	c := dial(t, srv)

	if c.Greeting.Kind != "READY" || !strings.Contains(c.Greeting.Header, "segments=4") {
		t.Fatalf("greeting = %q", c.Greeting.Header)
	}
	if r := send(t, c, "PING"); r.Header != "OK pong" {
		t.Fatalf("PING = %q", r.Header)
	}
	r := send(t, c, "SELECT amount FROM orders WHERE id = 7")
	if r.Kind != "ROWS" || r.N != 1 || len(r.DataRows()) != 1 {
		t.Fatalf("SELECT = %q (%d data rows)", r.Header, len(r.DataRows()))
	}
	// The STAT trailer carries execution metrics.
	if last := r.Lines[len(r.Lines)-1]; !strings.HasPrefix(last, "STAT elapsed_us=") {
		t.Fatalf("missing STAT trailer, got %q", last)
	}
	if r := send(t, c, `\tables`); r.Kind != "TEXT" || !strings.Contains(strings.Join(r.Lines, "\n"), "orders") {
		t.Fatalf("\\tables = %q %v", r.Header, r.Lines)
	}
	if r := send(t, c, `\cache`); r.Kind != "TEXT" || !strings.Contains(strings.Join(r.Lines, "\n"), "plan cache") {
		t.Fatalf("\\cache = %q %v", r.Header, r.Lines)
	}
	if r := send(t, c, `\metrics`); r.Kind != "TEXT" || !strings.Contains(strings.Join(r.Lines, "\n"), "server_statements_total") {
		t.Fatalf("\\metrics lacks server counters: %q", r.Header)
	}
	if r := send(t, c, "EXPLAIN SELECT amount FROM orders WHERE date = '2013-03-03'"); r.Kind != "TEXT" {
		t.Fatalf("EXPLAIN = %q", r.Header)
	}
	if r := send(t, c, "EXPLAIN ANALYZE SELECT count(*) FROM orders"); r.Kind != "TEXT" {
		t.Fatalf("EXPLAIN ANALYZE = %q", r.Header)
	}
	if r := send(t, c, "UPDATE orders SET amount = amount + 0 WHERE id = 1"); !strings.HasPrefix(r.Header, "OK ") {
		t.Fatalf("UPDATE = %q", r.Header)
	}
	if r := send(t, c, "SELECT FROM nothing WHERE"); !r.IsErr() {
		t.Fatalf("bad SQL answered %q", r.Header)
	}
	// A dot-only result line must round-trip through dot-stuffing: the
	// frame terminator stays unambiguous.
	if r := send(t, c, "EXPLAIN SELECT id FROM orders"); r.IsErr() {
		t.Fatalf("EXPLAIN = %q", r.Header)
	}
	if r := send(t, c, `\q`); r.Header != "OK bye" {
		t.Fatalf("\\q = %q", r.Header)
	}
	if _, err := c.Send("PING"); err == nil {
		t.Fatal("session still alive after \\q")
	}
}

// TestParseArgs pins EXECUTE's argument syntax: a quoted string runs to its
// closing quote (separators included, a doubled quote a literal one), NULL
// in any case is the NULL value, and an unterminated quote or a bare word
// is an error.
func TestParseArgs(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []partopt.Value // nil with err set: must fail
		err  bool
	}{
		{in: "'New York'", want: []partopt.Value{partopt.String("New York")}},
		{in: "'a,b'", want: []partopt.Value{partopt.String("a,b")}},
		{in: "'it''s'", want: []partopt.Value{partopt.String("it's")}},
		{in: "''", want: []partopt.Value{partopt.String("")}},
		{in: "null", want: []partopt.Value{partopt.Null}},
		{in: "2013-05-05", want: []partopt.Value{partopt.Date(2013, 5, 5)}},
		{in: "-3", want: []partopt.Value{partopt.Int(-3)}},
		{in: "1.5e3", want: []partopt.Value{partopt.Float(1500)}},
		{in: "7, 'a b',NULL  2.5", want: []partopt.Value{partopt.Int(7), partopt.String("a b"), partopt.Null, partopt.Float(2.5)}},
		{in: "'x", err: true},
		{in: "'x' extra", err: true},
		{in: "'x'y", err: true},
	} {
		got, err := ParseArgs(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseArgs(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseArgs(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseArgs(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i].IsNull() != c.want[i].IsNull() || got[i].Type() != c.want[i].Type() || got[i].String() != c.want[i].String() {
				t.Errorf("ParseArgs(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestPrepareExecuteLifecycle(t *testing.T) {
	srv := startServer(t, testEngine(t), Config{MaxPrepared: 2})
	c := dial(t, srv)

	r := send(t, c, "PREPARE q1 AS SELECT amount FROM orders WHERE id = $1")
	if !strings.HasPrefix(r.Header, "OK prepared q1") {
		t.Fatalf("PREPARE = %q", r.Header)
	}
	if len(r.Lines) == 0 || !strings.HasPrefix(r.Lines[0], "FINGERPRINT ") {
		t.Fatalf("PREPARE payload lacks fingerprint: %v", r.Lines)
	}
	if r := send(t, c, "EXECUTE q1 7"); r.Kind != "ROWS" || r.N != 1 {
		t.Fatalf("EXECUTE = %q", r.Header)
	}
	if r := send(t, c, "EXECUTE nosuch 1"); !r.IsErr() || r.Code != CodeProto {
		t.Fatalf("EXECUTE unknown = %q", r.Header)
	}
	if r := send(t, c, "EXECUTE q1 'not-an-int' extra"); !r.IsErr() {
		t.Fatalf("EXECUTE bad args = %q", r.Header)
	}
	// Cap: one slot left, re-preparing an existing name is free.
	send(t, c, "PREPARE q2 AS SELECT count(*) FROM orders")
	if r := send(t, c, "PREPARE q3 AS SELECT count(*) FROM orders"); !r.IsErr() || r.Code != CodeProto {
		t.Fatalf("PREPARE over cap = %q", r.Header)
	}
	if r := send(t, c, "PREPARE q1 AS SELECT id FROM orders WHERE id = $1"); r.IsErr() {
		t.Fatalf("re-PREPARE = %q", r.Header)
	}
	if r := send(t, c, "DEALLOCATE q1"); !strings.HasPrefix(r.Header, "OK") {
		t.Fatalf("DEALLOCATE = %q", r.Header)
	}
	if r := send(t, c, "EXECUTE q1 1"); !r.IsErr() || r.Code != CodeProto {
		t.Fatalf("EXECUTE after DEALLOCATE = %q", r.Header)
	}
	if r := send(t, c, "PREPARE broken AS SELECT FROM"); !r.IsErr() || r.Code != CodeParse {
		t.Fatalf("PREPARE bad SQL = %q", r.Header)
	}
	// A prepared DML statement runs through EXECUTE and reports its count.
	if r := send(t, c, "PREPARE del AS DELETE FROM orders WHERE id = $1"); r.IsErr() {
		t.Fatalf("PREPARE DELETE = %q", r.Header)
	}
	if r := send(t, c, "EXECUTE del 7"); r.Header != "OK 1" {
		t.Fatalf("EXECUTE DELETE = %q", r.Header)
	}
}

// Two sessions preparing the same statement text share one cached plan:
// identical fingerprints, and the second session's EXECUTE is a cache hit.
func TestPreparedStatementsSharePlanCache(t *testing.T) {
	eng := testEngine(t)
	srv := startServer(t, eng, Config{})
	c1, c2 := dial(t, srv), dial(t, srv)

	const prep = "AS SELECT amount FROM orders WHERE id = $1"
	r1 := send(t, c1, "PREPARE p "+prep)
	r2 := send(t, c2, "PREPARE p "+prep)
	if r1.IsErr() || r2.IsErr() {
		t.Fatalf("PREPARE: %q / %q", r1.Header, r2.Header)
	}
	if r1.Lines[0] != r2.Lines[0] {
		t.Fatalf("fingerprints differ across sessions: %q vs %q", r1.Lines[0], r2.Lines[0])
	}
	send(t, c1, "EXECUTE p 3")
	before := eng.PlanCacheStats()
	send(t, c2, "EXECUTE p 9")
	after := eng.PlanCacheStats()
	if after.Optimizations != before.Optimizations {
		t.Fatalf("second session's EXECUTE re-optimized (%d -> %d)", before.Optimizations, after.Optimizations)
	}
}

func TestConnectionCapRefusesRetryable(t *testing.T) {
	srv := startServer(t, testEngine(t), Config{MaxSessions: 1})
	c1 := dial(t, srv)
	send(t, c1, "PING") // session is fully up

	_, err := Dial(srv.Addr(), 5*time.Second)
	var re *RefusedError
	if !errors.As(err, &re) {
		t.Fatalf("second Dial = %v, want RefusedError", err)
	}
	if re.Resp.Code != CodeTooBusy || !re.Retryable() {
		t.Fatalf("refusal = %q retryable=%v, want %s retryable", re.Resp.Header, re.Retryable(), CodeTooBusy)
	}

	// Freeing the slot re-admits.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := Dial(srv.Addr(), 5*time.Second)
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Overload shedding: with a concurrency bound of 1 and MaxQueued 1, a
// statement arriving while one query runs and another waits is refused
// with retryable TOO_BUSY in O(1) — it never enters the admission queue.
func TestOverloadShedding(t *testing.T) {
	eng := testEngine(t)
	eng.SetMaxConcurrent(1)
	inj := fault.NewInjector(1)
	inj.Arm(fault.Rule{Point: fault.SliceStart, Kind: fault.KindDelay, Seg: fault.AnySeg, Prob: 1, Delay: 1500 * time.Millisecond})
	eng.SetFaults(inj)
	srv := startServer(t, eng, Config{MaxQueued: 1})

	cA, cB, cC := dial(t, srv), dial(t, srv), dial(t, srv)
	type res struct {
		r   *Response
		err error
	}
	resA, resB := make(chan res, 1), make(chan res, 1)
	go func() { r, err := cA.Send("SELECT count(*) FROM orders"); resA <- res{r, err} }()
	// Wait until A holds the slot, then park B in the queue.
	waitFor(t, 5*time.Second, func() bool { return eng.AdmissionState().Active >= 1 })
	go func() { r, err := cB.Send("SELECT sum(amount) FROM orders"); resB <- res{r, err} }()
	waitFor(t, 5*time.Second, func() bool { return eng.AdmissionState().Waiting >= 1 })

	r := send(t, cC, "SELECT count(*) FROM orders")
	if !r.IsErr() || r.Code != CodeTooBusy || !r.Retryable() {
		t.Fatalf("shed response = %q, want retryable %s", r.Header, CodeTooBusy)
	}
	if got := eng.Obs().Counter("server_queries_shed_total").Value(); got < 1 {
		t.Fatalf("server_queries_shed_total = %d, want >= 1", got)
	}
	// The queued and running statements still answer correctly.
	for name, ch := range map[string]chan res{"A": resA, "B": resB} {
		select {
		case got := <-ch:
			if got.err != nil || got.r.IsErr() {
				t.Fatalf("client %s: err=%v resp=%v", name, got.err, got.r)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("client %s never answered", name)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A panic inside one session must not take down the server: the session
// dies with a logged, counted panic; new sessions serve normally.
func TestSessionPanicIsolation(t *testing.T) {
	eng := testEngine(t)
	inj := fault.NewInjector(1)
	// Fire once, on the second read of whichever session gets there first.
	inj.Arm(fault.Rule{Point: fault.ConnRead, Kind: fault.KindPanic, Seg: fault.AnySeg, After: 1, Once: true})
	srv := startServer(t, eng, Config{Faults: inj})

	c1 := dial(t, srv)
	send(t, c1, "PING") // read #1 consumed this statement; read #2 panics
	if _, err := c1.Send("PING"); err == nil {
		t.Fatal("session survived an injected panic")
	}
	if got := eng.Obs().Counter("server_session_panics_total").Value(); got != 1 {
		t.Fatalf("server_session_panics_total = %d, want 1", got)
	}

	c2 := dial(t, srv)
	if r := send(t, c2, "PING"); r.Header != "OK pong" {
		t.Fatalf("server unhealthy after isolated panic: %q", r.Header)
	}
	if r := send(t, c2, "SELECT count(*) FROM orders"); r.IsErr() {
		t.Fatalf("query after isolated panic: %q", r.Header)
	}
}

func TestIdleTimeoutClosesSession(t *testing.T) {
	srv := startServer(t, testEngine(t), Config{IdleTimeout: 100 * time.Millisecond})
	c := dial(t, srv)
	r, err := c.readResponse() // no statement sent: wait for the server's verdict
	if err != nil {
		t.Fatalf("reading idle-timeout response: %v", err)
	}
	if !r.IsErr() || r.Code != CodeTimeout {
		t.Fatalf("idle response = %q, want %s", r.Header, CodeTimeout)
	}
}

func TestOversizedStatementRefused(t *testing.T) {
	srv := startServer(t, testEngine(t), Config{})
	c := dial(t, srv)
	r, err := c.Send("SELECT " + strings.Repeat("x", maxLineLen+1))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !r.IsErr() || r.Code != CodeProto {
		t.Fatalf("oversized statement = %q, want %s", r.Header, CodeProto)
	}
}

func TestDotStuffingRoundTrip(t *testing.T) {
	// A payload whose physical lines start with "." must survive framing.
	for _, payload := range [][]string{
		{".", "..", "a"},
		{"multi\n.line\n..payload"},
		{""},
	} {
		var sb strings.Builder
		bw := bufio.NewWriter(&sb)
		if err := writeResponse(bw, "TEXT", payload); err != nil {
			t.Fatalf("writeResponse: %v", err)
		}
		bw.Flush()
		out := sb.String()
		if !strings.HasSuffix(out, "\n.\n") {
			t.Fatalf("frame not terminated: %q", out)
		}
		for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n")[1:] {
			if line == "." {
				continue // terminator
			}
			if strings.HasPrefix(line, ".") && !strings.HasPrefix(line, "..") {
				t.Fatalf("unstuffed payload line %q in frame %q", line, out)
			}
		}
	}
}

func TestMetricsRegistered(t *testing.T) {
	eng := testEngine(t)
	srv := startServer(t, eng, Config{})
	c := dial(t, srv)
	send(t, c, "PING")
	srv.proc.Sample()
	m := eng.Metrics()
	for _, name := range []string{
		"server_sessions_total", "server_statements_total",
		"process_goroutines", "process_uptime_seconds", "server_open_sessions",
	} {
		if !strings.Contains(m, name) {
			t.Errorf("metrics exposition lacks %s", name)
		}
	}
}
