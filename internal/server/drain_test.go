package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"partopt/internal/fault"
)

// The drain acceptance criterion: a SIGTERM-style Shutdown lets every
// in-flight query finish and answer correctly (zero dropped), refuses new
// connections with a retryable error while draining, and leaves no
// goroutines behind.
func TestGracefulDrainInflightCompletes(t *testing.T) {
	eng := testEngine(t)
	// Golden answer before any fault slows things down.
	golden, err := eng.Query("SELECT sum(amount) FROM orders")
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	want := golden.Data[0][0].String()

	// Every slice start stalls 500ms, so the query is reliably in flight
	// when the drain starts — and still completes well inside the deadline.
	inj := fault.NewInjector(1)
	inj.Arm(fault.Rule{Point: fault.SliceStart, Kind: fault.KindDelay, Seg: fault.AnySeg, Prob: 1, Delay: 500 * time.Millisecond})
	eng.SetFaults(inj)

	before := runtime.NumGoroutine()
	srv := New(eng, Config{Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	healthURL := "http://" + srv.HTTPAddr() + "/healthz"
	if code := httpStatus(t, healthURL); code != http.StatusOK {
		t.Fatalf("/healthz before drain = %d", code)
	}

	c, err := Dial(srv.Addr(), 30*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	type res struct {
		r   *Response
		err error
	}
	resCh := make(chan res, 1)
	go func() { r, err := c.Send("SELECT sum(amount) FROM orders"); resCh <- res{r, err} }()
	waitFor(t, 10*time.Second, func() bool { return srv.InflightQueries() == 1 })

	shutCh := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutCh <- srv.Shutdown(ctx) }()
	waitFor(t, 5*time.Second, func() bool { return srv.Draining() })

	// While draining: health flips, new connections are refused retryably.
	if code := httpStatus(t, healthURL); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz during drain = %d, want 503", code)
	}
	_, err = Dial(srv.Addr(), 5*time.Second)
	var re *RefusedError
	if !errors.As(err, &re) {
		t.Fatalf("Dial during drain = %v, want RefusedError", err)
	}
	if re.Resp.Code != CodeDraining || !re.Retryable() {
		t.Fatalf("drain refusal = %q retryable=%v", re.Resp.Header, re.Retryable())
	}

	// The in-flight query completes with the correct answer: not dropped,
	// not cancelled.
	got := <-resCh
	if got.err != nil {
		t.Fatalf("in-flight query errored during drain: %v", got.err)
	}
	if got.r.IsErr() {
		t.Fatalf("in-flight query failed during drain: %q", got.r.Header)
	}
	rows := got.r.DataRows()
	if len(rows) != 1 || rows[0][0] != want {
		t.Fatalf("in-flight query answered %v during drain, want [[%s]]", rows, want)
	}

	if err := <-shutCh; err != nil {
		t.Fatalf("Shutdown: %v (no query should have needed cancelling)", err)
	}
	c.Close()
	waitNoGoroutineLeak(t, before)
}

// When the drain deadline passes, stragglers are cancelled — and their
// clients hear about it with a structured CANCELED error, not a severed
// connection.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	eng := testEngine(t)
	inj := fault.NewInjector(1)
	inj.Arm(fault.Rule{Point: fault.SliceStart, Kind: fault.KindDelay, Seg: fault.AnySeg, Prob: 1, Delay: 30 * time.Second})
	eng.SetFaults(inj)

	before := runtime.NumGoroutine()
	srv := New(eng, Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	c, err := Dial(srv.Addr(), 60*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	type res struct {
		r   *Response
		err error
	}
	resCh := make(chan res, 1)
	go func() { r, err := c.Send("SELECT count(*) FROM orders"); resCh <- res{r, err} }()
	waitFor(t, 10*time.Second, func() bool { return srv.InflightQueries() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}

	got := <-resCh
	if got.err != nil {
		t.Fatalf("straggler client lost its connection: %v", got.err)
	}
	if !got.r.IsErr() || got.r.Code != CodeCanceled {
		t.Fatalf("straggler response = %q, want %s", got.r.Header, CodeCanceled)
	}
	c.Close()
	waitNoGoroutineLeak(t, before)
}

// Idle sessions must not stall the drain for their idle timeout: the nudge
// (and the drain poll cap) wake them, they get the retryable drain error,
// and Shutdown returns promptly.
func TestDrainWakesIdleSessionsPromptly(t *testing.T) {
	eng := testEngine(t)
	before := runtime.NumGoroutine()
	srv := New(eng, Config{Addr: "127.0.0.1:0", IdleTimeout: time.Hour})
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	var idle [3]*Client
	for i := range idle {
		c, err := Dial(srv.Addr(), 10*time.Second)
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		idle[i] = c
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("drain of idle sessions took %v (idle timeout is 1h — the nudge failed)", elapsed)
	}

	// Each idle client was told the server is going away, retryably.
	for i, c := range idle {
		r, err := c.readResponse()
		if err != nil {
			t.Fatalf("idle client %d: %v", i, err)
		}
		if !r.IsErr() || r.Code != CodeDraining || !r.Retryable() {
			t.Fatalf("idle client %d got %q, want retryable %s", i, r.Header, CodeDraining)
		}
		c.Close()
	}
	waitNoGoroutineLeak(t, before)
}

// Shutdown is idempotent and safe to race: concurrent calls share one
// drain and all return.
func TestShutdownIdempotent(t *testing.T) {
	srv := New(testEngine(t), Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs <- srv.Shutdown(ctx)
		}()
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Shutdown %d: %v", i, err)
		}
	}
	if n := srv.OpenSessions(); n != 0 {
		t.Fatalf("sessions after shutdown: %d", n)
	}
}

func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// /statz serves a coherent snapshot the doctor can consume.
func TestStatzSnapshot(t *testing.T) {
	eng := testEngine(t)
	srv := startServer(t, eng, Config{})
	c := dial(t, srv)
	send(t, c, "SELECT count(*) FROM orders")

	st, err := srv.BuildStatz()
	if err != nil {
		t.Fatalf("BuildStatz: %v", err)
	}
	if st.Server.Segments != 4 || st.Server.OpenSessions != 1 || st.Server.Draining {
		t.Fatalf("server block: %+v", st.Server)
	}
	if st.Server.Goroutines <= 0 || st.Server.HeapBytes <= 0 {
		t.Fatalf("process gauges not sampled: %+v", st.Server)
	}
	var orders bool
	for _, tab := range st.Tables {
		if tab.Table == "orders" {
			orders = true
			if len(tab.Leaves) != 12 {
				t.Fatalf("orders leaves = %d, want 12", len(tab.Leaves))
			}
			if tab.Total != 60 {
				t.Fatalf("orders total = %d, want 60", tab.Total)
			}
		}
	}
	if !orders {
		t.Fatal("statz lacks the orders table")
	}
	if st.Counters["server_statements_total"] < 1 {
		t.Fatalf("counters not merged: %v", st.Counters)
	}
}

// The plan_cache block of the /statz JSON has exactly these keys: the
// shared cache counters are embedded in PlanCacheStats, and embedding must
// keep them flat beside Optimizations.
func TestStatzPlanCacheKeys(t *testing.T) {
	eng := testEngine(t)
	srv := startServer(t, eng, Config{HTTPAddr: "127.0.0.1:0"})
	resp, err := http.Get("http://" + srv.HTTPAddr() + "/statz")
	if err != nil {
		t.Fatalf("GET /statz: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		PlanCache map[string]json.RawMessage `json:"plan_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /statz: %v", err)
	}
	var keys []string
	for k := range body.PlanCache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"Capacity", "Entries", "Epoch", "Evictions", "Hits", "Invalidations", "Misses", "Optimizations"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("plan_cache keys = %v, want %v", keys, want)
	}
}
