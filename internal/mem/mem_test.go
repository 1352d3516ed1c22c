package mem

import (
	"context"
	"errors"
	"io"
	"os"
	"testing"
	"time"

	"partopt/internal/fault"
	"partopt/internal/types"
)

func TestNilGovernorAndBudgetAreInert(t *testing.T) {
	var g *Governor
	if waited, err := g.Admit(context.Background()); err != nil || waited {
		t.Fatalf("nil Admit: waited=%v err=%v", waited, err)
	}
	g.Leave()
	b := g.NewBudget()
	if b != nil {
		t.Fatalf("nil governor produced a budget")
	}
	if err := b.Reserve(context.Background(), 0, 1<<40); err != nil {
		t.Fatalf("nil budget denied: %v", err)
	}
	if err := b.ReserveHard(context.Background(), 0, 1<<40); err != nil {
		t.Fatalf("nil budget hard-denied: %v", err)
	}
	b.Account(1)
	b.Release(1)
	if err := b.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestReserveSpillThresholdAndRelease(t *testing.T) {
	g := NewGovernor(Config{Total: 1000, WorkMem: 100})
	b := g.NewBudget()
	defer b.Close()
	ctx := context.Background()
	if err := b.Reserve(ctx, 0, 80); err != nil {
		t.Fatalf("within work_mem denied: %v", err)
	}
	err := b.Reserve(ctx, 0, 30)
	if err == nil {
		t.Fatalf("over work_mem granted")
	}
	var oom *OOMError
	if !errors.As(err, &oom) || oom.Scope != "query" {
		t.Fatalf("denial not a query-scope OOMError: %v", err)
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("denial does not match ErrOutOfMemory")
	}
	// A hard reservation ignores work_mem but honours the total.
	if err := b.ReserveHard(ctx, 0, 30); err != nil {
		t.Fatalf("hard reserve within total denied: %v", err)
	}
	err = b.ReserveHard(ctx, 0, 1000)
	if !errors.As(err, &oom) || oom.Scope != "engine" {
		t.Fatalf("global exhaustion not an engine-scope OOMError: %v", err)
	}
	b.Release(110)
	if got := b.Used(); got != 0 {
		t.Fatalf("used after full release = %d", got)
	}
	if got := g.Used(); got != 0 {
		t.Fatalf("governor used after release = %d", got)
	}
}

func TestWorkMemDefaultsToFairShare(t *testing.T) {
	g := NewGovernor(Config{Total: 1000, MaxConcurrent: 4})
	if g.workMem != 250 {
		t.Fatalf("fair share = %d, want 250", g.workMem)
	}
	g = NewGovernor(Config{Total: 1000})
	if g.workMem != 1000 {
		t.Fatalf("unbounded-admission share = %d, want 1000", g.workMem)
	}
}

func TestBudgetCloseReturnsEverything(t *testing.T) {
	g := NewGovernor(Config{Total: 1000})
	b := g.NewBudget()
	if err := b.Reserve(context.Background(), 0, 600); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	b.Account(100)
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := g.Used(); got != 0 {
		t.Fatalf("governor used after budget close = %d", got)
	}
	// A second query gets the whole budget back.
	b2 := g.NewBudget()
	defer b2.Close()
	if err := b2.Reserve(context.Background(), 0, 900); err != nil {
		t.Fatalf("budget not returned: %v", err)
	}
}

func TestInjectedDenialCarriesCauseAndTransience(t *testing.T) {
	inj := fault.NewInjector(1)
	inj.Arm(fault.Rule{Point: fault.MemReserve, Kind: fault.KindTransient, Seg: 3, Once: true})
	g := NewGovernor(Config{Faults: inj})
	b := g.NewBudget()
	defer b.Close()
	if err := b.Reserve(context.Background(), 0, 10); err != nil {
		t.Fatalf("non-matching segment denied: %v", err)
	}
	err := b.Reserve(context.Background(), 3, 10)
	if err == nil {
		t.Fatalf("armed injector did not deny")
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("injected denial does not match ErrOutOfMemory: %v", err)
	}
	if !fault.IsTransient(err) {
		t.Fatalf("transience lost through OOMError wrapping: %v", err)
	}
}

func TestAdmissionQueueBlocksAndCancels(t *testing.T) {
	g := NewGovernor(Config{MaxConcurrent: 1})
	if waited, err := g.Admit(context.Background()); err != nil || waited {
		t.Fatalf("first admit: waited=%v err=%v", waited, err)
	}
	if g.Active() != 1 {
		t.Fatalf("active = %d", g.Active())
	}
	// A queued query whose context is cancelled leaves cleanly.
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { _, err := g.Admit(ctx); errCh <- err }()
	select {
	case err := <-errCh:
		t.Fatalf("second admit did not queue: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}
	// Leaving frees the slot for the next waiter. (waited is racy here — the
	// goroutine may reach Admit before or after Leave — so only err is
	// asserted.)
	done := make(chan error, 1)
	go func() { _, err := g.Admit(context.Background()); done <- err }()
	g.Leave()
	if err := <-done; err != nil {
		t.Fatalf("admit after leave: %v", err)
	}
	g.Leave()
}

func TestSpillRoundTrip(t *testing.T) {
	g := NewGovernor(Config{BaseDir: t.TempDir()})
	b := g.NewBudget()
	rows := []types.Row{
		{types.NewInt(-42), types.NewFloat(3.25), types.NewString("héllo"), types.NewBool(true), types.NewDate(19000), types.Null},
		{types.NewInt(1 << 60), types.NewFloat(-0.0), types.NewString(""), types.NewBool(false), types.NewDate(-1), types.NewInt(0)},
	}
	w, err := b.NewSpillWriter("test-*")
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if w.Rows() != 2 || w.Bytes() == 0 {
		t.Fatalf("rows=%d bytes=%d", w.Rows(), w.Bytes())
	}
	r, err := w.Reader()
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	// Remove-while-reading: the data stays readable through the open fd.
	w.Remove()
	w.Remove() // idempotent
	for i := range rows {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if len(got) != len(rows[i]) {
			t.Fatalf("row %d: %d cols, want %d", i, len(got), len(rows[i]))
		}
		for c := range got {
			if got[c].Kind() != rows[i][c].Kind() || types.Compare(got[c], rows[i][c]) != 0 {
				t.Fatalf("row %d col %d: got %v (%s), want %v (%s)",
					i, c, got[c], got[c].Kind(), rows[i][c], rows[i][c].Kind())
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last row: %v, want io.EOF", err)
	}
	r.Close()
	if err := b.Close(); err != nil {
		t.Fatalf("budget close: %v", err)
	}
}

func TestBudgetCloseRemovesSpillDir(t *testing.T) {
	base := t.TempDir()
	g := NewGovernor(Config{BaseDir: base})
	b := g.NewBudget()
	w, err := b.NewSpillWriter("leak-*")
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := w.Write(types.Row{types.NewInt(1)}); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The writer is deliberately NOT removed — Close is the backstop.
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("budget close left %d entries in the spill base", len(ents))
	}
}

func TestRowBytesCountsStrings(t *testing.T) {
	small := RowBytes(types.Row{types.NewInt(1)})
	big := RowBytes(types.Row{types.NewString(string(make([]byte, 1000)))})
	if big <= small+900 {
		t.Fatalf("string payload not counted: small=%d big=%d", small, big)
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"512K", 512 << 10, true},
		{"64M", 64 << 20, true},
		{"1G", 1 << 30, true},
		{"0", 0, true},
		{"-1", 0, false},
		{"abc", 0, false},
		{"8589934592G", 0, false},  // 2^63 bytes: one past the int64 range
		{"17179869184G", 0, false}, // 2^64 bytes: would wrap to 0, i.e. no budget
	} {
		got, err := ParseSize(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
