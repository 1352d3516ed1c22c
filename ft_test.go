package partopt

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"partopt/internal/exec"
	"partopt/internal/fault"
	"partopt/internal/storage"
)

// Engine-level fault tolerance: kill-a-segment drills against the SQL
// surface, the probe loop, and the DML no-retry contract.

// queryMultiset runs a query and renders the result as a sorted bag.
func queryMultiset(t *testing.T, eng *Engine, q string) []string {
	t.Helper()
	rows, err := eng.Query(q)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	out := make([]string, 0, len(rows.Data))
	for _, r := range rows.Data {
		out = append(out, fmt.Sprintf("%v", r))
	}
	sort.Strings(out)
	return out
}

func sameBag(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertMirrorsConsistent requires both replicas of every segment of every
// table to hold identical heaps — the invariant a half-done DML must not
// break.
func assertMirrorsConsistent(t *testing.T, eng *Engine) {
	t.Helper()
	for _, tab := range eng.cat.Tables() {
		for seg := 0; seg < eng.segments; seg++ {
			for _, leaf := range storage.LeafOIDs(tab) {
				p, err := eng.store.ScanLeafAt(tab.OID, seg, 0, leaf)
				if err != nil {
					t.Fatalf("scan replica 0: %v", err)
				}
				m, err := eng.store.ScanLeafAt(tab.OID, seg, 1, leaf)
				if err != nil {
					t.Fatalf("scan replica 1: %v", err)
				}
				if fmt.Sprintf("%v", p) != fmt.Sprintf("%v", m) {
					t.Fatalf("%s seg %d leaf %d: replicas diverged", tab.Name, seg, leaf)
				}
			}
		}
	}
}

const ftProbeQuery = `SELECT d.year, d.month, count(*), sum(o.amount)
	FROM orders_fk o, date_dim d
	WHERE o.date_id = d.date_id GROUP BY d.year, d.month`

func TestEngineProbeDetectedFailover(t *testing.T) {
	eng := paperEngine(t, 4)
	eng.EnableFaultTolerance(FTConfig{ProbeInterval: 2 * time.Millisecond, DownAfter: 2})
	defer eng.StopFTS()

	golden := queryMultiset(t, eng, ftProbeQuery)
	retriedBefore := eng.Obs().Counter("partopt_queries_retried_total").Value()

	if err := eng.KillSegment(1); err != nil {
		t.Fatalf("KillSegment: %v", err)
	}
	// The probe loop must detect the death and fail over on its own — no
	// query traffic required.
	deadline := time.Now().Add(5 * time.Second)
	for eng.SegmentFailovers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never failed over (failovers = %d)", eng.SegmentFailovers())
		}
		time.Sleep(time.Millisecond)
	}

	// Queries against the post-failover cluster are correct and need zero
	// coordinator retries: the primary map already points at the mirror.
	if got := queryMultiset(t, eng, ftProbeQuery); !sameBag(got, golden) {
		t.Fatalf("post-failover answer differs from healthy cluster")
	}
	if got := eng.Obs().Counter("partopt_queries_retried_total").Value(); got != retriedBefore {
		t.Fatalf("probe-detected failover still cost %d retries", got-retriedBefore)
	}

	health, ok := eng.SegmentHealth()
	if !ok {
		t.Fatalf("SegmentHealth not available with FTS enabled")
	}
	if health[1].Primary == 0 {
		t.Fatalf("segment 1 still routed to the killed replica")
	}
	foundDown := false
	for _, rs := range health[1].Replicas {
		if rs.State == "down" {
			foundDown = true
		}
	}
	if !foundDown {
		t.Fatalf("killed replica not marked down: %+v", health[1])
	}

	// Revive: storage resyncs, FTS walks recovered → up, data still right.
	if err := eng.ReviveSegment(1); err != nil {
		t.Fatalf("ReviveSegment: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		health, _ = eng.SegmentHealth()
		allUp := true
		for _, rs := range health[1].Replicas {
			if rs.State != "up" {
				allUp = false
			}
		}
		if allUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived replica never walked back to up: %+v", health[1])
		}
		time.Sleep(time.Millisecond)
	}
	if got := queryMultiset(t, eng, ftProbeQuery); !sameBag(got, golden) {
		t.Fatalf("post-revive answer differs from healthy cluster")
	}
	assertMirrorsConsistent(t, eng)
}

func TestEngineEvidenceFailoverSQL(t *testing.T) {
	// ProbeInterval 0: detection can only come from a query tripping over
	// the dead segment — the per-query recovery path, end to end over SQL.
	eng := paperEngine(t, 4)
	eng.EnableFaultTolerance(FTConfig{ProbeInterval: 0, DownAfter: 2})
	defer eng.StopFTS()

	golden := queryMultiset(t, eng, ftProbeQuery)
	if err := eng.KillSegment(2); err != nil {
		t.Fatalf("KillSegment: %v", err)
	}
	if got := queryMultiset(t, eng, ftProbeQuery); !sameBag(got, golden) {
		t.Fatalf("evidence-driven recovery returned a different answer")
	}
	if got := eng.SegmentFailovers(); got != 1 {
		t.Fatalf("failovers = %d, want exactly 1", got)
	}
	if got := eng.Obs().Counter("partopt_queries_retried_total").Value(); got != 1 {
		t.Fatalf("retries = %d, want exactly 1", got)
	}
}

func TestEngineDMLNeverRetried(t *testing.T) {
	// Satellite: a segment fault mid-UPDATE must abort the statement as
	// non-retryable (retrying DML would double-apply the survivors' work),
	// leave primary and mirror consistent, and let an idempotent re-run
	// converge to the same state as a never-faulted twin.
	const upd = "UPDATE orders SET amount = 999 WHERE date BETWEEN '2012-01-01' AND '2012-01-31'"
	const check = "SELECT order_id, amount FROM orders"

	twin := paperEngine(t, 4)
	twin.EnableFaultTolerance(FTConfig{ProbeInterval: 0, DownAfter: 2})
	defer twin.StopFTS()
	if _, err := twin.Exec(upd); err != nil {
		t.Fatalf("twin update: %v", err)
	}
	want := queryMultiset(t, twin, check)

	eng := paperEngine(t, 4)
	eng.EnableFaultTolerance(FTConfig{ProbeInterval: 0, DownAfter: 2})
	defer eng.StopFTS()
	if attempts, _ := eng.RetryPolicy(); attempts < 2 {
		t.Fatalf("fixture has no retry budget — the test would prove nothing")
	}
	inj := fault.NewInjector(5)
	inj.Arm(fault.Rule{Point: fault.SegExec, Kind: fault.KindTransient, Seg: 0, Once: true})
	eng.SetFaults(inj)

	_, err := eng.Exec(upd)
	if err == nil {
		t.Fatalf("UPDATE survived an injected segment fault — it must not be retried")
	}
	if exec.IsTransient(err) {
		t.Fatalf("failed DML still marked transient (an outer layer would retry it): %v", err)
	}
	if !strings.Contains(err.Error(), "DML aborted") {
		t.Fatalf("error does not explain the no-retry decision: %v", err)
	}
	if got := inj.Triggered(); got != 1 {
		t.Fatalf("fault fired %d times — the DML was re-executed", got)
	}
	// Partial effects are allowed; replica divergence is not.
	assertMirrorsConsistent(t, eng)

	// The statement is idempotent, so a clean re-run converges with the twin.
	eng.SetFaults(nil)
	if _, err := eng.Exec(upd); err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if got := queryMultiset(t, eng, check); !sameBag(got, want) {
		t.Fatalf("converged state differs from the unfaulted twin")
	}
	assertMirrorsConsistent(t, eng)
}

// An explicit retry policy survives EnableFaultTolerance, even a
// one-attempt one; the one-retry default is installed only when no policy
// was set.
func TestEnableFaultToleranceKeepsRetryPolicy(t *testing.T) {
	eng := paperEngine(t, 2)
	eng.SetRetryPolicy(1, 7*time.Millisecond)
	eng.EnableFaultTolerance(FTConfig{ProbeInterval: 0, DownAfter: 2})
	defer eng.StopFTS()
	if n, backoff := eng.RetryPolicy(); n != 1 || backoff != 7*time.Millisecond {
		t.Errorf("explicit policy became (%d, %v), want (1, 7ms)", n, backoff)
	}

	def := paperEngine(t, 2)
	def.EnableFaultTolerance(FTConfig{ProbeInterval: 0, DownAfter: 2})
	defer def.StopFTS()
	if n, backoff := def.RetryPolicy(); n != 2 || backoff != 2*time.Millisecond {
		t.Errorf("default policy is (%d, %v), want (2, 2ms)", n, backoff)
	}
}
