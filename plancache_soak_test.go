package partopt

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitGoroutinesSettle waits for the goroutine count to return to the
// pre-run baseline (the chaos suite's leak-check idiom), failing with a
// full stack dump if it doesn't.
func waitGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
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

// addJoinFixture adds a monthly-partitioned fact and a replicated dimension
// to the soak's engine, so its join statements go through the join
// enumerator and dynamic elimination on every compilation.
func addJoinFixture(t *testing.T, eng *Engine) {
	t.Helper()
	eng.MustCreateTable("jsales",
		Columns("date_id", TypeInt, "cust", TypeInt, "amount", TypeFloat),
		DistributedBy("cust"),
		PartitionByRangeInt("date_id", 0, 120, 12))
	eng.MustCreateTable("jdim",
		Columns("date_id", TypeInt, "month", TypeInt),
		Replicated())
	for d := int64(0); d < 120; d++ {
		if err := eng.Insert("jsales", Int(d), Int(d%17), Float(float64(d))); err != nil {
			t.Fatalf("insert jsales: %v", err)
		}
		if err := eng.Insert("jdim", Int(d), Int(d/10+1)); err != nil {
			t.Fatalf("insert jdim: %v", err)
		}
	}
	if err := eng.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
}

// Soak: concurrent Prepare/Query/Exec traffic — single-table statements and
// joins — racing DDL, ANALYZE, DML and settings switches against one engine.
// Run under -race. Afterward the cache must still be coherent: a post-soak
// DDL bump forces a fresh plan (no stale plan survives), and no goroutine
// leaks.
func TestPlanCacheSoak(t *testing.T) {
	eng := cacheFixture(t)
	addJoinFixture(t, eng)
	before := runtime.NumGoroutine()

	const (
		workers = 6
		iters   = 60
	)
	var wg sync.WaitGroup

	// Query workers: ad-hoc literal queries plus shared prepared
	// statements, mixed shapes so fingerprints collide and diverge.
	shared, err := eng.Prepare("SELECT sum(amount) FROM orders WHERE date BETWEEN $1 AND $2")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	sharedJoin, err := eng.Prepare("SELECT sum(s.amount) FROM jdim d, jsales s WHERE d.date_id = s.date_id AND d.month = $1")
	if err != nil {
		t.Fatalf("Prepare join: %v", err)
	}
	// One statement of traffic per draw: three single-table shapes, then
	// the same three over the join fixture.
	traffic := []func(rnd *rand.Rand) error{
		func(rnd *rand.Rand) error {
			_, err := eng.Query(fmt.Sprintf("SELECT amount FROM orders WHERE id = %d", 1+rnd.Intn(60)))
			return err
		},
		func(rnd *rand.Rand) error {
			m := 1 + rnd.Intn(12)
			_, err := shared.Query(Date(2013, m, 1), Date(2013, m, 28))
			return err
		},
		func(*rand.Rand) error {
			_, err := eng.Explain("SELECT count(*) FROM orders WHERE id < 30")
			return err
		},
		func(rnd *rand.Rand) error {
			_, err := eng.Query(fmt.Sprintf(`SELECT count(*) FROM jdim d, jsales s
				WHERE d.date_id = s.date_id AND d.month = %d`, 1+rnd.Intn(12)))
			return err
		},
		func(rnd *rand.Rand) error {
			_, err := sharedJoin.Query(Int(int64(1 + rnd.Intn(12))))
			return err
		},
		func(*rand.Rand) error {
			_, err := eng.Explain(`SELECT count(*) FROM jsales s, jdim d
				WHERE s.date_id = d.date_id AND d.month < 3`)
			return err
		},
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				kind := rnd.Intn(len(traffic))
				if err := traffic[kind](rnd); err != nil {
					t.Errorf("worker %d, traffic %d: %v", w, kind, err)
					return
				}
			}
		}(w)
	}

	// Mutator: DDL, ANALYZE, DML and settings churn, all epoch-bumping.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			switch i % 5 {
			case 0:
				if err := eng.Analyze(); err != nil {
					t.Errorf("Analyze: %v", err)
					return
				}
			case 1:
				if err := eng.CreateTable(fmt.Sprintf("soak_%d", i), Columns("x", TypeInt)); err != nil {
					t.Errorf("CreateTable: %v", err)
					return
				}
			case 2:
				if err := eng.Insert("orders", Int(int64(1000+i)), Float(1), Date(2013, 7, 7)); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			case 3:
				eng.SetPartitionSelection(i%2 == 0)
			default:
				if _, err := eng.Exec(fmt.Sprintf("UPDATE orders SET amount = amount + 0 WHERE id = %d", 1000+i)); err != nil {
					t.Errorf("Exec: %v", err)
					return
				}
			}
		}
		eng.SetPartitionSelection(true)
	}()

	wg.Wait()

	st := eng.PlanCacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("soak produced no cache traffic: %+v", st)
	}
	if st.Epoch == 0 {
		t.Errorf("mutator never bumped the epoch: %+v", st)
	}

	// No stale plan survives a bump: the table-scan plan cached above must
	// be recompiled (into an index plan) after CreateIndex.
	const q = "SELECT amount FROM orders WHERE id = 7"
	if _, err := eng.Query(q); err != nil {
		t.Fatalf("pre-index query: %v", err)
	}
	if err := eng.CreateIndex("soak_id_idx", "orders", "id"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	out, err := eng.Explain(q)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "soak_id_idx") {
		t.Errorf("stale pre-index plan survived the epoch bump:\n%s", out)
	}

	waitGoroutinesSettle(t, before)
}
