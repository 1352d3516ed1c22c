package doctor

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"partopt"
	"partopt/internal/server"
)

// fakeSource replays a scripted sequence of snapshots (the last one
// repeats), so growth checks see exactly the deltas a test wants.
type fakeSource struct {
	snaps []*server.Statz
	err   error
	i     int
}

func (f *fakeSource) Statz(ctx context.Context) (*server.Statz, error) {
	if f.err != nil {
		return nil, f.err
	}
	s := f.snaps[f.i]
	if f.i < len(f.snaps)-1 {
		f.i++
	}
	return s, nil
}

// statz builds a healthy baseline snapshot tests then distort.
func statz() *server.Statz {
	st := &server.Statz{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
	}
	st.Server.Goroutines = 50
	st.Server.HeapBytes = 10 << 20
	return st
}

func fastThresholds() Thresholds {
	th := DefaultThresholds()
	th.GrowthInterval = time.Millisecond
	th.CheckTimeout = 5 * time.Second
	return th
}

func runOne(t *testing.T, name string, src Source, th Thresholds) Result {
	t.Helper()
	results, _, err := RunAll(context.Background(), src, th, name)
	if err != nil {
		t.Fatalf("RunAll(%s): %v", name, err)
	}
	if len(results) != 1 || results[0].Check != name {
		t.Fatalf("RunAll(%s) returned %v", name, results)
	}
	return results[0]
}

func TestExplainListsEveryCheck(t *testing.T) {
	out := Explain()
	for _, c := range Checks() {
		if !strings.Contains(out, c.Name) {
			t.Errorf("Explain lacks %s", c.Name)
		}
	}
}

func TestUnknownCheckNamesTheRegistry(t *testing.T) {
	_, _, err := RunAll(context.Background(), &fakeSource{snaps: []*server.Statz{statz()}}, fastThresholds(), "nope")
	if err == nil || !strings.Contains(err.Error(), "cache-hit-ratio") {
		t.Fatalf("err = %v, want unknown-check error listing names", err)
	}
}

func TestCacheHitRatio(t *testing.T) {
	th := fastThresholds()

	cold := statz() // 10 lookups: below the sample floor, not judged
	cold.PlanCache = partopt.PlanCacheStats{CacheStats: partopt.CacheStats{Hits: 0, Misses: 10}}
	if r := runOne(t, "cache-hit-ratio", &fakeSource{snaps: []*server.Statz{cold}}, th); !r.OK {
		t.Fatalf("under-sampled cache judged unhealthy: %+v", r)
	}

	bad := statz()
	bad.PlanCache = partopt.PlanCacheStats{CacheStats: partopt.CacheStats{Hits: 10, Misses: 90}}
	if r := runOne(t, "cache-hit-ratio", &fakeSource{snaps: []*server.Statz{bad}}, th); r.OK {
		t.Fatalf("10%% hit ratio passed: %+v", r)
	}

	good := statz()
	good.PlanCache = partopt.PlanCacheStats{CacheStats: partopt.CacheStats{Hits: 90, Misses: 10}}
	if r := runOne(t, "cache-hit-ratio", &fakeSource{snaps: []*server.Statz{good}}, th); !r.OK {
		t.Fatalf("90%% hit ratio failed: %+v", r)
	}
}

func TestSpillVolume(t *testing.T) {
	th := fastThresholds()
	th.MaxSpillBytes = 1000

	quiet := statz()
	if r := runOne(t, "spill-volume", &fakeSource{snaps: []*server.Statz{quiet}}, th); !r.OK {
		t.Fatalf("no spill failed: %+v", r)
	}

	storm := statz()
	storm.Counters["partopt_spill_bytes_total"] = 5000
	storm.Counters["partopt_spill_parts_total"] = 7
	r := runOne(t, "spill-volume", &fakeSource{snaps: []*server.Statz{storm}}, th)
	if r.OK {
		t.Fatalf("spill storm passed: %+v", r)
	}
	if !strings.Contains(r.Detail, "5000 bytes") {
		t.Fatalf("detail %q lacks the volume", r.Detail)
	}
}

func TestAdmissionQueue(t *testing.T) {
	th := fastThresholds()
	th.MaxAdmissionWaiting = 4

	unbounded := statz() // capacity 0: nothing to judge
	if r := runOne(t, "admission-queue", &fakeSource{snaps: []*server.Statz{unbounded}}, th); !r.OK {
		t.Fatalf("unbounded admission failed: %+v", r)
	}

	saturated := statz()
	saturated.Admission = partopt.AdmissionState{Active: 2, Waiting: 9, Capacity: 2}
	if r := runOne(t, "admission-queue", &fakeSource{snaps: []*server.Statz{saturated}}, th); r.OK {
		t.Fatalf("9-deep queue passed: %+v", r)
	}
}

func TestGoroutineGrowth(t *testing.T) {
	th := fastThresholds()
	th.MaxGoroutines = 1000
	th.MaxGoroutineGrowth = 10

	flat := statz()
	if r := runOne(t, "goroutine-growth", &fakeSource{snaps: []*server.Statz{flat, flat}}, th); !r.OK {
		t.Fatalf("flat goroutines failed: %+v", r)
	}

	grown := statz()
	grown.Server.Goroutines = flat.Server.Goroutines + 100
	if r := runOne(t, "goroutine-growth", &fakeSource{snaps: []*server.Statz{flat, grown}}, th); r.OK {
		t.Fatalf("+100 goroutines passed: %+v", r)
	}

	tooMany := statz()
	tooMany.Server.Goroutines = 5000
	if r := runOne(t, "goroutine-growth", &fakeSource{snaps: []*server.Statz{tooMany, tooMany}}, th); r.OK {
		t.Fatalf("5000 goroutines passed the 1000 ceiling: %+v", r)
	}
}

func TestHeapGrowth(t *testing.T) {
	th := fastThresholds()
	th.MaxHeapBytes = 100 << 20
	th.MaxHeapGrowthBytes = 1 << 20

	flat := statz()
	if r := runOne(t, "heap-growth", &fakeSource{snaps: []*server.Statz{flat, flat}}, th); !r.OK {
		t.Fatalf("flat heap failed: %+v", r)
	}

	leaked := statz()
	leaked.Server.HeapBytes = flat.Server.HeapBytes + 50<<20
	if r := runOne(t, "heap-growth", &fakeSource{snaps: []*server.Statz{flat, leaked}}, th); r.OK {
		t.Fatalf("+50M heap passed: %+v", r)
	}
}

func TestPartitionSkew(t *testing.T) {
	th := fastThresholds()
	th.MaxSkewRatio = 3.0
	th.MinSkewRows = 100

	balanced := statz()
	balanced.Tables = []partopt.PartitionRows{
		{Table: "even", Leaves: []int64{50, 50, 50, 50}, Total: 200},
		{Table: "tiny", Leaves: []int64{99, 0}, Total: 99},    // under the row floor
		{Table: "single", Leaves: []int64{5000}, Total: 5000}, // one leaf: skew undefined
	}
	if r := runOne(t, "partition-skew", &fakeSource{snaps: []*server.Statz{balanced}}, th); !r.OK {
		t.Fatalf("balanced tables failed: %+v", r)
	}

	skewed := statz()
	skewed.Tables = []partopt.PartitionRows{
		{Table: "hot", Leaves: []int64{970, 10, 10, 10}, Total: 1000},
	}
	r := runOne(t, "partition-skew", &fakeSource{snaps: []*server.Statz{skewed}}, th)
	if r.OK {
		t.Fatalf("hot partition passed: %+v", r)
	}
	if !strings.Contains(r.Detail, `"hot"`) {
		t.Fatalf("detail %q does not name the skewed table", r.Detail)
	}
}

func TestUnreachableSourceFailsEveryCheck(t *testing.T) {
	src := &fakeSource{err: errors.New("connection refused")}
	results, allOK, err := RunAll(context.Background(), src, fastThresholds(), "")
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if allOK {
		t.Fatal("unreachable source reported healthy")
	}
	if len(results) != len(Checks()) {
		t.Fatalf("got %d results, want %d", len(results), len(Checks()))
	}
	for _, r := range results {
		if r.OK || r.Err == nil {
			t.Fatalf("check %s did not surface the source error: %+v", r.Check, r)
		}
	}
}
