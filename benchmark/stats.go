package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(float64(n)*p/100+0.999999) - 1 // ceil(n*p/100) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// median returns the middle value of vals (mean of the two middle values
// for an even count); vals is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(vals []float64) (lo, hi float64) {
	for i, v := range vals {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// spread is (max-min)/median: the share by which a metric's samples
// disagree.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	lo, hi := minMax(vals)
	return (hi - lo) / m
}

// The calibration loop chases calibLoads dependent loads through an 8 MiB
// buffer: larger than a core's own caches, small enough to live in the
// shared last-level cache while the neighbours leave it room. That is where
// the engine's hash tables, memos and freshly allocated rows live too, and
// it is what the neighbours of a shared box take away: over 70 runs spread
// over an hour this loop and the workloads slowed down together, by tens of
// percent for minutes at a time (README, "Host speed"). A 64 MiB buffer,
// which misses every cache on any day, moved less than the workloads did;
// a register-only loop not at all. The buffer is mapped outside the Go
// heap, so heap_live_mb does not see it.
const (
	calibBytes = 8 << 20
	calibLoads = 1_000_000
	// calibRefMs is what the loop reads on the 2-core reference box while
	// its neighbours are quiet. Time-based metrics are reported at that
	// speed (hostLoad.slowdown).
	calibRefMs = 42.0
)

// The parallel tests set up, and so calibrate, concurrently.
var (
	calibOnce sync.Once
	calibBuf  []byte
	calibSink atomic.Uint64 // keeps the loop's result alive
)

func threadCPUNs() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_THREAD, &ru) // cannot fail for RUSAGE_THREAD with a valid pointer
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// calibrate times the fixed loop in CPU time of its thread, in ms. It does
// the same work on every call, so a change in its reading is a change in
// how fast the host executes code (a neighbour in the shared cache or on the
// sibling hyperthread, a frequency step), not in the program. CPU time, not
// wall time: what the hypervisor takes away altogether is read exactly from
// the kernel's steal counter instead. It returns 0 if the buffer cannot be
// mapped.
func calibrate() float64 {
	calibOnce.Do(func() {
		buf, err := syscall.Mmap(-1, 0, calibBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return
		}
		for i := range buf { // touch every page; distinct values defeat page merging
			buf[i] = byte(i>>12) | 1
		}
		calibBuf = buf
	})
	if calibBuf == nil {
		return 0
	}
	runtime.LockOSThread() // the CPU time read is this thread's
	defer runtime.UnlockOSThread()
	c0 := threadCPUNs()
	x := uint64(88172645463325252)
	for i := 0; i < calibLoads; i++ {
		x = x*6364136223846793005 + 1442695040888963407 + uint64(calibBuf[x>>41]) // 23 bits: 8 MiB
	}
	calibSink.Add(x)
	return float64(threadCPUNs()-c0) / 1e6
}

// procStatTicks reads the first line of /proc/stat: the CPU time the
// hypervisor gave to others while this machine wanted to run (steal) and all
// CPU time, in USER_HZ ticks summed over the CPUs. Both are 0 where the file
// cannot be read.
func procStatTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal; guest time is already in user
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostLoad is how the host treated the program over a measured interval.
type hostLoad struct {
	CalibMs  float64 `json:"calib_ms"`  // calibration loop, mean of the passes before and after the interval
	StealPct float64 `json:"steal_pct"` // share of the machine's CPU time the hypervisor gave to others
}

// slowdown is how much longer than on the quiet reference box the interval's
// work took: in CPU time, because the host executed code more slowly, and in
// wall time, because the hypervisor also took a share of the CPU away. Both
// are 1 where the host cannot be read.
func (l hostLoad) slowdown() (cpu, wall float64) {
	if l.CalibMs == 0 {
		return 1, 1
	}
	cpu = l.CalibMs / calibRefMs
	return cpu, cpu / (1 - l.StealPct/100)
}

// hostWatch brackets a measured interval: a calibration pass and the steal
// counter before it, the same after it.
type hostWatch struct {
	calibMs       float64
	steal0, total int64
}

func watchHost() hostWatch {
	w := hostWatch{calibMs: calibrate()}
	w.steal0, w.total = procStatTicks()
	return w
}

func (w hostWatch) done() hostLoad {
	steal, total := procStatTicks()
	l := hostLoad{CalibMs: (w.calibMs + calibrate()) / 2}
	if total > w.total {
		l.StealPct = float64(steal-w.steal0) / float64(total-w.total) * 100
	}
	return l
}

// noisy reports whether the host's slowdown readings of one workload's
// rounds disagree by more than 10 %.
func noisy(slowdown []float64) bool { return spread(slowdown) > 0.10 }

func p50(ns []float64) float64 {
	s := append([]float64(nil), ns...)
	sort.Float64s(s)
	return percentile(s, 50)
}
