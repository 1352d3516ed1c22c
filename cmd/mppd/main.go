// Command mppd is the MPP coordinator daemon: the partopt engine behind a
// multi-client TCP line-protocol front end with a hardened connection
// lifecycle, plus HTTP observability endpoints and a doctor subcommand.
//
//	$ mppd -listen :7788 -http :7789 -max-concurrent 8 -mem-budget 256M
//	$ mppd doctor -http http://127.0.0.1:7789 run
//	$ mppd doctor -http http://127.0.0.1:7789 run -only partition-skew
//	$ mppd doctor explain
//
// The server loads the paper's star schema on boot (like mppsim) so a
// fresh daemon is immediately queryable; point clients at the TCP port
// and speak the line protocol documented in internal/server.
//
// Lifecycle: SIGTERM and SIGINT start a graceful drain — /healthz flips
// to 503, new connections and statements are refused with a retryable
// error, in-flight queries get -drain-timeout to finish, stragglers are
// cancelled with partial statistics. A second signal aborts immediately.
// Exit code 0 means every in-flight query completed; 1 means the drain
// deadline forced cancellations.
//
// `mppd doctor` runs the read-only health-check suite against a live
// server's /statz endpoint: `run` executes every check (`-only <name>`
// narrows to one) and exits non-zero when any fails; `explain` lists the
// registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partopt"
	"partopt/internal/fault"
	"partopt/internal/mem"
	"partopt/internal/server"
	"partopt/internal/server/doctor"
	"partopt/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "doctor" {
		os.Exit(doctorMain(os.Args[2:]))
	}
	os.Exit(serveMain(os.Args[1:]))
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("mppd", flag.ExitOnError)
	listen := fs.String("listen", ":7788", "TCP listen address for the line protocol")
	httpAddr := fs.String("http", ":7789", "HTTP listen address for /healthz, /readyz, /metrics, /statz (empty disables)")
	segments := fs.Int("segments", 4, "number of cluster segments")
	sales := fs.Int("sales", 20, "star-schema sales rows per day loaded on boot")
	maxSessions := fs.Int("max-sessions", server.DefaultMaxSessions, "connection cap; beyond it connections are refused with TOO_BUSY")
	maxQueued := fs.Int("max-queued", server.DefaultMaxQueued, "admission-queue depth that sheds new statements with TOO_BUSY (-1 disables)")
	idleTimeout := fs.Duration("idle-timeout", server.DefaultIdleTimeout, "close sessions idle this long")
	readTimeout := fs.Duration("read-timeout", server.DefaultReadTimeout, "deadline for completing a started statement line")
	writeTimeout := fs.Duration("write-timeout", server.DefaultWriteTimeout, "deadline for writing one response")
	queryTimeout := fs.Duration("query-timeout", 0, "per-query deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", server.DefaultDrainTimeout, "grace for in-flight queries on SIGTERM/SIGINT")
	memBudget := fs.String("mem-budget", "", "total executor memory budget, e.g. 256M (empty = unlimited)")
	workMem := fs.String("work-mem", "", "per-query spill threshold, e.g. 1M (empty = fair share of the budget)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrently executing queries (0 = unbounded; required for admission-based shedding)")
	planCache := fs.Int("plan-cache", partopt.DefaultPlanCacheCapacity, "plan cache capacity in entries (0 disables caching)")
	chaos := fs.String("chaos", "", "arm a fault rule for resilience drills: point:kind[:delay], e.g. exec.slice.start:delay:500ms")
	ftsOn := fs.Bool("fts", false, "enable segment fault tolerance: mirrored segments, health probing, failover")
	ftsProbe := fs.Duration("fts-probe-interval", partopt.DefaultFTConfig().ProbeInterval, "FTS health probe period (0 disables the probe loop)")
	retryAttempts := fs.Int("retry-attempts", 0, "max attempts for read-only queries that fail transiently (0 keeps the FTS default / no retry)")
	retryBackoff := fs.Duration("retry-backoff", 2*time.Millisecond, "backoff before a retry attempt, doubled per retry")
	fs.Parse(args)

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf

	eng, err := partopt.New(*segments)
	if err != nil {
		logf("mppd: %v", err)
		return 1
	}
	if *planCache != partopt.DefaultPlanCacheCapacity {
		eng.SetPlanCacheCapacity(*planCache)
	}
	if *memBudget != "" {
		n, err := mem.ParseSize(*memBudget)
		if err != nil {
			logf("mppd: %v", err)
			return 1
		}
		eng.SetMemBudget(n)
	}
	if *workMem != "" {
		n, err := mem.ParseSize(*workMem)
		if err != nil {
			logf("mppd: %v", err)
			return 1
		}
		eng.SetWorkMem(n)
	}
	if *maxConcurrent > 0 {
		eng.SetMaxConcurrent(*maxConcurrent)
	}
	if *retryAttempts > 0 {
		eng.SetRetryPolicy(*retryAttempts, *retryBackoff)
	}

	cfg := workload.DefaultStarConfig()
	cfg.SalesPerDay = *sales
	logf("mppd: loading star schema (%d segments, %d months per fact)...", *segments, cfg.Months)
	if err := workload.BuildStar(eng, cfg); err != nil {
		logf("mppd: loading star schema: %v", err)
		return 1
	}

	var inj *fault.Injector
	if *chaos != "" {
		var err error
		if inj, err = parseChaos(*chaos); err != nil {
			logf("mppd: %v", err)
			return 1
		}
		eng.SetFaults(inj)
		logf("mppd: chaos drill armed: %s", *chaos)
	}

	// Mirrors are enabled after the bulk load (cloning the loaded heaps is
	// cheaper than dual-applying every boot insert) and after chaos arming
	// (so seg.probe rules see the probe loop from its first tick).
	if *ftsOn {
		eng.EnableFaultTolerance(partopt.FTConfig{ProbeInterval: *ftsProbe, DownAfter: partopt.DefaultFTConfig().DownAfter})
		defer eng.StopFTS()
		logf("mppd: fault tolerance enabled (probe every %v)", *ftsProbe)
	}

	srv := server.New(eng, server.Config{
		Addr:         *listen,
		HTTPAddr:     *httpAddr,
		MaxSessions:  *maxSessions,
		MaxQueued:    *maxQueued,
		IdleTimeout:  *idleTimeout,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		QueryTimeout: *queryTimeout,
		Faults:       inj,
		Logf:         logf,
	})
	if err := srv.Start(); err != nil {
		logf("mppd: %v", err)
		return 1
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	logf("mppd: %v: draining (deadline %v; signal again to abort)", sig, *drainTimeout)
	go func() {
		<-sigCh
		logf("mppd: second signal, aborting")
		srv.Close()
		os.Exit(1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logf("mppd: drain deadline exceeded, in-flight queries were cancelled")
		return 1
	}
	return 0
}

func doctorMain(args []string) int {
	fs := flag.NewFlagSet("mppd doctor", flag.ExitOnError)
	base := fs.String("http", "http://127.0.0.1:7789", "base URL of the server's HTTP endpoint")
	checkTimeout := fs.Duration("check-timeout", 5*time.Second, "per-check deadline")
	interval := fs.Duration("interval", 250*time.Millisecond, "sampling interval of the growth checks")
	minHitRatio := fs.Float64("min-hit-ratio", 0.5, "cache-hit-ratio: minimum hit ratio once enough lookups exist")
	minCacheSamples := fs.Int64("min-cache-samples", 50, "cache-hit-ratio: lookups required before judging")
	maxSpill := fs.String("max-spill-bytes", "1G", "spill-volume: cumulative spill ceiling, e.g. 512M")
	maxWaiting := fs.Int("max-waiting", 8, "admission-queue: waiting queries that mean saturation")
	maxSkew := fs.Float64("max-skew", 4.0, "partition-skew: max leaf rows over mean leaf rows")
	minSkewRows := fs.Int64("min-skew-rows", 1000, "partition-skew: table rows required before judging")
	fs.Parse(args)

	sub := fs.Arg(0)
	switch sub {
	case "explain":
		fmt.Print(doctor.Explain())
		return 0
	case "run":
	case "":
		fmt.Fprintln(os.Stderr, "usage: mppd doctor [flags] run [-only <check>] | explain")
		return 2
	default:
		fmt.Fprintf(os.Stderr, "mppd doctor: unknown subcommand %q (want run or explain)\n", sub)
		return 2
	}

	runFS := flag.NewFlagSet("mppd doctor run", flag.ExitOnError)
	only := runFS.String("only", "", "run just this check")
	runFS.Parse(fs.Args()[1:])

	th := doctor.DefaultThresholds()
	th.CheckTimeout = *checkTimeout
	th.GrowthInterval = *interval
	th.MinCacheHitRatio = *minHitRatio
	th.MinCacheSamples = *minCacheSamples
	th.MaxAdmissionWaiting = *maxWaiting
	th.MaxSkewRatio = *maxSkew
	th.MinSkewRows = *minSkewRows
	spill, err := mem.ParseSize(*maxSpill)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mppd doctor: %v\n", err)
		return 2
	}
	th.MaxSpillBytes = spill

	results, allOK, err := doctor.RunAll(context.Background(), doctor.HTTPSource{Base: *base}, th, *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mppd doctor: %v\n", err)
		return 2
	}
	for _, r := range results {
		fmt.Println(r)
	}
	if !allOK {
		return 1
	}
	return 0
}

// parseChaos arms one always-firing fault rule from a point:kind[:delay]
// spec — the resilience-drill hook: slow every slice start to rehearse a
// drain, refuse every Nth connection, and so on. The rule matches every
// segment/session and fires on every hit.
func parseChaos(spec string) (*fault.Injector, error) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) < 2 {
		return nil, fmt.Errorf("invalid -chaos %q (want point:kind[:delay])", spec)
	}
	var point fault.Point
	for _, p := range fault.Points() {
		if string(p) == parts[0] {
			point = p
		}
	}
	if point == "" {
		return nil, fmt.Errorf("unknown fault point %q (have %v)", parts[0], fault.Points())
	}
	kinds := map[string]fault.Kind{
		"error":     fault.KindError,
		"transient": fault.KindTransient,
		"drop":      fault.KindDrop,
		"delay":     fault.KindDelay,
		"panic":     fault.KindPanic,
	}
	kind, ok := kinds[parts[1]]
	if !ok {
		return nil, fmt.Errorf("unknown fault kind %q (want error|transient|drop|delay|panic)", parts[1])
	}
	rule := fault.Rule{Point: point, Kind: kind, Seg: fault.AnySeg, Prob: 1}
	if len(parts) == 3 {
		d, err := time.ParseDuration(parts[2])
		if err != nil {
			return nil, fmt.Errorf("invalid -chaos delay %q: %v", parts[2], err)
		}
		rule.Delay = d
	}
	inj := fault.NewInjector(1)
	inj.Arm(rule)
	return inj, nil
}
