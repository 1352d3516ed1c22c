// Command benchmark is the repository's end-to-end benchmark: it puts
// internal/server in front of a freshly loaded partopt.Engine — what
// cmd/mppd wraps — drives it over TCP with closed-loop clients, checks the
// answers against a reference evaluator, and prints every metric by name
// with its unit. See README.md in this directory.
//
//	go run ./benchmark                      all five workloads, 5 x 5 s rounds each
//	go run ./benchmark -workload star_dpe   one workload
//	go run ./benchmark -trace 1             the per-layer numbers and trace files
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// conditions is what a result was measured under; every output carries it.
type conditions struct {
	Segments     int     `json:"segments"`
	Clients      int     `json:"clients"`
	Rounds       int     `json:"rounds"`
	RoundSeconds float64 `json:"round_seconds"`
	WarmupS      float64 `json:"warmup_seconds"`
	Setups       int     `json:"setups"`
	Seed         int64   `json:"seed"`
	Traced       bool    `json:"traced"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitCommit    string  `json:"git_commit"`
	Time         string  `json:"time"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Conditions conditions                 `json:"conditions"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// gitCommit is the revision the go tool stamped into the binary; a
// checkout that is not a git repository has none.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// resultLine is the last line of standard output: the contract of
// BENCHMARK.json's command.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *workloadResult) line(traced bool) resultLine {
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, l := range layerUnits {
			out.Metrics[l.name] = metricValue{r.Layers[l.name], l.unit}
		}
		return out
	}
	for _, m := range endToEnd {
		out.Metrics[m.name] = metricValue{r.Metrics[m.name].Value, m.unit}
	}
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five)")
		seed         = flag.Int64("seed", 1, "seed of the generated tables and statement streams")
		seconds      = flag.Float64("seconds", 25, "timed seconds per workload, split over 5 rounds")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace.<workload>.json")
		clients      = flag.Int("clients", 2, "closed-loop client connections (at most the CPU count)")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()
	if *compare {
		return compareMain(flag.Args())
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchmark: -clients %d refused: the load generator shares the box with the server, so it gets at most one client per CPU (%d)\n", *clients, runtime.NumCPU())
		return 2
	}
	if *clients >= ordersLeaves {
		fmt.Fprintf(os.Stderr, "benchmark: -clients %d refused: mixed_rw gives every client (and the traced replay) an orders leaf of its own, and there are %d\n", *clients, ordersLeaves)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1")
		return 2
	}
	todo := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		todo = []*workload{w}
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, clients: *clients, sc: fullScale}
	out := resultFile{
		Conditions: conditions{
			Segments: segments, Clients: *clients, Rounds: rounds, RoundSeconds: *seconds / rounds,
			WarmupS: warmup.Seconds(), Setups: setups, Seed: *seed, Traced: *trace == 1,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: gitCommit(), Time: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadResult{},
	}
	fmt.Printf("benchmark: seed %d, %d clients, %d rounds x %.1f s, %d CPUs (GOMAXPROCS %d), %s, commit %s\n",
		*seed, *clients, rounds, *seconds/rounds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), out.Conditions.GitCommit)

	exit := 0
	var lines []resultLine
	for _, w := range todo {
		var res *workloadResult
		var err error
		if *trace == 1 {
			res, err = traceWorkload(w, cfg)
		} else {
			res, err = runWorkload(w, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if *trace == 1 {
			res.printLayers(os.Stdout)
		} else {
			res.print(os.Stdout)
		}
		if res.Failed > 0 {
			exit = 1
		}
		out.Workloads[w.name] = res
		lines = append(lines, res.line(*trace == 1))
		runtime.GC()
	}

	name := "result.json"
	if *trace == 1 {
		name = "result.trace.json"
	}
	if err := writeJSON(filepath.Join(outDir, name), out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println()
	for _, l := range lines {
		b, err := json.Marshal(l)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Println(string(b))
	}
	if exit != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: statements failed or answered wrongly; see FIRST ERROR above")
	}
	return exit
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
